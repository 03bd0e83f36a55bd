"""Golden model metrics and log bytes for a fixed matrix of solves.

Each solve pins its rounds, peak machine words, total words, DHT reads and
writes, the log's own word total and the sha256 of the bytes that
`ContractionLog.save` writes. A change to the host code may make a run
faster; it may not move any of these. The total words are the table's peak
with every contracted member's payload key retired, so each payload is
counted once, inside its record.
"""

import hashlib

import pytest

from treecontract import oracles
from treecontract.engine import ContractionLog
from treecontract.problems import REGISTRY, iso
from treecontract.sim import SimConfig

N = 1 << 10
SEED = 7
MODEL = ("rounds", "peak_machine_words", "total_words", "dht_reads",
         "dht_writes")


def _expression():
    terms, length, i = [], 0, 0
    while length < N:
        term = "(" + oracles.random_expression(SEED * 1000 + i,
                                               max_depth=5) + ")"
        terms.append(term)
        length += len(term) + 1
        i += 1
    return "+".join(terms)


# name -> (problem, epsilon, make_inputs); make_inputs returns the trees
# and the expression text, as the CLI hands them to a registry adapter
CASES = {
    "mwm": ("mwm", 0.5, lambda: ([oracles.with_edge_weights(
        oracles.random_tree(N, SEED), SEED)], None)),
    "mwis": ("mwis", 0.5, lambda: ([oracles.with_vertex_weights(
        oracles.caterpillar(N), SEED)], None)),
    "mis": ("mis", 0.5, lambda: ([oracles.random_tree(N, SEED + 1)], None)),
    "matching": ("matching", 0.5, lambda: ([oracles.broom(N)], None)),
    "height": ("height", 0.25, lambda: ([oracles.random_tree(N, SEED + 2)],
                                        None)),
    "sum": ("sum", 0.25, lambda: ([oracles.path(N)], None)),
    "eval": ("eval", 0.5, lambda: ([], _expression())),
}

GOLDEN = {
    "eval": {
        "rounds": 12, "peak_machine_words": 521, "total_words": 8689,
        "dht_reads": 649, "dht_writes": 128, "log_words": 8658,
        "log_sha256":
            "eec48b976dca422bce82cd22f63b537925c930ec3fe0579d846a99b4b2ce0a47",
        "answer_sha256":
            "e638fca512667951489f2214927307b319e402239327a760f6445a108a393c64"},
    "height": {
        "rounds": 25, "peak_machine_words": 90, "total_words": 11022,
        "dht_reads": 1432, "dht_writes": 566, "log_words": 10860,
        "log_sha256":
            "b644f9045054e60505ccfaa545409eda5adadfafa99c677b7387747b212961d9",
        "answer_sha256":
            "3fdba35f04dc8c462986c992bcf875546257113072a909c162f7e470e581e278"},
    "matching": {
        "rounds": 8, "peak_machine_words": 514, "total_words": 6592,
        "dht_reads": 1072, "dht_writes": 58, "log_words": 6562,
        "log_sha256":
            "c6f4c6c870dd46d3ab24238590e5df80e9a8c7f0afd97d7e2ff42ba5e4a0e29f",
        "answer_sha256":
            "35d8319ab2e3befbc3518577800ff94ee16bb18cef3a163b4acf7542aa0febd9"},
    "mis": {
        "rounds": 5, "peak_machine_words": 512, "total_words": 8490,
        "dht_reads": 1198, "dht_writes": 197, "log_words": 8463,
        "log_sha256":
            "9ae9380c7b3d29826f41a7da16f0bae0912532410a841c91a333b4eb5ba60e9a",
        "answer_sha256":
            "9e83f45de39d4a54c25c2d3489d2b360f59d4e7314c0d8aa1dc96dceb4b3431e"},
    "mwis": {
        "rounds": 10, "peak_machine_words": 452, "total_words": 19456,
        "dht_reads": 1155, "dht_writes": 186, "log_words": 19395,
        "log_sha256":
            "4ad49bb43c3d5cc2390f1db504331a025b6efdbd1e367438e22d2608e7a2a897",
        "answer_sha256":
            "f1241a65c837e6459b2221ac28d7893f04f4d6118fb4168648b12177b014b666"},
    "mwm": {
        "rounds": 11, "peak_machine_words": 512, "total_words": 14590,
        "dht_reads": 1266, "dht_writes": 278, "log_words": 14549,
        "log_sha256":
            "6856ea53fb7bf65ab596789c6db3994b7911b5fa04e7ecba7449a4b06a41069a",
        "answer_sha256":
            "85508e52fbf4c41db32f6773b137242cd8d0089146013bf3666acb6e9d34eb61"},
    "sum": {
        "rounds": 13, "peak_machine_words": 85, "total_words": 9311,
        "dht_reads": 1280, "dht_writes": 412, "log_words": 9151,
        "log_sha256":
            "d95f38c58c79472b26f3ffb7ae36499b502b9431d0f69ca1d46a8c1608854362",
        "answer_sha256":
            "e39eef82f61b21e2e7f762fcc4307358f165757f2e77ec855d6992f7e0191932"},
}

ISO_GOLDEN = {
    "rounds": 11, "peak_machine_words": 512, "total_words": 21050,
    "dht_reads": 2534, "dht_writes": 543, "verdict": True,
    "modulus": 326637205720375, "q_left": 38924579800711,
    "q_right": 38924579800711,
}


def _config(epsilon, trees, text):
    n = max(4, len(text)) if text is not None else max(t.n for t in trees)
    return SimConfig(epsilon=epsilon, n=n, seed=SEED)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """name -> (registry result, path of its saved log), each solved once."""
    cache = {}
    where = tmp_path_factory.mktemp("logs")

    def get(name):
        if name not in cache:
            problem, epsilon, make_inputs = CASES[name]
            trees, text = make_inputs()
            cfg = _config(epsilon, trees, text)
            result = REGISTRY[problem]["solve"](trees, text, cfg, SEED)
            path = where / ("%s.tclog" % name)
            result["log"].save(path)
            cache[name] = result, path
        return cache[name]

    return get


def fingerprint(result, path):
    fp = {key: result["metrics"][key] for key in MODEL}
    fp["log_words"] = result["log"].total_words
    fp["log_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
    fp["answer_sha256"] = hashlib.sha256(
        "\n".join(result["lines"]).encode()).hexdigest()
    return fp


def iso_fingerprint():
    left = oracles.random_tree(N, SEED)
    right = oracles.relabeled_copy(left, SEED)
    cfg = SimConfig(epsilon=0.5, n=N, seed=SEED)
    verdict, detail = iso.tree_isomorphism(left, right, cfg, seed=SEED)
    fp = {key: detail["metrics"][key] for key in MODEL}
    fp.update(verdict=verdict, modulus=detail["modulus"],
              q_left=detail["q_left"], q_right=detail["q_right"])
    return fp


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_solve(name, solved):
    assert fingerprint(*solved(name)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_log_round_trip(name, solved):
    # load() counts every record from scratch; the live log took the counts
    # its machines' writes returned
    result, path = solved(name)
    back = ContractionLog.load(path)
    assert back.total_words == result["log"].total_words
    again = path.with_name(path.name + ".again")
    back.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_golden_iso():
    assert iso_fingerprint() == ISO_GOLDEN

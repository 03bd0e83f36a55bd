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
        "rounds": 12, "peak_machine_words": 521, "total_words": 7036,
        "dht_reads": 649, "dht_writes": 124, "log_words": 7011,
        "log_sha256":
            "ada68e66cf17f22045b8d01d2c43fb50d301206e160f123c1018d6d4eb37b2ac",
        "answer_sha256":
            "e638fca512667951489f2214927307b319e402239327a760f6445a108a393c64"},
    "height": {
        "rounds": 22, "peak_machine_words": 91, "total_words": 8016,
        "dht_reads": 1419, "dht_writes": 515, "log_words": 7894,
        "log_sha256":
            "6f111955ec02b2e2d9067efd9bffdf83fe8fbf2b5f0a5da9d5faf0a98ec9b0c8",
        "answer_sha256":
            "3fdba35f04dc8c462986c992bcf875546257113072a909c162f7e470e581e278"},
    "matching": {
        "rounds": 8, "peak_machine_words": 396, "total_words": 4422,
        "dht_reads": 1072, "dht_writes": 50, "log_words": 4402,
        "log_sha256":
            "6e4a9652b4099fcc04db030436c36bd993f9dd25f9d6af75d555ff0a146e5e7d",
        "answer_sha256":
            "35d8319ab2e3befbc3518577800ff94ee16bb18cef3a163b4acf7542aa0febd9"},
    "mis": {
        "rounds": 5, "peak_machine_words": 512, "total_words": 5817,
        "dht_reads": 1198, "dht_writes": 192, "log_words": 5797,
        "log_sha256":
            "2b1515d9fbed0dd851fd8c7319e3ae6cb111c96e15fad50f5bd99d6a4376b0e9",
        "answer_sha256":
            "9e83f45de39d4a54c25c2d3489d2b360f59d4e7314c0d8aa1dc96dceb4b3431e"},
    "mwis": {
        "rounds": 10, "peak_machine_words": 512, "total_words": 15676,
        "dht_reads": 1155, "dht_writes": 169, "log_words": 15634,
        "log_sha256":
            "5db83edb85baf04f54b35aaa2918e01562aafd24de1e49b89294f3bc85595954",
        "answer_sha256":
            "f1241a65c837e6459b2221ac28d7893f04f4d6118fb4168648b12177b014b666"},
    "mwm": {
        "rounds": 11, "peak_machine_words": 512, "total_words": 11754,
        "dht_reads": 1266, "dht_writes": 272, "log_words": 11721,
        "log_sha256":
            "034c1709ddd77c81f955748b35e60c433bdd56323fbc2bb3dd12881f8ebbfa68",
        "answer_sha256":
            "85508e52fbf4c41db32f6773b137242cd8d0089146013bf3666acb6e9d34eb61"},
    "sum": {
        "rounds": 13, "peak_machine_words": 86, "total_words": 6473,
        "dht_reads": 1280, "dht_writes": 387, "log_words": 6340,
        "log_sha256":
            "200bfd22ba2a898014965b9278e68c0fde18cfc6520699241be50e45d27acc94",
        "answer_sha256":
            "e39eef82f61b21e2e7f762fcc4307358f165757f2e77ec855d6992f7e0191932"},
}

ISO_GOLDEN = {
    "rounds": 9, "peak_machine_words": 512, "total_words": 15195,
    "dht_reads": 2514, "dht_writes": 508, "verdict": True,
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

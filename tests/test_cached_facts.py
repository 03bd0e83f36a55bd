"""Facts the engine keeps instead of recomputing must equal recomputation.

The host tells a payload's pending slots by the input tree's parent map (a
live child u of v is a slot of v's payload iff origin[u] != v), the
simulator's table holds each value beside its word count, and a machine's
LOG entry is counted from the words its records' payload reads were charged
plus each record's header.
Every problem runs here at n = 2^9 with checks swapped in: each count a
writer passes to `_Ctx.write` must equal `word_count` of the value, before
each `_comp_spec` the slots the origin rule gives each member must equal
the slot ids of its payload in the store, after every round each table
entry must be a (value, words) pair whose words equal `word_count` of the
value, and the host's books must equal what the live payloads in the store
give when walked again. While a general phase's nested runs are live, each
vertex is walked against the tree that owns it that round: a member of a
nested slice after its slice's apply, every other vertex after the main
tree's apply.
"""

import pytest

from treecontract import engine, oracles, sim, trees as treemod
from treecontract.problems import REGISTRY, iso
from treecontract.sim import SimConfig
from treecontract.trees import word_count
from reference import payload_slot_ids

N = 1 << 9
SEED = 5


def _slot_nodes(rnode):
    """Slot nodes of a residual tree, counted with multiplicity, found by
    walking every node of it."""
    if len(rnode) == 2:
        return 1
    return sum(_slot_nodes(kid) for kid in rnode[2])


def _origin_slots(tree, books, v):
    """The children of v that the origin rule calls slots of v's payload."""
    return [u for u in tree.children[v] if books.origin[u] != v]


def _expression():
    terms, length, i = [], 0, 0
    while length < N:
        term = "(" + oracles.random_expression(SEED * 1000 + i,
                                               max_depth=5) + ")"
        terms.append(term)
        length += len(term) + 1
        i += 1
    return "+".join(terms)


# name -> (problem, epsilon, make_inputs, endings of record labels the run
# must produce: nested bounded runs, sibling fold levels, leaf rakes, the
# final machine); a (kind, ending) pair asks for a record of that kind
CASES = {
    "mwm": ("mwm", 0.5, lambda: ([oracles.with_edge_weights(
        oracles.random_tree(N, SEED), SEED)], None),
        ("phase 1 phase 1 compress",)),
    "mwm_broom": ("mwm", 0.5, lambda: ([oracles.with_edge_weights(
        oracles.broom(N), SEED)], None),
        (("sibling", " rake L1"), ("connected", " rake L2"),
         "phase 2 phase 1 compress")),
    # the last sibling level's survivors are raked with their parent
    "mwis": ("mwis", 0.5, lambda: ([oracles.with_vertex_weights(
        oracles.star(N), SEED)], None),
        (("sibling", " rake L1"), ("connected", " rake L2"))),
    # lambda = 2 at this small S, and runs are nested
    "mwis_caterpillar": ("mwis", 0.15, lambda: ([oracles.with_vertex_weights(
        oracles.caterpillar(N), SEED)], None), ("phase 1 phase 1 compress",)),
    "mis": ("mis", 0.5, lambda: ([oracles.random_tree(N, SEED)], None),
            ("phase 1 compress",)),
    "matching": ("matching", 0.5, lambda: ([oracles.broom(N)], None),
                 ("phase 1 rake",)),
    "height": ("height", 0.25, lambda: ([oracles.random_tree(N, SEED)],
                                        None),
               ("final", " rake L1", "phase 1 phase 1 compress")),
    "height_star": ("height", 0.25, lambda: ([oracles.star(N)], None),
                    (" rake L2",)),
    "sum_path": ("sum", 0.25, lambda: ([oracles.path(N)], None),
                 ("phase 1 phase 1 compress",)),
    "eval": ("eval", 0.5, lambda: ([], _expression()), ("phase 1 rake",)),
}


@pytest.fixture
def checked(monkeypatch):
    """Swaps the checks in; returns the tally of what they saw."""
    seen = {"given": 0, "books": 0, "specs": 0, "rounds": 0}
    store = {}  # "generation": the current run's simulator store
    slices = []  # (tree sliced, members) of every nested run
    write = sim._Ctx.write

    def checked_write(ctx, key, value, words=None):
        if words is not None:
            assert words == word_count(value), key
            # the one write given its count is a machine's LOG entry, the
            # tuple of its records
            seen["given"] += len(value)
        return write(ctx, key, value, words)

    fresh_run = engine._fresh_run

    def recorded_fresh_run(tree, plugin, sim_):
        store["generation"] = sim_.generation
        return fresh_run(tree, plugin, sim_)

    run_round = sim.Simulator.run_round

    def checked_run_round(sim_, machines):
        assert run_round(sim_, machines) is None
        for key, entry in sim_.generation.items():
            assert type(entry) is tuple and len(entry) == 2, key
            assert entry[1] == word_count(entry[0]), key
        seen["rounds"] += 1

    comp_spec = engine._comp_spec

    def checked_comp_spec(tree, members, books, stage, root_outs_known=True):
        generation = store["generation"]
        for m in members:
            payload = generation[m][0]
            slots = _origin_slots(tree, books, m)
            assert set(slots) == payload_slot_ids(payload), m
            assert len(slots) == _slot_nodes(payload), m
        seen["specs"] += 1
        return comp_spec(tree, members, books, stage, root_outs_known)

    tree_slice = treemod.Tree.slice

    def recorded_slice(tree, members, root):
        slices.append((tree, members))
        return tree_slice(tree, members, root)

    apply_results = engine._apply_results

    def checked_apply(tree, books, plans):
        apply_results(tree, books, plans)
        generation = store["generation"]
        with pytest.raises(TypeError):
            books.table[tree.root] = None
        # a slice is live until its tree contracts its members into one
        sliced = {m for source, members in slices
                  if source is tree and members[1] in tree.parent
                  for m in members}
        for v in tree.vertices():
            if v in sliced:
                continue
            payload = generation[v][0]
            assert books.table[v] is generation[v], v
            slots = _origin_slots(tree, books, v)
            assert set(slots) == payload_slot_ids(payload), v
            assert len(slots) == _slot_nodes(payload), v
        seen["books"] += 1

    monkeypatch.setattr(sim._Ctx, "write", checked_write)
    monkeypatch.setattr(sim.Simulator, "run_round", checked_run_round)
    monkeypatch.setattr(engine, "_fresh_run", recorded_fresh_run)
    monkeypatch.setattr(engine, "_comp_spec", checked_comp_spec)
    monkeypatch.setattr(engine, "_apply_results", checked_apply)
    monkeypatch.setattr(treemod.Tree, "slice", recorded_slice)
    return seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_kept_facts_match_recomputation(checked, name):
    problem, epsilon, make_inputs, labels = CASES[name]
    trees, text = make_inputs()
    n = max(4, len(text)) if text is not None else trees[0].n
    cfg = SimConfig(epsilon=epsilon, n=n, seed=SEED)
    result = REGISTRY[problem]["solve"](trees, text, cfg, SEED)
    log = result["log"]
    assert log.total_words == sum(word_count(rec)
                                  for rec in log.records)
    assert checked["given"] == len(log.records)
    assert checked["books"] > 0 and checked["specs"] > 0
    assert checked["rounds"] > 0
    # the run went through the path this case is here for
    for label in labels:
        kind, ending = label if type(label) is tuple else (None, label)
        assert any(rec.label.endswith(ending) and kind in (None, rec.kind)
                   for rec in log.records), label
    ok = REGISTRY[problem]["check"](trees, text, result)[2]
    assert ok


def test_kept_facts_match_recomputation_iso(checked):
    t1 = oracles.random_tree(N, SEED)
    t2 = oracles.relabeled_copy(t1, SEED)
    cfg = SimConfig(epsilon=0.5, n=N, seed=SEED)
    verdict, _detail = iso.tree_isomorphism(t1, t2, cfg, seed=SEED)
    assert verdict
    assert checked["given"] > 0 and checked["books"] > 0
    assert checked["rounds"] > 0

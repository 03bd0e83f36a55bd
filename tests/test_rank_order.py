"""The engine plans in the work tree's key order: it keeps no rank map.

`_fresh_run` keys the work tree in preorder, and a run only deletes keys,
so the key order must stay the rank order. Every planning step reads that
order as it is: `decompose` takes `tree.vertices()` as its preorder,
`group_components` and `low_degree_components` hand out members in key
order, and a nested bounded run's slice is keyed by those members. Every
problem runs here at n = 2^9 with `_apply_results` wrapped: after every
round, the vertices of the tree the round was applied to (the work tree or
a slice) must be in the preorder rank order of the run's fresh work tree,
recomputed here with `preorder_number`.
"""

import pytest

from treecontract import engine, oracles
from treecontract.engine import bounded_tree_contract
from treecontract.errors import InputError, SimFault
from treecontract.problems import REGISTRY, iso, lifted
from treecontract.sim import SimConfig
from treecontract.trees import Tree, preorder_number

N = 1 << 9
SEED = 7


def _expression():
    terms, length, i = [], 0, 0
    while length < N:
        term = "(" + oracles.random_expression(SEED * 1000 + i,
                                               max_depth=5) + ")"
        terms.append(term)
        length += len(term) + 1
        i += 1
    return "+".join(terms)


# name -> (problem, epsilon, make_inputs, whether the run has nested
# bounded runs on slices)
CASES = {
    "mwm": ("mwm", 0.5, lambda: ([oracles.with_edge_weights(
        oracles.random_tree(N, SEED), SEED)], None), True),
    "mwm_broom": ("mwm", 0.5, lambda: ([oracles.with_edge_weights(
        oracles.broom(N), SEED)], None), True),
    "mwis": ("mwis", 0.5, lambda: ([oracles.with_vertex_weights(
        oracles.caterpillar(N), SEED)], None), True),
    "mis": ("mis", 0.5, lambda: ([oracles.random_tree(N, SEED)], None),
            False),
    "matching": ("matching", 0.5, lambda: ([oracles.broom(N)], None), False),
    "height": ("height", 0.25, lambda: ([oracles.random_tree(N, SEED)],
                                        None), True),
    "height_star": ("height", 0.25, lambda: ([oracles.star(N)], None),
                    False),
    "sum_path": ("sum", 0.25, lambda: ([oracles.path(N)], None), True),
    "eval": ("eval", 0.5, lambda: ([], _expression()), False),
}


@pytest.fixture
def checked(monkeypatch):
    """Swaps the check in; returns the tally of trees it saw. Runs side by
    side interleave their rounds, so each work tree keeps its own ranks."""
    seen = {"work": 0, "slices": 0, "runs": 0}
    ranks = {}  # id of a run's work tree -> (the tree, its ranks)
    fresh_run = engine._fresh_run

    def recorded_fresh_run(tree, plugin, sim):
        work, books = fresh_run(tree, plugin, sim)
        rank = preorder_number(work)
        assert rank == preorder_number(tree)
        assert list(work.vertices()) == sorted(work.vertices(),
                                               key=rank.__getitem__)
        ranks[id(work)] = work, rank
        seen["runs"] += 1
        return work, books

    apply_results = engine._apply_results

    def checked_apply(tree, books, plans):
        apply_results(tree, books, plans)
        if id(tree) in ranks:
            rank = ranks[id(tree)][1]
            seen["work"] += 1
        else:
            # a slice: ranked by the run whose work tree holds its root
            rank = next(r for w, r in ranks.values() if tree.root in w.parent)
            seen["slices"] += 1
        got = [rank[v] for v in tree.vertices()]
        assert got == sorted(got)

    monkeypatch.setattr(engine, "_fresh_run", recorded_fresh_run)
    monkeypatch.setattr(engine, "_apply_results", checked_apply)
    return seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_key_order_stays_rank_order(checked, name):
    problem, epsilon, make_inputs, nested = CASES[name]
    trees, text = make_inputs()
    n = max(4, len(text)) if text is not None else trees[0].n
    cfg = SimConfig(epsilon=epsilon, n=n, seed=SEED)
    result = REGISTRY[problem]["solve"](trees, text, cfg, SEED)
    assert REGISTRY[problem]["check"](trees, text, result)[2]
    assert checked["work"] > 0
    assert (checked["slices"] > 0) == nested


def test_key_order_stays_rank_order_iso(checked):
    t1 = oracles.random_tree(N, SEED)
    t2 = oracles.relabeled_copy(t1, SEED)
    verdict, _detail = iso.tree_isomorphism(
        t1, t2, SimConfig(epsilon=0.5, n=N, seed=SEED), seed=SEED)
    assert verdict
    assert checked["work"] > 0
    assert checked["runs"] == 2  # one polynomial run per tree


# ---------------------------------------------------------------------------
# seeding faults are met in preorder, not in the order of the parent map

class _Fat(engine.Algebra):
    name = "fat"

    def init_data(self, tree, v):
        return tuple(range(20))

    def fresh_edge(self, tree, v):
        return None


def _unordered_tree():
    """Root 1 with children 3 then 2, each with `legs` leaves: the parent
    map lists 2's leaves before 3's, preorder meets 3's first."""
    legs = 40
    parent = {1: None, 3: 1, 2: 1}
    for hub in (2, 3):
        for i in range(legs):
            parent[4 + (hub - 2) * legs + i] = hub
    return Tree(1, parent)


def test_payload_faults_are_reported_in_preorder():
    t = _unordered_tree()
    cfg = SimConfig(epsilon=0.5, n=t.n, C_w=16, strict=False)
    sim = engine.run_simulator(_Fat(), cfg, t.n)
    engine._fresh_run(t, _Fat(), sim)
    named = [int(msg.split(":")[0].split()[1]) for msg in sim.violations]
    assert named == list(preorder_number(t))
    assert named[:3] == [1, 3, 44]
    with pytest.raises(SimFault, match="^vertex 1: payload of 21 words"):
        engine._fresh_run(t, _Fat(), engine.run_simulator(
            _Fat(), cfg.replaced(strict=True), t.n))


def test_first_over_degree_vertex_in_preorder():
    t = _unordered_tree()
    for v in t.vertices():
        t.attrs[v]["val"] = 1
    plugin = lifted.sum_plugin()
    cfg = SimConfig(epsilon=0.5, n=t.n)
    assert engine.degree_budget(cfg.replaced(C_w=plugin.C_w)) < 40
    with pytest.raises(InputError, match="^vertex 3 has degree 40 "):
        bounded_tree_contract(t, plugin, cfg)

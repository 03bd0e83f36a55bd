"""Contraction engine: both algorithms, lifting, the log, reconstruction."""

import functools
import gc
import os
import re
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treecontract import engine, log as logmod, sim as simmod
from treecontract.engine import (
    Algebra,
    bounded_tree_contract,
    contract_component,
    contract_side_by_side,
    degree_budget,
    lift_unary,
    sibling_batch,
    run_simulator,
    tree_contract,
    two_contraction_reference,
)
from treecontract.log import (
    LOG_MAGIC,
    ContractionLog,
    Record,
    _compose,
    _dec_obj,
    _enc_obj,
    reconstruct,
)
from treecontract import oracles
from treecontract.errors import InputError, LogIntegrityError, SimFault
from treecontract.oracles import (
    all_shapes,
    broom,
    caterpillar,
    complete_kary,
    path,
    random_tree,
    star,
    with_edge_weights,
)
from treecontract.problems.exprs import EvalAlgebra
from treecontract.problems.indep import MisbAlgebra, MwisAlgebra
from treecontract.problems.iso import HeightAlgebra, IsoAlgebra
from treecontract.problems.matching import MwmAlgebra, mwm_solve
from treecontract.problems import REGISTRY, exprs, indep, iso, lifted, matching
from treecontract.sim import Machine, SimConfig, Simulator
from treecontract.trees import Tree, word_count
from reference import payload_slot_ids


def add(a, b):
    return a + b


def initial_payload(plugin, tree, v):
    return (plugin.fresh_edge(tree, v), plugin.init_data(tree, v), ())


def sum_plugin():
    return lift_unary(add, add, name="sum")


def valued(tree, fn=lambda v: 1):
    for v in tree.vertices():
        tree.attrs[v]["val"] = fn(v)
    return tree


def subtree_sums(tree):
    vals = {v: tree.attrs[v]["val"] for v in tree.vertices()}
    for v in reversed(list(tree.preorder())):
        p = tree.parent[v]
        if p is not None:
            vals[p] += vals[v]
    return vals


def max_phase(log):
    hit = 0
    for rec in log.records:
        for m in re.finditer(r"phase (\d+)", rec.label):
            hit = max(hit, int(m.group(1)))
    return hit


def cfg(n, epsilon=0.5, **kw):
    return SimConfig(epsilon=epsilon, n=n, **kw)


def hairy_caterpillar(n, legs):
    """A spine of n // (legs + 1) vertices, the other vertices dealt onto it
    round-robin as legs, so each spine vertex has about `legs` of them."""
    k = max(1, n // (legs + 1))
    parent = {v: (v - 1 if v > 1 else None) for v in range(1, k + 1)}
    for i, v in enumerate(range(k + 1, n + 1)):
        parent[v] = i % k + 1
    return Tree(1, parent)


def two_tails(tails, hub_leaves=40):
    """A hub with `hub_leaves` leaves and one path per entry of `tails`
    (that many vertices), in that order; every value is 1."""
    parent = {1: None}
    nxt = 2
    for _ in range(hub_leaves):
        parent[nxt] = 1
        nxt += 1
    for length in tails:
        parent[nxt] = 1
        nxt += 1
        for _ in range(length - 1):
            parent[nxt] = nxt - 1
            nxt += 1
    return valued(Tree(1, parent))


class Keeper(Algebra):
    """Unary data with no chain and no merge_chain: the local rules absorb
    leaves and keep every other vertex."""

    name = "keeper"

    def init_data(self, tree, v):
        return 1

    def fresh_edge(self, tree, v):
        return None

    def node_value(self, data):
        return data

    def through_edge(self, value, edge):
        return value

    def absorb(self, data, contribution):
        return data + contribution


class TestKnobs:
    def test_degree_budget(self):
        # lambda = S // (2 C_w), floored at 2
        assert degree_budget(cfg(16, C_w=8)) == 4
        assert degree_budget(cfg(16, C_w=16)) == 2
        assert degree_budget(cfg(4096, epsilon=0.5, C_w=16)) == 32

    def test_sibling_batch(self):
        assert sibling_batch(cfg(16)) == 4
        assert sibling_batch(cfg(256, epsilon=0.25)) == 4


class TestComponentContraction:
    def test_single_vertex_is_identity(self):
        plugin = sum_plugin()
        t = valued(path(1), lambda v: 9)
        payload = initial_payload(plugin, t, 1)
        out = contract_component(plugin, (1,), (None,), ((),), (payload,))
        assert out == payload

    def test_chain_residual_is_single_stub(self):
        # five known vertices in a chain, one pending child below: the local
        # sweep must merge everything into the top and leave one slot
        plugin = sum_plugin()
        t = valued(path(5), lambda v: v)
        payloads = tuple(initial_payload(plugin, t, v) for v in range(1, 6))
        parents = (None, 1, 2, 3, 4)
        outs = ((), (), (), (), (6,))
        out = contract_component(plugin, (1, 2, 3, 4, 5), parents, outs,
                                 payloads)
        assert out == (None, 15, ((None, 6),))

    @pytest.mark.parametrize("keep", [False, True])
    def test_long_path_component_needs_no_deep_recursion(self, keep):
        # 5000 members in a chain, one pending child below the last; with
        # every rule declined the survivor payload nests 5000 deep
        n = 5000
        plugin = Keeper() if keep else sum_plugin()
        members = tuple(range(1, n + 1))
        # each member's data is its id, so the nesting order shows
        payloads = tuple((None, v, ()) for v in members)
        parents = (None,) + members[:-1]
        outs = ((),) * (n - 1) + ((n + 1,),)
        out = contract_component(plugin, members, parents, outs, payloads)
        if not keep:
            assert out == (None, n * (n + 1) // 2, ((None, n + 1),))
            return
        node, depth = out, 1
        while len(node) == 3:
            assert node[1] == depth and len(node[2]) == 1
            node, depth = node[2][0], depth + 1
        assert node == (None, n + 1) and depth == n + 1

    def test_leaf_star_folds_pairwise(self):
        calls = []

        def r1(a, b):
            calls.append((a, b))
            return a + b

        plugin = lift_unary(add, r1)
        data, edge = plugin.sibling_fold([1, 2, 3, 4])
        assert data == 10 and edge is None
        assert len(calls) == 3


class TestBounded:
    def test_single_vertex(self):
        t = valued(path(1), lambda v: 7)
        answer, log, metrics = bounded_tree_contract(t, sum_plugin(), cfg(1))
        assert answer == 7
        assert metrics["rounds"] == 0
        assert log.records == []
        assert reconstruct(log, sum_plugin()) == {1: 7}

    def test_path16_counts_in_two_phases(self):
        # at epsilon 1/2 a path of 16 fits S after phase 1's compress and
        # ends in a final round; at 1/3 it needs a second phase first
        t = valued(path(16))
        answer, log, metrics = bounded_tree_contract(
            t, sum_plugin(), cfg(16, epsilon=1 / 3))
        assert answer == 16
        assert max_phase(log) == 2
        assert log.records[-1].label == "final"
        assert metrics["violations"] == []
        assert metrics["rounds"] <= 6 * 2 * 2

    def test_high_degree_is_rejected(self):
        t = valued(star(64))
        with pytest.raises(InputError, match="general"):
            bounded_tree_contract(t, sum_plugin(), cfg(64))

    def test_phase_cap_faults(self, monkeypatch):
        # lambda bottoms out at 2, so a long path cannot finish in 2 phases
        t = valued(path(256))
        monkeypatch.setattr(simmod, "C_S", 1)
        monkeypatch.setattr(simmod, "C_P", 1)
        c = cfg(256)
        with pytest.raises(SimFault, match="cap"):
            bounded_tree_contract(t, sum_plugin(), c)

    def test_leaf_count_law(self):
        # after each phase the survivor count is at most the group count;
        # the engine asserts this internally, so a clean run is the check
        for n in (31, 64, 100):
            t = valued(random_tree(n, seed=n))
            lam = degree_budget(cfg(n))
            if max(t.deg(v) for v in t.vertices()) > lam:
                continue
            answer, _log, metrics = bounded_tree_contract(
                t, sum_plugin(), cfg(n))
            assert answer == n
            assert metrics["violations"] == []


class TestBoundedCompressPacking:
    """The bounded compress packs its plans, like every round's, into
    machines of S words, whatever group each plan comes from."""

    @pytest.mark.parametrize("make, epsilon", [
        (path, 0.25), (caterpillar, 0.5)])
    def test_machines_carry_several_plans_across_groups(self, monkeypatch,
                                                        make, epsilon):
        t = valued(make(1 << 10))
        c = cfg(t.n, epsilon=epsilon)
        machine, group_components = engine._machine, engine.group_components
        given, group_of, packed = [], {}, []

        def spied_groups(tree, dec):
            comps = group_components(tree, dec)
            for gi, comp in comps:
                if len(comp) > 1:
                    given.append(comp)
                    group_of[comp[0]] = (len(given), gi)
            return comps

        def spied_machine(plugin, plans):
            built = machine(plugin, plans)
            run = built.run

            def recorded_run(ctx):
                run(ctx)
                if plans[0].label.endswith(" compress"):
                    packed.append((
                        [group_of[plan.members[0]] for plan in plans],
                        built.input_words + ctx.read_words))

            built.run = recorded_run
            return built

        monkeypatch.setattr(engine, "group_components", spied_groups)
        monkeypatch.setattr(engine, "_machine", spied_machine)
        answer, log, metrics = bounded_tree_contract(t, sum_plugin(), c)
        assert answer == t.n and metrics["violations"] == []
        compressed = [rec.members for rec in log.records
                      if rec.label.endswith(" compress")]
        assert sorted(compressed) == sorted(given)
        assert len(set(compressed)) == len(compressed)
        several = [(plans, words) for plans, words in packed if len(plans) > 1]
        assert several and all(words <= c.S for _plans, words in several)
        assert any(len({gi for _i, gi in plans}) > 1 for plans, _ in several)


GATE_FAMILIES = {
    "path": path,
    "star": star,
    "caterpillar": caterpillar,
    "broom": broom,
    "random": lambda n: random_tree(n, seed=n),
}


class TestFinal:
    """Both algorithms finish a run or a nested slice with one final round
    once its whole tree fits S, and only then."""

    @pytest.mark.parametrize("epsilon", [0.5, 0.25])
    @pytest.mark.parametrize("n", [30, 300, 2000])
    @pytest.mark.parametrize("family", sorted(GATE_FAMILIES))
    @pytest.mark.parametrize("problem", ["height", "sum", "mwm"])
    def test_a_run_ends_in_its_only_final(self, monkeypatch, problem, family,
                                          n, epsilon):
        final, bounded = engine._final, engine._bounded_units
        round_ = engine._round
        space, bounded_trees, rounds_of = {}, [], {}

        def spied_final(tree, plugin, cfg, books, stage):
            space[id(tree)] = cfg.S
            return final(tree, plugin, cfg, books, stage)

        def spied_bounded(tree, plugin, cfg, books, prefix=""):
            bounded_trees.append(tree)  # held, so no two share an id
            return bounded(tree, plugin, cfg, books, prefix)

        def spied_round(tree, plugin, cfg, books, plans, sizes):
            label = plans[0].label if plans else ""
            if (re.fullmatch(r"(phase \d+ )+(compress|rake)", label)
                    and any(tree is t for t in bounded_trees)):
                # the live tree's all-vertex plan does not fit S
                whole = engine._comp_spec(tree, tuple(tree.vertices()),
                                          books, "probe")
                assert (4 * tree.n > space[id(tree)]
                        or engine._estimate(books.table, whole)
                        > space[id(tree)]), (label, tree.n)
            if plans:
                rounds_of.setdefault(id(tree), (tree, []))[1].append(label)
            yield from round_(tree, plugin, cfg, books, plans, sizes)

        monkeypatch.setattr(engine, "_final", spied_final)
        monkeypatch.setattr(engine, "_bounded_units", spied_bounded)
        monkeypatch.setattr(engine, "_round", spied_round)
        tree = GATE_FAMILIES[family](n)
        if problem == "mwm":
            tree = with_edge_weights(tree, 7)
        result = REGISTRY[problem]["solve"](
            [tree], None, cfg(tree.n, epsilon=epsilon, seed=7), 7)
        assert REGISTRY[problem]["check"]([tree], None, result)[2]
        finals = [rec for rec in result["log"].records
                  if re.fullmatch(r"(phase \d+ )?final", rec.label)]
        assert all(len(rec.members) >= 2 for rec in finals)
        for _tree, labels in rounds_of.values():
            ends = [i for i, label in enumerate(labels)
                    if label.endswith("final")]
            assert ends in ([], [len(labels) - 1]), labels

    @pytest.mark.parametrize("problem, make, epsilon", [
        ("height", lambda: random_tree(2000, 2000), 0.25),
        ("mwm", lambda: with_edge_weights(caterpillar(300), 7), 0.5),
    ])
    def test_every_final_plan_built_runs(self, monkeypatch, problem, make,
                                         epsilon):
        # _final sizes the all-vertex plan before it builds it, so every
        # final plan built is one that fits and runs
        comp_spec, built = engine._comp_spec, []

        def spied(tree, members, books, stage, root_outs_known=True):
            if re.fullmatch(r"(phase \d+ )?final", stage):
                built.append((stage, tuple(members)))
            return comp_spec(tree, members, books, stage, root_outs_known)

        monkeypatch.setattr(engine, "_comp_spec", spied)
        tree = make()
        result = REGISTRY[problem]["solve"](
            [tree], None, cfg(tree.n, epsilon=epsilon, seed=7), 7)
        assert REGISTRY[problem]["check"]([tree], None, result)[2]
        ran = [(rec.label, rec.members) for rec in result["log"].records
               if re.fullmatch(r"(phase \d+ )?final", rec.label)]
        assert built and sorted(built) == sorted(ran)


def _round_labels(monkeypatch):
    """The set of machine labels of each round run from now on, in round
    order."""
    rounds = []
    run_round = Simulator.run_round

    def spied(sim_, machines):
        rounds.append({m.label for m in machines})
        return run_round(sim_, machines)

    monkeypatch.setattr(Simulator, "run_round", spied)
    return rounds


class TestGeneral:
    def test_tiny_tree_contracts_in_one_final_round(self):
        t = valued(path(4))
        answer, log, metrics = tree_contract(t, sum_plugin(), cfg(4))
        assert answer == 4
        assert metrics["rounds"] == 1
        assert [rec.label for rec in log.records] == ["final"]

    def test_star16_single_phase(self):
        # 15 leaves, batch width 4: one sibling level, then the root is
        # raked with the level's four survivors
        t = valued(star(16))
        answer, log, metrics = tree_contract(t, sum_plugin(), cfg(16))
        assert answer == 16
        assert max_phase(log) == 1
        levels = {(rec.label, rec.kind) for rec in log.records
                  if "rake" in rec.label}
        assert levels == {("phase 1 rake L1", "sibling"),
                          ("phase 1 rake L2", "connected")}
        assert metrics["violations"] == []

    def test_low_degree_tree_equals_bounded_plus_connectivity(self):
        for make in (path, caterpillar):
            t = valued(make(64))
            c = cfg(64)
            a1, log1, m1 = bounded_tree_contract(t, sum_plugin(), c)
            a2, log2, m2 = tree_contract(t, sum_plugin(), c)
            assert a1 == a2 == 64
            # the general run's connectivity rounds also number the tree in
            # preorder, so its nested run relabels instead
            assert m2["rounds"] == m1["rounds"] + 1

    def test_nested_runs_share_rounds(self):
        # two oversized low-degree tails hang under one high-degree hub;
        # their bounded runs must interleave into common rounds
        t = two_tails([60, 60])
        n = t.n
        answer, log, metrics = tree_contract(t, sum_plugin(),
                                             cfg(n, epsilon=1 / 3))
        assert answer == n
        assert any(rec.label.startswith("phase 1 phase")
                   for rec in log.records)
        assert metrics["violations"] == []
        assert reconstruct(log, sum_plugin()) == subtree_sums(t)

    def test_compress_plans_are_built_only_where_they_can_fit(self,
                                                             monkeypatch):
        # a plan holds 4 words a member, so a component of over S/4 members
        # goes to a nested run without one being built for it
        t = two_tails([60, 5, 5])
        c = cfg(t.n, epsilon=1 / 3)
        sizes = []
        comp_spec = engine._comp_spec

        def spied(tree, members, books, stage, root_outs_known=True):
            if re.fullmatch(r"phase \d+ compress", stage):
                sizes.append(len(members))
            return comp_spec(tree, members, books, stage, root_outs_known)

        monkeypatch.setattr(engine, "_comp_spec", spied)
        answer, log, metrics = tree_contract(t, sum_plugin(), c)
        assert answer == t.n and metrics["violations"] == []
        assert sizes and all(4 * k <= c.S for k in sizes)
        assert 4 * 60 > c.S
        assert any(rec.label.startswith("phase 1 phase")
                   for rec in log.records)

    @pytest.mark.parametrize("n, epsilon, seed", [
        (256, 1 / 4, 1), (512, 1 / 3, 5)])
    def test_compress_plans_are_built_only_where_estimate_fits(
            self, monkeypatch, n, epsilon, seed):
        # components of at most S/4 members whose payloads put them over S
        # go to a nested run without a plan being built for them, and each
        # plan is sized once
        t = random_tree(n, seed)
        c = cfg(t.n, epsilon=epsilon)
        estimates, sized = [], []
        estimate, comp_spec = engine._estimate, engine._comp_spec

        def spied(table, plan):
            sized.append(plan)  # held, so no two live plans share an id
            return estimate(table, plan)

        def spied_spec(tree, members, books, stage, root_outs_known=True):
            plan = comp_spec(tree, members, books, stage, root_outs_known)
            if re.fullmatch(r"phase \d+ compress", stage):
                estimates.append(estimate(books.table, plan))
            return plan

        monkeypatch.setattr(engine, "_estimate", spied)
        monkeypatch.setattr(engine, "_comp_spec", spied_spec)
        _answer, log, metrics = tree_contract(t, HeightAlgebra(), c)
        assert metrics["violations"] == []
        assert reconstruct(log, HeightAlgebra()) == oracles.height_table(t)
        assert estimates and max(estimates) <= c.S
        assert len({id(plan) for plan in sized}) == len(sized)
        assert any(rec.label.startswith("phase 1 phase")
                   for rec in log.records)

    @pytest.mark.parametrize("problem, make, epsilon", [
        ("mwm", lambda: with_edge_weights(broom(1 << 10), 3), 0.5),
        ("height", lambda: star(1 << 10), 0.5),
        ("sum", lambda: two_tails([60, 5, 5]), 1 / 3),
        ("mwis", lambda: oracles.with_vertex_weights(broom(1 << 10), 3),
         0.25),
    ])
    def test_main_tree_holds_no_pending_slot(self, monkeypatch, problem,
                                             make, epsilon):
        # the general algorithm contracts fringe components, which are
        # closed below, leaf rakes, sibling batches and whole nested slices,
        # so no vertex of its main work tree ever adopts a child: every
        # live vertex keeps its input parent and no plan there has outs
        general, round_ = engine._general_units, engine._round
        mains, labels = [], []

        def spied_general(tree, plugin, cfg, books):
            mains.append(tree)
            return general(tree, plugin, cfg, books)

        def spied_round(tree, plugin, cfg, books, plans, sizes):
            yield from round_(tree, plugin, cfg, books, plans, sizes)
            if any(tree is main for main in mains):
                if plans:
                    labels.append(plans[0].label)
                assert all(not any(plan.outs) for plan in plans
                           if plan.kind == "connected")
                assert all(books.origin[u] == tree.parent[u]
                           for u in tree.vertices())

        monkeypatch.setattr(engine, "_general_units", spied_general)
        monkeypatch.setattr(engine, "_round", spied_round)
        tree = make()
        result = REGISTRY[problem]["solve"](
            [tree], None, cfg(tree.n, epsilon=epsilon, seed=3), 3)
        assert REGISTRY[problem]["check"]([tree], None, result)[2]
        assert mains and labels

    def test_direct_compress_shares_the_nested_runs_first_round(
            self, monkeypatch):
        # the 5-vertex tails fit a machine and are compressed directly; the
        # 60-vertex tail runs nested, and its first compress round is theirs
        rounds = _round_labels(monkeypatch)
        t = two_tails([60, 5, 5])
        answer, log, metrics = tree_contract(t, sum_plugin(),
                                             cfg(t.n, epsilon=1 / 3))
        assert answer == t.n and metrics["violations"] == []
        assert {"phase 1 compress", "phase 1 phase 1 compress"} in rounds
        assert reconstruct(log, sum_plugin()) == subtree_sums(t)

    @staticmethod
    def _solve_general(problem, family, epsilon, n=2000):
        tree = GATE_FAMILIES[family](n)
        if problem == "mwm":
            tree = with_edge_weights(tree, 7)
        elif problem == "mwis":
            tree = oracles.with_vertex_weights(tree, 7)
        result = REGISTRY[problem]["solve"](
            [tree], None, cfg(tree.n, epsilon=epsilon, seed=7), 7)
        assert REGISTRY[problem]["check"]([tree], None, result)[2]

    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.15])
    @pytest.mark.parametrize("problem", ["height", "mwm", "mwis", "sum"])
    def test_nested_slices_are_preorder_runs(self, monkeypatch, problem,
                                             epsilon):
        # a nested slice is its top's whole subtree, so a contiguous run of
        # the main tree's key order, a preorder: its ranks are the main
        # tree's less its top's
        sliced, seen = Tree.slice, []

        def spied(tree, members, root):
            order = list(tree.vertices())
            below, walk = set(), [root]
            while walk:
                v = walk.pop()
                below.add(v)
                walk.extend(tree.children[v])
            assert set(members) == below
            i = order.index(root)
            assert tuple(order[i:i + len(members)]) == tuple(members)
            sub = sliced(tree, members, root)
            assert tuple(sub.vertices()) == tuple(members)
            seen.append(len(members))
            return sub

        monkeypatch.setattr(Tree, "slice", spied)
        for family in sorted(GATE_FAMILIES):
            self._solve_general(problem, family, epsilon)
        assert seen

    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.15])
    @pytest.mark.parametrize("problem", ["height", "mwm", "mwis", "sum"])
    def test_preorder_is_charged_once_a_general_run(self, monkeypatch,
                                                    problem, epsilon):
        # phase 1's connectivity rounds number the main tree in preorder;
        # no run charges a preorder again, and each nested run's first
        # charge relabels its slice
        charge, bounded = Simulator.charge_subroutine, engine._bounded_units
        names, nested = [], []

        def spied_charge(sim_, name, rounds):
            names.append(name)
            return charge(sim_, name, rounds)

        def spied_bounded(tree, plugin, cfg, books, prefix=""):
            charges = []
            if prefix:
                nested.append(charges)
            for unit in bounded(tree, plugin, cfg, books, prefix):
                if unit[0] == "charge":
                    charges.append(unit[1])
                yield unit

        monkeypatch.setattr(Simulator, "charge_subroutine", spied_charge)
        monkeypatch.setattr(engine, "_bounded_units", spied_bounded)
        runs = 0
        for family in sorted(GATE_FAMILIES):
            del names[:], nested[:]
            self._solve_general(problem, family, epsilon)
            assert names.count("connectivity, preorder") == 1, family
            assert "preorder" not in names, family
            assert all(charges[0] == "relabel" for charges in nested)
            runs += len(nested)
        assert runs
        del names[:]
        bounded_tree_contract(valued(path(2000)), sum_plugin(), cfg(2000))
        assert names.count("preorder") == 1
        assert "connectivity, preorder" not in names

    @pytest.mark.parametrize("problem, make, epsilon", [
        ("height", lambda: star(1 << 10), 0.5),
        ("height", lambda: star(1 << 9), 0.25),
        ("height", lambda: random_tree(1 << 9, 5), 0.25),
        ("mwm", lambda: with_edge_weights(broom(1 << 10), 3), 0.5),
        ("mwis", lambda: oracles.with_vertex_weights(
            hairy_caterpillar(1 << 9, 7), 3), 0.15),
    ])
    def test_no_round_follows_the_last_sibling_level(self, monkeypatch,
                                                      problem, make,
                                                      epsilon):
        # a phase's leaf levels are its last rounds: every level but the
        # last holds a sibling batch, and the last rakes every parent left
        # with its leaves, so no round of the phase follows it
        rounds = _round_labels(monkeypatch)
        tree = make()
        result = REGISTRY[problem]["solve"](
            [tree], None, cfg(tree.n, epsilon=epsilon, seed=3), 3)
        assert REGISTRY[problem]["check"]([tree], None, result)[2]
        kinds = {}
        for rec in result["log"].records:
            kinds.setdefault(rec.label, set()).add(rec.kind)
        levels = {}  # phase -> its leaf levels, in round order
        for labels in rounds:
            for label in labels:
                hit = re.fullmatch(r"phase (\d+) (.*)", label)
                if hit is None:
                    continue
                phase, rest = hit.groups()
                level = re.fullmatch(r"rake L(\d+)", rest)
                if level is not None:
                    levels.setdefault(phase, []).append(int(level.group(1)))
                else:
                    # a compress or nested round comes before the levels
                    assert phase not in levels, label
        assert levels
        for phase, steps in levels.items():
            assert steps == list(range(1, len(steps) + 1)), phase
            for step in steps[:-1]:
                assert "sibling" in kinds["phase %s rake L%d" % (phase, step)]
            assert kinds["phase %s rake L%d" % (phase, steps[-1])] == {
                "connected"}

    @pytest.mark.parametrize("make", [
        lambda n: hairy_caterpillar(n, 7), broom])
    def test_caterpillar_and_broom_stay_under_the_level_cap(self, make):
        # a vertex a rake turns into a leaf is not raked again in the same
        # phase, so a caterpillar's spine is not walked up level by level
        t = make(1 << 12)
        c = cfg(t.n, epsilon=0.15)
        value, log, metrics = tree_contract(t, HeightAlgebra(), c)
        assert value == oracles.height_table(t)[t.root]
        assert metrics["violations"] == []
        steps = {}
        for rec in log.records:
            hit = re.fullmatch(r"phase (\d+) rake L(\d+)", rec.label)
            if hit is not None:
                phase, step = map(int, hit.groups())
                steps[phase] = max(steps.get(phase, 0), step)
        assert steps and max(steps.values()) <= c.inv_eps + 1

    def test_sibling_levels_over_the_cap_fault(self, monkeypatch):
        # batches of 2 fold a 63-leaf star in five sibling levels, three
        # over the cap of 2; the sixth level only rakes and is not counted
        monkeypatch.setattr(engine, "sibling_batch", lambda cfg: 2)
        t = star(64)
        c = cfg(t.n, strict=False)
        assert c.inv_eps == 2
        value, log, metrics = tree_contract(t, HeightAlgebra(), c)
        assert value == 1
        assert metrics["violations"] == [
            "phase 1 sibling level 3 exceeds 2",
            "phase 1 sibling level 4 exceeds 2",
            "phase 1 sibling level 5 exceeds 2"]
        assert {rec.kind for rec in log.records
                if rec.label == "phase 1 rake L6"} == {"connected"}
        assert reconstruct(log, HeightAlgebra()) == oracles.height_table(t)
        with pytest.raises(SimFault, match="sibling level 3 exceeds 2"):
            tree_contract(t, HeightAlgebra(), cfg(t.n))

    # general height rounds at n = 2^9, as they stood before a phase's leaf
    # levels shared rounds; a run may take fewer, never more
    ROUND_CEILINGS = {
        ("path", 0.5): 9, ("path", 0.25): 28,
        ("star", 0.5): 5, ("star", 0.25): 9,
        ("caterpillar", 0.5): 9, ("caterpillar", 0.25): 28,
        ("broom", 0.5): 11, ("broom", 0.25): 34,
        ("random", 0.5): 9, ("random", 0.25): 37,
    }

    @pytest.mark.parametrize("family, epsilon", sorted(ROUND_CEILINGS))
    def test_rounds_stay_under_the_table(self, family, epsilon):
        make = {"path": path, "star": star, "caterpillar": caterpillar,
                "broom": broom,
                "random": lambda n: random_tree(n, seed=n)}[family]
        t = make(1 << 9)
        value, _log, metrics = tree_contract(t, HeightAlgebra(),
                                             cfg(t.n, epsilon=epsilon))
        assert value == oracles.height_table(t)[t.root]
        assert metrics["rounds"] <= self.ROUND_CEILINGS[family, epsilon]

    def test_all_small_shapes_agree(self):
        plugin = sum_plugin()
        for n in range(1, 9):
            for t in all_shapes(n):
                valued(t, lambda v: 2 * v + 1)
                expect = sum(2 * v + 1 for v in t.vertices())
                answer, log, metrics = tree_contract(t, plugin, cfg(n))
                assert answer == expect
                assert answer == two_contraction_reference(
                    t, add, add, init=lambda tr, v: tr.attrs[v]["val"])
                assert metrics["violations"] == []
                assert reconstruct(log, plugin) == subtree_sums(t)

    def test_random_trees_agree_with_reference(self):
        plugin = sum_plugin()
        for seed in range(10):
            n = 30 + 27 * seed
            t = valued(random_tree(n, seed), lambda v: v % 5)
            for epsilon in (0.5, 1 / 3):
                answer, log, metrics = tree_contract(
                    t, plugin, cfg(n, epsilon=epsilon))
                assert answer == sum(v % 5 for v in t.vertices())
                assert metrics["violations"] == []
                assert log.total_words <= 64 * n
                assert reconstruct(log, plugin) == subtree_sums(t)
        assert two_contraction_reference(
            t, add, add, init=lambda tr, v: tr.attrs[v]["val"]) == answer

    def test_broom_families(self):
        plugin = sum_plugin()
        for n in (50, 200):
            t = valued(broom(n))
            answer, log, metrics = tree_contract(t, plugin,
                                                 cfg(n, epsilon=0.25))
            assert answer == n
            assert metrics["violations"] == []
            assert reconstruct(log, plugin) == subtree_sums(t)


class TestScaling:
    """Rounds stay under the acceptance gate's ceilings (12/eps^3 general,
    6/eps^2 bounded) well past the gate's n = 2^14, and total words stay
    within 64n."""

    N = 1 << 16

    @pytest.mark.parametrize("family, height", [(path, N - 1), (star, 1)])
    def test_height_at_two_to_the_sixteen(self, family, height):
        t = family(self.N)
        c = cfg(self.N, epsilon=0.25, C_w=16)
        runs = [(tree_contract, 12 * c.inv_eps ** 3)]
        if family is path:
            runs.append((bounded_tree_contract, 6 * c.inv_eps ** 2))
        for contract, ceiling in runs:
            value, _log, metrics = contract(t, HeightAlgebra(), c)
            assert value == height
            assert metrics["rounds"] <= ceiling, contract.__name__
            assert metrics["total_words"] <= 64 * self.N, contract.__name__


class TestReference:
    def test_single_vertex(self):
        t = valued(path(1), lambda v: 3)
        assert two_contraction_reference(
            t, add, add, init=lambda tr, v: tr.attrs[v]["val"]) == 3

    def test_balanced_binary_seven(self):
        t = valued(complete_kary(7, 2), lambda v: v)
        assert two_contraction_reference(
            t, add, add, init=lambda tr, v: tr.attrs[v]["val"]) == 28


class TestReconstruct:
    def test_path3_parent_sums(self):
        vals = {1: 0, 2: 0, 3: 7}
        plugin = sum_plugin()
        for runner in (bounded_tree_contract, tree_contract):
            t = valued(path(3), vals.__getitem__)
            answer, log, _m = runner(t, plugin, cfg(3))
            assert answer == 7
            assert reconstruct(log, plugin) == {1: 7, 2: 7, 3: 7}

    def test_totality_is_checked(self):
        t = valued(path(12))
        plugin = sum_plugin()
        _a, log, _m = tree_contract(t, plugin, cfg(12))
        log.vertices = log.vertices + (999,)
        with pytest.raises(LogIntegrityError, match="unresolved"):
            reconstruct(log, plugin)

    def test_missing_final_payload(self):
        with pytest.raises(LogIntegrityError, match="final payload"):
            reconstruct(ContractionLog(1, (1,)), sum_plugin())


class TestSolverSetup:
    def test_plugin_width_and_size(self):
        base = SimConfig(epsilon=0.5, n=64, C_w=8)
        sim = run_simulator(MwisAlgebra(), base, 10)
        assert (sim.cfg.C_w, sim.cfg.n) == (16, 64)  # n never shrinks
        sim = run_simulator(MwisAlgebra(), base, 100)
        assert (sim.cfg.C_w, sim.cfg.n) == (16, 100)
        assert (base.C_w, base.n) == (8, 64)

    @pytest.mark.parametrize("contract", [tree_contract,
                                          bounded_tree_contract])
    def test_given_simulator_is_kept(self, contract):
        # degree 2 fits the bounded algorithm's budget of 4 at n = 64
        t = oracles.with_vertex_weights(complete_kary(50, 2), 1)
        sim = Simulator(cfg(64, C_w=16))
        # cfg is not read when a simulator is given
        value, _log, metrics = contract(t, MwisAlgebra(),
                                        cfg(1, epsilon=0.25), sim)
        assert value == oracles.brute_mwis(t)[0]
        assert metrics["rounds"] == sim.rounds > 0
        fresh = contract(t, MwisAlgebra(), cfg(64))[2]
        assert metrics == fresh

    @pytest.mark.parametrize("c_w, n", [(8, 64), (16, 49)])
    def test_given_simulator_must_fit(self, c_w, n):
        t = random_tree(50, 1)
        sim = Simulator(cfg(n, C_w=c_w))
        with pytest.raises(InputError, match="cannot run height"):
            tree_contract(t, HeightAlgebra(), cfg(64), sim)
        with pytest.raises(InputError, match="cannot run height"):
            bounded_tree_contract(t, HeightAlgebra(), cfg(64), sim)
        assert sim.rounds == 0

    def test_scaffold_under_a_larger_n(self):
        # the scaffold's fan is planned at n = 1024; the run keeps that n
        t = star(100)
        c = cfg(1024)
        chosen, *_ = indep.mis_solve(t, c)
        assert chosen == sorted(oracles.greedy_mis(t)) and len(chosen) == 99
        edges, *_ = indep.maximal_matching_solve(t, c)
        want = sorted(oracles.greedy_maximal_matching(t))
        assert sorted(edges) == want and len(want) == 1

    def test_n_grows_to_the_tree(self):
        t = random_tree(1000, 3)
        h, _log, metrics = tree_contract(t, HeightAlgebra(), cfg(10))
        assert h == oracles.height_table(t)[t.root] == 15
        assert metrics["violations"] == []


def _stream(units, got, order):
    """Unit stream yielding `units` in order; when it resumes after a unit,
    it notes how many machines have run so far."""
    for unit in units:
        yield unit
        got.append(len(order))


def _labelled(order, *labels):
    """One machine per label; each notes its label in `order` when it
    runs."""
    def body(label):
        return lambda ctx: order.append(label)

    return [Machine(1, body(lb), lb) for lb in labels]


def _drive_merged(sim, order, *unit_lists):
    got = [[] for _ in unit_lists]
    engine._drive(sim, engine._merged(
        [_stream(units, g, order) for units, g in zip(unit_lists, got)],
        sim.cfg.machine_cap))
    return got


class TestScheduler:
    def test_a_charge_is_booked_before_a_round_runs(self):
        sim = Simulator(cfg(16))
        order = []
        got = _drive_merged(
            sim, order,
            [("charge", "relabel"), ("round", _labelled(order, "a1"))],
            [("round", _labelled(order, "b1")),
             ("round", _labelled(order, "b2")),
             ("charge", "relabel")])
        # b's first round waits while a's charge is booked, then a's round
        # joins it; b's own charge comes after its second round
        assert order == ["a1", "b1", "b2"]
        # each stream resumes only once its unit is done
        assert got == [[0, 2], [2, 3, 3]]
        assert sim.rounds == 4
        assert [p["label"] for p in sim.phases] == ["relabel", "relabel"]

    def test_a_round_shares_the_round_after_a_charge(self):
        # a stream at a round runs with one that first books a charge,
        # as a general phase's direct compress runs with its nested runs
        sim = Simulator(cfg(16))
        order = []
        got = _drive_merged(
            sim, order,
            [("round", _labelled(order, "direct"))],
            [("charge", "preorder"), ("round", _labelled(order, "n1"))],
            [("charge", "preorder"), ("round", _labelled(order, "m1"))])
        assert order == ["direct", "n1", "m1"]
        assert got == [[3], [0, 3], [0, 3]]
        assert sim.rounds == 3
        assert [p["label"] for p in sim.phases] == ["preorder"]

    def test_distinct_charges_are_booked_one_after_the_other(self):
        # the third stream's charge equals the first's and is booked with
        # it; the second's label is another, of 2 rounds or of 1
        for other, rounds in [("preorder", 2), ("modulus draw", 1)]:
            sim = Simulator(cfg(16))
            got = _drive_merged(sim, [], [("charge", "relabel")],
                                [("charge", other)], [("charge", "relabel")])
            assert got == [[0], [0], [0]]
            assert sim.rounds == 1 + rounds
            assert sim.phases == [{"label": "relabel", "rounds": 1},
                                  {"label": other, "rounds": rounds}]

    def test_streams_over_the_cap_together_run_in_turn(self):
        sim = Simulator(cfg(16))
        cap = sim.cfg.machine_cap
        order = []
        a = ["a%d" % i for i in range(cap - 2)]
        b = ["b%d" % i for i in range(3)]
        c = ["c0"]
        got = _drive_merged(sim, order, [("round", _labelled(order, *a))],
                            [("round", _labelled(order, *b))],
                            [("round", _labelled(order, *c))])
        # a alone fits; b would push a's round past the cap, so b opens the
        # next round, and c joins b there
        assert sim.rounds == 2
        assert order == a + b + c
        assert got == [[cap + 2]] * 3
        assert not sim.violations

    def test_one_stream_over_the_cap_still_faults(self):
        sim = Simulator(cfg(16))
        cap = sim.cfg.machine_cap
        order = []
        big = ["a%d" % i for i in range(cap + 1)]
        with pytest.raises(SimFault, match="round 2: %d machines exceed cap "
                                           "%d" % (cap + 1, cap)):
            _drive_merged(sim, order, [("round", _labelled(order, "x"))],
                          [("round", _labelled(order, *big))])
        assert order == ["x"]
        relaxed = Simulator(cfg(16, strict=False))
        order = []
        got = _drive_merged(relaxed, order,
                            [("round", _labelled(order, *big))],
                            [("round", _labelled(order, "y"))])
        assert order == big + ["y"]
        assert got == [[cap + 2], [cap + 2]]
        assert relaxed.rounds == 2
        assert relaxed.violations == [
            "round 1: %d machines exceed cap %d" % (cap + 1, cap)]

    def test_agreeing_charge_is_booked_once(self):
        sim = Simulator(cfg(16))
        got = _drive_merged(sim, [], [("charge", "relabel")],
                            [("charge", "relabel")])
        assert sim.rounds == 1
        assert got == [[0], [0]]

    def test_finished_stream_drops_out(self):
        sim = Simulator(cfg(16))
        order = []
        got = _drive_merged(
            sim, order,
            [("round", _labelled(order, "a1"))],
            [("round", _labelled(order, "b1")),
             ("charge", "relabel"),
             ("round", _labelled(order, "b2"))])
        assert got == [[2], [2, 2, 3]]
        assert order == ["a1", "b1", "b2"]
        assert sim.rounds == 3

    def test_round_results_split_in_stream_order(self):
        # the streams' machines share one round, in stream order
        sim = Simulator(cfg(16))
        order = []
        got = _drive_merged(sim, order,
                            [("round", _labelled(order, "a1", "a2"))],
                            [("round", [])],
                            [("round", _labelled(order, "c1"))])
        assert sim.rounds == 1
        assert order == ["a1", "a2", "c1"]
        assert got == [[3], [3], [3]]

    def test_step_without_machines_runs_no_round(self):
        sim = Simulator(cfg(16))
        got = _drive_merged(sim, [], [("round", [])], [("round", [])])
        assert sim.rounds == 0
        assert got == [[0], [0]]
        got = _drive_merged(sim, [], [("round", [])])
        assert sim.rounds == 0 and got == [[0]]

    def test_only_rounds_and_charges_are_units(self):
        # a violation goes to the simulator's fault hook, never down the
        # stream; a leftover "fault" unit is refused
        with pytest.raises(LogIntegrityError, match="inside a parallel step"):
            _drive_merged(Simulator(cfg(16)), [], [("fault", "x")])


def _moved(tree, offset):
    """tree with every vertex id moved up by offset."""
    parent = tree.parent
    return Tree(tree.root + offset,
                {v + offset: (None if parent[v] is None else parent[v] + offset)
                 for v in tree.preorder()})


class TestSideBySide:
    def test_paired_runs_equal_each_run_alone(self, tmp_path):
        # the second tree's tails run nested bounded streams inside the
        # side-by-side step
        trees = [random_tree(300, 5), _moved(two_tails([60, 200]), 1000),
                 _moved(random_tree(120, 6), 2000)]
        c = cfg(400, epsilon=1 / 3)
        sim = run_simulator(HeightAlgebra(), c, 400)
        paired, metrics = contract_side_by_side(
            [(t, HeightAlgebra()) for t in trees], sim, "paired")
        assert [p["label"] for p in metrics["phases"]] == ["paired"]
        assert not metrics["violations"]
        alone_rounds = 0
        for i, (t, (answer, log)) in enumerate(zip(trees, paired)):
            want, want_log, want_m = tree_contract(t, HeightAlgebra(), c)
            alone_rounds += want_m["rounds"]
            assert answer == want
            got_path, want_path = (tmp_path / ("got%d" % i),
                                   tmp_path / ("want%d" % i))
            log.save(got_path)
            want_log.save(want_path)
            assert got_path.read_bytes() == want_path.read_bytes()
        assert any(rec.label.startswith("phase 1 phase 1 ")
                   for rec in paired[1][1].records)
        assert metrics["rounds"] < alone_rounds

    def test_runs_sharing_a_vertex_id_are_refused(self):
        t = random_tree(30, 1)
        other = _moved(random_tree(30, 2), 29)  # 30 is in both
        sim = run_simulator(HeightAlgebra(), cfg(60), 60)
        with pytest.raises(InputError, match="share a vertex id"):
            contract_side_by_side([(t, HeightAlgebra()),
                                   (other, HeightAlgebra())], sim, "paired")
        assert sim.rounds == 0 and not sim.generation


class Hoarder(Algebra):
    """Keeps every absorbed contribution in its data, so a vertex that
    absorbs two children outgrows C_w; the value is still the subtree's
    weight, 6 per vertex."""

    name = "hoarder"
    C_w = 8

    def init_data(self, tree, v):
        return (1, 1, 1, 1, 1, 1)

    def fresh_edge(self, tree, v):
        return None

    def node_value(self, data):
        return sum(data)

    def through_edge(self, value, edge):
        return value

    def absorb(self, data, contribution):
        return data + (contribution,)


class TestBudgets:
    SURVIVOR_FAULT = ("phase 1 rake survivor 2: payload of 9 words exceeds 8 "
                      "(non-conforming contractor)")

    def test_grown_payload_faults_in_strict_mode(self):
        t = complete_kary(7, 2)
        with pytest.raises(SimFault) as err:
            bounded_tree_contract(t, Hoarder(), cfg(7))
        assert str(err.value) == self.SURVIVOR_FAULT

    def test_grown_payload_is_recorded_when_relaxed(self):
        t = complete_kary(7, 2)
        answer, log, metrics = bounded_tree_contract(
            t, Hoarder(), cfg(7, strict=False))
        assert answer == 6 * 7
        assert metrics["violations"][0] == self.SURVIVOR_FAULT
        assert all("non-conforming" in v for v in metrics["violations"])
        assert reconstruct(log, Hoarder()) == {
            v: 6 * s for v, s in subtree_sums(valued(t)).items()}

    def test_nested_streams_report_their_own_cap_faults(self, monkeypatch):
        # the two tails run as nested bounded streams side by side, the
        # longer one for a phase more; with a cap of 1 each stream reports
        # every phase past it, in stream order within a step. At epsilon 1/3
        # each tail would fit S a phase earlier and end in a final round
        t = two_tails([60, 200])
        monkeypatch.setattr(simmod, "C_P", 0.25)
        c = cfg(t.n, epsilon=1 / 4, strict=False)
        assert c.phase_cap == 1
        answer, log, metrics = tree_contract(t, sum_plugin(), c)
        assert answer == t.n
        assert reconstruct(log, sum_plugin()) == subtree_sums(t)
        tops = (42, 102)  # each tail's top vertex; the second ends at 301
        phases = [0, 0]
        for rec in log.records:
            m = re.match(r"phase 1 phase (\d+) ", rec.label)
            if m:
                i = int(rec.members[0] >= tops[1])
                assert rec.members[0] >= tops[0]
                phases[i] = max(phases[i], int(m.group(1)))
        assert phases == [2, 3]
        assert metrics["violations"] == [
            "phase 1 phase 2 exceeds the cap of 1",  # first tail
            "phase 1 phase 2 exceeds the cap of 1",  # second tail
            "phase 1 phase 3 exceeds the cap of 1"]  # second tail
        with pytest.raises(SimFault,
                           match="^phase 1 phase 2 exceeds the cap of 1$"):
            tree_contract(t, sum_plugin(), c.replaced(strict=True))

    def test_nonconforming_contractor_faults(self):
        class Fat(Algebra):
            name = "fat"

            def init_data(self, tree, v):
                return tuple(range(100))

            def fresh_edge(self, tree, v):
                return None

        t = valued(path(2))
        with pytest.raises(SimFault, match="non-conforming"):
            bounded_tree_contract(t, Fat(), cfg(2))
        sim = run_simulator(Fat(), cfg(2, strict=False), t.n)
        engine._fresh_run(t, Fat(), sim)
        assert sim.violations == [
            "vertex %d: payload of 101 words exceeds 16 (non-conforming "
            "contractor)" % v for v in (1, 2)]

    def test_log_words_within_global_budget(self):
        t = valued(caterpillar(400))
        _a, log, metrics = tree_contract(t, sum_plugin(), cfg(400))
        assert log.total_words <= 64 * 400
        assert metrics["total_words"] <= 64 * 400

    def test_log_over_global_budget_is_a_violation(self, monkeypatch):
        t = valued(caterpillar(64))
        monkeypatch.setattr(simmod, "TOTAL_BUDGET_FACTOR", 1)
        _a, log, metrics = tree_contract(
            t, sum_plugin(), cfg(64, strict=False))
        assert log.total_words > 64
        assert metrics["violations"][-1] == (
            "contraction log of %d words exceeds 64" % log.total_words)


class TestLogCodec:
    def test_value_roundtrip(self):
        probe = (None, True, False, 0, 1, -1, 127, 128, 2 ** 14 - 1,
                 2 ** 14, 2 ** 20 - 1, 2 ** 20, 2 ** 80, -(2 ** 80),
                 float("-inf"), Fraction(-3, 7), "", "héllo",
                 ("nest", (1, (2,)), None, "héllo", ""), tuple(range(16)))
        out = bytearray()
        _enc_obj(probe, out, {})
        back, pos = _dec_obj(bytes(out), 0, [])
        assert back == probe
        assert pos == len(out)

    def test_only_neg_inf_floats(self):
        with pytest.raises(InputError):
            _enc_obj(1.5, bytearray(), {})

    def test_unencodable(self):
        with pytest.raises(InputError):
            _enc_obj([1, 2], bytearray(), {})

    def test_save_load_roundtrip(self, tmp_path):
        plugin = sum_plugin()
        t = valued(random_tree(60, seed=5), lambda v: v % 7)
        _a, log, _m = tree_contract(t, plugin, cfg(60))
        p = tmp_path / "run.tclog"
        log.save(p)
        back = ContractionLog.load(p)
        assert back.root == log.root
        assert back.vertices == log.vertices
        assert back.final_payload == log.final_payload
        assert back.records == log.records
        assert reconstruct(back, plugin) == reconstruct(log, plugin)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.tclog"
        p.write_bytes(b"NOTALOG" + b"\x00" * 8)
        with pytest.raises(InputError, match="header"):
            ContractionLog.load(p)

    def test_trailing_bytes(self, tmp_path):
        t = valued(path(6))
        _a, log, _m = tree_contract(t, sum_plugin(), cfg(6))
        p = tmp_path / "run.tclog"
        log.save(p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(InputError, match="trailing"):
            ContractionLog.load(p)

    def test_magic_is_versioned(self, tmp_path):
        assert LOG_MAGIC == b"TCLOG4\n"
        # a log of the older formats, ten-field records (TCLOG1), tagged
        # payload nodes (TCLOG2) or a tag byte on every value (TCLOG3),
        # fails at its header
        t = valued(path(6))
        _a, log, _m = tree_contract(t, sum_plugin(), cfg(6))
        p = tmp_path / "run.tclog"
        log.save(p)
        body = p.read_bytes()[len(LOG_MAGIC):]
        for old in (b"TCLOG1\n", b"TCLOG2\n", b"TCLOG3\n"):
            p.write_bytes(old + body)
            with pytest.raises(InputError, match="bad header"):
                ContractionLog.load(p)

    def test_truncated_file(self, tmp_path):
        tree = with_edge_weights(random_tree(200, 3), 3)
        _v, _e, _t, log, _m = mwm_solve(tree, cfg(200))
        p = tmp_path / "run.tclog"
        log.save(p)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) // 2])
        with pytest.raises(InputError, match="truncated"):
            ContractionLog.load(p)

    def test_every_prefix_is_an_input_error(self, tmp_path):
        t = valued(path(6))
        _a, log, _m = tree_contract(t, sum_plugin(), cfg(6))
        p = tmp_path / "run.tclog"
        log.save(p)
        data = p.read_bytes()
        for cut in range(len(LOG_MAGIC), len(data)):
            p.write_bytes(data[:cut])
            with pytest.raises(InputError):
                ContractionLog.load(p)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["mwm", "height", "eval"]), st.data())
    def test_a_corrupted_byte_loads_or_is_an_input_error(self, problem,
                                                          data):
        bad = bytearray(solved_log_bytes(problem))
        at = data.draw(st.integers(0, len(bad) - 1), label="at")
        bad[at] ^= data.draw(st.integers(1, 255), label="flip")
        with tempfile.TemporaryDirectory() as where:
            p = os.path.join(where, "run.tclog")
            with open(p, "wb") as fh:
                fh.write(bad)
            try:
                ContractionLog.load(p)
            except InputError:
                pass

    def test_varint_runs_off_the_end(self, tmp_path):
        with pytest.raises(InputError, match="truncated"):
            _dec_obj(bytes([0xE3, 0x80, 0x80]), 0, [])
        p = tmp_path / "run.tclog"
        p.write_bytes(LOG_MAGIC + bytes([0xE7, 0x84]))
        with pytest.raises(InputError, match="truncated"):
            ContractionLog.load(p)

    def test_zero_denominator(self, tmp_path):
        # the header (1, (1,), 1/0, 0) by hand: a 4-tuple, 1, a 1-tuple, 1,
        # the Fraction's E5, its zigzag numerator 2, then the denominator 0
        # at offset 6
        header = bytes([0xD4, 1, 0xD1, 1, 0xE5, 2, 0, 0])
        with pytest.raises(InputError, match="zero denominator at offset 6"):
            _dec_obj(header, 0, [])
        p = tmp_path / "zero.tclog"
        p.write_bytes(LOG_MAGIC + header)
        with pytest.raises(InputError, match="zero denominator at offset %d"
                                             % (len(LOG_MAGIC) + 6)):
            ContractionLog.load(p)

    @staticmethod
    def load_bytes(tmp_path, body):
        p = tmp_path / "run.tclog"
        p.write_bytes(LOG_MAGIC + body)
        return ContractionLog.load(p)

    @pytest.mark.parametrize("tag", range(0xE9, 0x100))
    def test_a_bad_tag_names_its_offset(self, tmp_path, tag):
        # the header's third item, at offset 4, is the bad tag
        body = bytes([0xD4, 1, 0xD1, 1, tag, 0])
        with pytest.raises(InputError, match="^bad tag %d at offset %d$"
                           % (tag, len(LOG_MAGIC) + 4)):
            self.load_bytes(tmp_path, body)

    def test_a_string_index_past_the_table(self, tmp_path):
        # one str, "ab", is written at offset 4; the back-reference at
        # offset 8 names index 0 and loads, the one at offset 10 index 1
        body = bytes([0xD4, 1, 0xD1, 1, 0xE6, 2, 0x61, 0x62, 0xE8, 0])
        assert _dec_obj(body, 0, []) == ((1, (1,), "ab", "ab"), 10)
        body = bytes([0xD4, 1, 0xD1, 1, 0xE6, 2, 0x61, 0x62, 0xE8, 1])
        with pytest.raises(InputError, match="^string index 1 of 1 at "
                           "offset %d$" % (len(LOG_MAGIC) + 8)):
            self.load_bytes(tmp_path, body)
        # no str before it: the table is empty
        with pytest.raises(InputError, match="^string index 0 of 0 at "
                           "offset %d$" % len(LOG_MAGIC)):
            self.load_bytes(tmp_path, bytes([0xE8, 0]))

    @pytest.mark.parametrize("body", [
        [0x80], [0xBF], [0xC0], [0xCF], [0xC0, 0], [0xCF, 0xFF]],
        ids=["2-byte, head only", "2-byte high, head only",
             "3-byte, head only", "3-byte high, head only",
             "3-byte, one byte", "3-byte high, one byte"])
    def test_a_cut_off_int_is_truncated_at_the_end(self, tmp_path, body):
        # the header's count, the last item, runs off the end of the file
        body = bytes([0xD4, 1, 0xD1, 1, 0xE0] + body)
        with pytest.raises(InputError, match="^contraction log truncated at "
                           "offset %d$" % (len(LOG_MAGIC) + len(body))):
            self.load_bytes(tmp_path, body)

    @staticmethod
    def load_record(tmp_path, edits):
        """Load a one-record log of members (1, 2) with each field named in
        `edits` set to its value there."""
        rec = Record("x", (1, 2),
                     ((None, 0, ()), (None, 0, ())), (),
                     (None, 1), ((), ()), True)._replace(**edits)
        p = tmp_path / "run.tclog"
        p.write_bytes(LOG_MAGIC + enc((1, (1, 2), (None, 0, ()), 1), rec))
        return ContractionLog.load(p)

    def test_a_well_formed_record_loads_as_a_record(self, tmp_path):
        [rec] = self.load_record(tmp_path, {"label": "x"}).records
        assert type(rec) is Record
        assert rec.members == (1, 2) and rec.root_outs_known is True

    @pytest.mark.parametrize("field,short", [
        ("payloads", ((None, 0, ()),)),
        ("parents", (None,)),
        ("outs", ((),)),
    ])
    def test_record_fields_must_match_its_members(self, tmp_path, field,
                                                  short):
        # members (1, 2) with one payload, one parent or one outs entry
        with pytest.raises(InputError, match="malformed.*2 members"):
            self.load_record(tmp_path, {field: short})

    # a str of the right length would pass the length check alone
    @pytest.mark.parametrize("field,value", [
        ("members", "ab"), ("payloads", "ab"), ("virtual", "a"),
        ("virtual", 2), ("parents", "ab"), ("outs", "ab"),
        ("outs", ("ab", ())), ("outs", None), ("root_outs_known", 1),
        ("root_outs_known", None),
    ], ids=["members str", "payloads str", "virtual str", "virtual int",
            "parents str", "outs str", "outs entry str", "outs None",
            "root_outs_known int", "root_outs_known None"])
    def test_record_fields_must_have_their_types(self, tmp_path, field,
                                                 value):
        with pytest.raises(InputError, match="malformed.*wrong type"):
            self.load_record(tmp_path, {field: value})

    # a record the replay would refuse is refused at load, as malformed. Its
    # kind is read off its parents, sibling when they are empty, and its
    # survivor is its first member
    @pytest.mark.parametrize("edits,message", [
        ({"members": (), "payloads": ()}, "record of no members"),
        ({"members": (1, 1)}, "record repeats a member"),
        ({"outs": ((2,), ())}, "outs name the record's own member 2"),
        ({"outs": ((), (1,))}, "outs name the record's own member 1"),
        ({"parents": (None, 99)},
         "member 2 has the parent 99, not an earlier member"),
        ({"parents": (2, 1)}, "survivor 1 has the parent 2"),
        ({"parents": (None, None)},
         "member 2 has the parent None, not an earlier member"),
        ({"parents": ()},
         "record of 2 members has 2 payloads, 0 parents and 2 outs"),
        ({"outs": ()},
         "record of 2 members has 2 payloads, 2 parents and 0 outs"),
    ], ids=["no members", "repeated member", "outs name a member",
            "outs name the survivor", "parent not a member",
            "survivor with a parent", "member without a parent",
            "outs without parents", "parents without outs"])
    def test_kind_and_survivor_are_checked(self, tmp_path, edits, message):
        with pytest.raises(InputError, match="^malformed contraction log: "
                           + re.escape(message) + "$"):
            self.load_record(tmp_path, edits)

    # a member's payload is a known node (edge, data, kids) and each of its
    # kids a known node or a slot (acc, id), as the replay reads a node by
    # its arity and indexes it
    @pytest.mark.parametrize("payload,message", [
        ((None,), "payload (None,) is not (edge, data, kids)"),
        ((), "payload () is not (edge, data, kids)"),
        ((None, 0, (), 5), "payload (None, 0, (), 5) is not "
                           "(edge, data, kids)"),
        ((None, 0, 5), "payload (None, 0, 5) is not (edge, data, kids)"),
        ((None, 1), "payload (None, 1) is not (edge, data, kids)"),
        ((None, 0, ((None,),)), "payload node (None,) is neither "
                                "(edge, data, kids) nor (acc, id)"),
        ((None, 0, ((None, 0, (7,)),)), "payload node 7 is neither "
                                        "(edge, data, kids) nor (acc, id)"),
    ], ids=["one item", "no items", "four items", "kids not a tuple",
            "a bare slot", "a kid of one item", "a grandkid not a tuple"])
    def test_payload_nodes_have_two_shapes(self, tmp_path, payload,
                                           message):
        with pytest.raises(InputError, match="^malformed contraction log: "
                           + re.escape(message) + "$"):
            self.load_record(tmp_path,
                             {"payloads": ((None, 0, ()), payload)})

    def test_kids_are_known_nodes_or_slots(self, tmp_path):
        payload = (None, 0, ((None, 3), (None, 4, ((Fraction(1, 2), 5),))))
        [rec] = self.load_record(
            tmp_path, {"payloads": ((None, 0, ()), payload)}).records
        assert rec.payloads[1] == payload

    @pytest.mark.parametrize("obj", [7, (), ("x",) * 6, ("x",) * 8,
                                     "7 chars"])
    def test_a_record_must_be_a_tuple_of_seven_fields(self, tmp_path, obj):
        p = tmp_path / "run.tclog"
        p.write_bytes(LOG_MAGIC + enc((1, (1,), (None, 0, ()), 1), obj))
        with pytest.raises(InputError, match="malformed"):
            ContractionLog.load(p)

    def test_sibling_record_without_parents_loads(self, tmp_path):
        t = valued(star(40))
        _a, log, _m = tree_contract(t, sum_plugin(), cfg(40))
        assert any(rec.kind == "sibling" for rec in log.records)
        p = tmp_path / "run.tclog"
        log.save(p)
        back = ContractionLog.load(p)
        assert back.records == log.records

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "run.tclog"
        p.write_bytes(LOG_MAGIC + enc((1, 2)))
        with pytest.raises(InputError, match="malformed"):
            ContractionLog.load(p)


# ---------------------------------------------------------------------------
# the encoder against a reference that spells the format out, one isinstance
# test per tag

def ref_uint(n, out):
    """n as a varint: seven bits a byte, low bits first, the high bit set on
    every byte but the last."""
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)


def ref_enc(obj, out, strs):
    """obj's bytes by the table the format is defined by; strs lists the
    strs the save has written so far, in order."""
    if obj is None:
        out.append(0xE0)
    elif isinstance(obj, bool):
        out.append(0xE1 if obj else 0xE2)
    elif isinstance(obj, int):
        if 0 <= obj < 2 ** 7:
            out.append(obj)
        elif 0 <= obj < 2 ** 14:
            out += bytes([0x80 + obj // 2 ** 8, obj % 2 ** 8])
        elif 0 <= obj < 2 ** 20:
            out += bytes([0xC0 + obj // 2 ** 16, obj // 2 ** 8 % 2 ** 8,
                          obj % 2 ** 8])
        else:
            # zigzag: 2v for v >= 0, 2|v|+1 for v < 0
            out.append(0xE3)
            ref_uint(2 * obj if obj >= 0 else 2 * -obj + 1, out)
    elif isinstance(obj, float):
        assert obj == float("-inf")
        out.append(0xE4)
    elif isinstance(obj, Fraction):
        num = obj.numerator
        out.append(0xE5)
        ref_uint(2 * num if num >= 0 else 2 * -num + 1, out)
        ref_uint(obj.denominator, out)
    elif isinstance(obj, str):
        if obj in strs:
            out.append(0xE8)
            ref_uint(strs.index(obj), out)
        else:
            raw = obj.encode("utf-8")
            out.append(0xE6)
            ref_uint(len(raw), out)
            out += raw
            strs.append(obj)
    elif isinstance(obj, tuple):
        if len(obj) < 16:
            out.append(0xD0 + len(obj))
        else:
            out.append(0xE7)
            ref_uint(len(obj), out)
        for item in obj:
            ref_enc(item, out, strs)
    else:
        raise TypeError(obj)


def ref_bytes(*objs):
    """The bytes of objs written one after another, as one save writes
    them."""
    out, strs = bytearray(), []
    for obj in objs:
        ref_enc(obj, out, strs)
    return bytes(out)


log_scalars = st.one_of(
    st.integers(), st.integers(min_value=2 ** 14, max_value=2 ** 70),
    st.integers(min_value=-(2 ** 70), max_value=-1), st.booleans(),
    st.none(), st.just(float("-inf")), st.fractions(), st.text(max_size=4),
    st.sampled_from(["rake", "compress"]))
# tuples of 16 or more items take a varint length, of 128 or more a
# multi-byte one
log_values = st.recursive(
    log_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=6).map(tuple),
                            st.lists(st.integers(-3, 3), min_size=15,
                                     max_size=16).map(tuple),
                            st.lists(st.integers(-3, 3), min_size=127,
                                     max_size=129).map(tuple)),
    max_leaves=40)


class TestEncoderDispatch:
    @settings(max_examples=300, deadline=None)
    @given(log_values)
    def test_bytes_match_the_reference(self, obj):
        assert enc(obj) == ref_bytes(obj)

    @settings(max_examples=100, deadline=None)
    @given(log_values)
    def test_log_round_trip(self, obj):
        log = ContractionLog(1, (1,))
        log.final_payload = obj
        with tempfile.TemporaryDirectory() as where:
            p = os.path.join(where, "v.tclog")
            log.save(p)
            with open(p, "rb") as fh:
                data = fh.read()
            back = ContractionLog.load(p)
        header = (1, (1,), obj, 0)
        assert data == LOG_MAGIC + ref_bytes(header)
        assert repr(back.final_payload) == repr(obj)


# ---------------------------------------------------------------------------
# records: header counts by shape, and the save that writes them

def header_of(rec):
    """The record without the payloads: what header_words() counts."""
    return rec[:2] + rec[3:]


def leaf(edge=None, data=1):
    return (edge, data, ())


class TestHeaderWords:
    def test_hand_built_records(self):
        connected = Record(
            "phase 1 compress", (3, 5, 8),
            ((None, 2, ((None, 9),)), leaf(), leaf()), (),
            (None, 3, 5), ((), (), (10, 11)))
        sibling = Record("phase 1 rake L1", (4, 6, 7),
                         (leaf(), leaf(), leaf()), (6, 7))
        rake = Record("phase 1 rake L2", (2, 4), (leaf(), leaf()), (4,),
                      (None, 2), ((), ()), False)
        assert sibling.parents == () and sibling.outs == ()
        assert (connected.kind, sibling.kind, rake.kind) == (
            "connected", "sibling", "connected")
        for rec, words in ((connected, 10), (sibling, 7), (rake, 7)):
            assert rec.header_words() == word_count(header_of(rec)) == words

    def test_every_record_of_a_run(self):
        t = valued(star(300))
        _a, log, _m = tree_contract(t, sum_plugin(), cfg(300))
        seen = set()
        for rec in log.records:
            assert rec.header_words() == word_count(header_of(rec))
            seen.add(rec.kind)
            if rec.virtual:
                seen.add("virtual")
            if not rec.root_outs_known:
                seen.add("root outs unknown")
        assert seen == {"connected", "sibling", "virtual",
                        "root outs unknown"}


class IntId(int):
    """A vertex id of an int subclass: encoded as an int, never cached."""


class Label(str):
    """A str subclass: encoded as the equal str, with one table entry."""


ids = st.one_of(st.integers(-200, 20000), st.integers(2 ** 14, 2 ** 40),
                st.booleans(), st.integers(-70, 70).map(IntId))
node_values = st.recursive(
    log_scalars, lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=6)
pending = st.one_of(st.none(), node_values)
slots = st.builds(lambda v, acc: (acc, v), ids, pending)
# wide parts are drawn from cheap items, so an example stays within
# Hypothesis's data budget
wide_kids = st.lists(st.integers(0, 300).map(lambda v: (None, v)),
                     min_size=128, max_size=130).map(tuple)
rnodes = st.recursive(
    slots,
    lambda kids: st.tuples(
        pending, node_values,
        st.one_of(st.lists(kids, max_size=3).map(tuple), wide_kids)),
    max_leaves=12)
# a payload is mostly a residual-tree node, but any log value must encode
payloads = st.one_of(rnodes, rnodes, log_values,
                     st.tuples(st.none(), st.just(0), wide_kids),
                     st.tuples(pending, ids),
                     st.tuples(st.fractions(), pending))


@st.composite
def records(draw):
    members = tuple(draw(st.lists(ids, min_size=1, max_size=3)))
    n = len(members)
    return Record(
        draw(st.text(max_size=12)), members,
        tuple(draw(payloads) for _ in members),
        tuple(sorted(draw(st.lists(st.sampled_from(members), max_size=n,
                                   unique=True)))),
        tuple(draw(st.one_of(st.just([]), st.lists(
            st.one_of(st.none(), ids), min_size=n, max_size=n)))),
        tuple(tuple(draw(st.one_of(
            st.lists(ids, max_size=3),
            st.lists(st.integers(0, 20000), min_size=128, max_size=129))))
              for _ in members),
        draw(st.booleans()))


@st.composite
def logs(draw):
    log = ContractionLog(draw(ids), draw(st.lists(ids, max_size=20)))
    log.final_payload = draw(st.one_of(st.none(), payloads))
    for rec in draw(st.lists(records(), max_size=3)):
        log.extend((rec,), 0)
    return log


def saved_bytes(log):
    with tempfile.TemporaryDirectory() as where:
        p = os.path.join(where, "run.tclog")
        log.save(p)
        with open(p, "rb") as fh:
            return fh.read()


@functools.cache
def solved_log_bytes(problem):
    """Saved log of `mwm` on a small weighted broom, of `height` on a
    random tree or of `eval` on a sum of 8 random expressions, whose log
    holds Fractions and negative ints."""
    if problem == "eval":
        text = "+".join("(%s)" % oracles.random_expression(300 + i, 5)
                        for i in range(8))
        trees, n = [], len(text)
    else:
        tree = (with_edge_weights(broom(40), 5) if problem == "mwm"
                else random_tree(60, seed=5))
        trees, text, n = [tree], None, tree.n
    result = REGISTRY[problem]["solve"](
        trees, text, SimConfig(epsilon=0.5, n=n), 0)
    return saved_bytes(result["log"])


# the problems of one input, each of which saves one log
LOGGED = sorted(p for p, entry in REGISTRY.items() if entry["arity"] < 2)


@functools.cache
def solved_log(problem, family="random_tree"):
    """Log of `problem` on a weighted 512-vertex tree of `family`, or of
    `eval` on 30 random expressions."""
    n, seed = 1 << 9, 3
    if problem == "eval":
        trees, text = [], "+".join(
            "(%s)" % oracles.random_expression(seed * 100 + i, max_depth=5)
            for i in range(30))
        n = len(text)
    else:
        shape = (oracles.random_tree(n, seed) if family == "random_tree"
                 else getattr(oracles, family)(n))
        tree = oracles.with_vertex_weights(oracles.with_edge_weights(
            shape, seed), seed)
        trees, text = [tree], None
    return REGISTRY[problem]["solve"](
        trees, text, SimConfig(epsilon=0.5, n=n, seed=seed), seed)["log"]


def enc(*objs):
    """The bytes of objs written one after another with one str table, as
    one save writes them."""
    out, strs = bytearray(), {}
    for obj in objs:
        _enc_obj(obj, out, strs)
    return bytes(out)


class TestIntTable:
    """A save fills the table of small int encodings and empties it after;
    _enc_obj gives the same bytes with it and without it."""

    def test_the_table_holds_each_ints_encoding(self):
        table = logmod._uint_table(0x4000)
        assert table == [ref_bytes(v) for v in range(0x4000)]
        for top in (1, 0x80, 0x81, 0x100, 0x101, 0x2001):
            assert logmod._uint_table(top) == table[:top]

    def test_a_save_fills_the_table_and_empties_it(self, tmp_path):
        real, tops = logmod._enc_obj, []

        def spy(obj, out, strs):
            tops.append(logmod._UINTS[1])
            return real(obj, out, strs)

        log = ContractionLog(1, (1,))
        log.final_payload = (None, 0, ())
        with mock.patch.object(logmod, "_enc_obj", spy):
            log.save(tmp_path / "run.tclog")
        # a log of one vertex: the table holds the ids 0 and 1
        assert tops and set(tops) == {2}
        assert logmod._UINTS == ((), 0)
        log.final_payload = [1]
        with pytest.raises(InputError, match="unencodable"):
            log.save(tmp_path / "bad.tclog")
        assert logmod._UINTS == ((), 0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(log_values, records()))
    def test_same_bytes_inside_and_outside_a_save(self, obj):
        outside = enc(obj)
        with mock.patch.object(logmod, "_UINTS",
                               (logmod._uint_table(0x4000), 0x4000)):
            inside = enc(obj)
        assert inside == outside == ref_bytes(obj)



class TestShapeSave:
    @settings(max_examples=60, deadline=None)
    @given(logs())
    def test_bytes_are_the_record_encodings(self, log):
        header = (log.root, log.vertices, log.final_payload,
                  len(log.records))
        data = saved_bytes(log)
        assert data == LOG_MAGIC + enc(header, *log.records)
        assert data == LOG_MAGIC + ref_bytes(header, *log.records)

    def test_lookalike_items(self):
        # True == 1 and IntId(1) == 1 hash alike; each keeps its own bytes.
        # Label("rake") takes the table entry that the record's label,
        # "rake", then refers to
        wide = (None, 1, tuple((None, i) for i in range(130)))
        odd = ((1, True), True,
               ((0, False), (None, IntId(1)), (None, IntId(0), ()),
                (True, 1, ()), (float("-inf"), 0, ()), (1,)), Label("rake"))
        rec = Record("rake", (1, 2, 8), (wide, odd, (None, "8", ())),
                     (2, 8), (None, 1, True),
                     ((True, 1), (), tuple(range(128))), 1)
        log = ContractionLog(1, (True, 1, 2, 8))
        log.final_payload = odd
        log.extend((rec,), 0)
        header = (log.root, log.vertices, odd, 1)
        assert saved_bytes(log) == LOG_MAGIC + enc(header, rec)
        assert saved_bytes(log) == LOG_MAGIC + ref_bytes(header, rec)

    def test_each_save_has_its_own_str_table(self):
        # a table that outlived its save would make the next save of the
        # log write back-references where the first wrote its labels, and
        # a save in between, of other strs and of the labels in another
        # order, would shift their indices
        log = solved_log("height")
        labels = sorted({rec.label for rec in log.records})
        assert len(labels) > 1
        other = ContractionLog(1, (1,))
        other.final_payload = ("other",) + tuple(reversed(labels))
        first = saved_bytes(log)
        saved_bytes(other)
        assert saved_bytes(log) == first == LOG_MAGIC + ref_bytes(
            (log.root, log.vertices, log.final_payload, len(log.records)),
            *log.records)

    @pytest.mark.parametrize("problem", LOGGED)
    def test_load_then_save_gives_the_same_bytes(self, problem, tmp_path):
        log = solved_log(problem)
        first, again = tmp_path / "first.tclog", tmp_path / "again.tclog"
        log.save(first)
        back = ContractionLog.load(first)
        back.save(again)
        assert len(back.records) > 1
        assert again.read_bytes() == first.read_bytes()
        assert back.total_words == log.total_words

    @pytest.mark.parametrize("problem", LOGGED)
    def test_a_reloaded_log_has_the_same_records_and_kinds(self, problem,
                                                           tmp_path):
        # the file stores no kind: a record without parents reads as a
        # sibling batch, which only a leaf level folds. A broom's bristles
        # fold in batches, but eval's operator trees and the bypass
        # scaffolds of matching and mis give no batch
        log = solved_log(problem, "broom")
        log.save(tmp_path / "run.tclog")
        back = ContractionLog.load(tmp_path / "run.tclog")
        assert back.records == log.records
        kinds = [rec.kind for rec in back.records]
        assert kinds == [rec.kind for rec in log.records]
        assert "connected" in kinds
        assert ("sibling" in kinds) == (problem not in ("eval", "matching",
                                                        "mis"))
        for rec in back.records:
            if rec.kind == "sibling":
                assert rec.outs == () and len(rec.members) > 1
                assert re.search(r" rake L\d+$", rec.label)


# ---------------------------------------------------------------------------
# contract_component against the stitch-and-sweep it replaced: each member
# payload thawed into mutable nodes linked both ways, stitched into one tree,
# swept until no rule applies, and frozen back into tuples

class _LN:
    """Mutable working form of a residual-tree node."""

    __slots__ = ("known", "vid", "edge", "data", "kids", "parent", "acc",
                 "outs")

    def __init__(self, known, vid, edge=None, data=None, acc=None):
        self.known = known
        self.vid = vid
        self.edge = edge
        self.data = data
        self.acc = acc
        self.kids = []
        self.parent = None
        self.outs = []


def _thaw(rnode):
    if len(rnode) == 2:
        return _LN(False, rnode[1], acc=rnode[0])
    node = _LN(True, None, edge=rnode[0], data=rnode[1])
    for kid in rnode[2]:
        child = _thaw(kid)
        child.parent = node
        node.kids.append(child)
    return node


def _freeze(node, is_root=True):
    if not node.known:
        return (node.acc, node.vid)
    kids = [_freeze(kid, False) for kid in node.kids]
    if not is_root:
        # a surviving inner vertex must expose its remaining plain children,
        # or later stitches cannot find their place in the structure
        kids.extend((None, u) for u in node.outs)
    return (node.edge, node.data, tuple(kids))


def _stitch(plugin, members, parents, outs, payloads):
    """Assemble one component: thaw all member payloads, hang each non-root
    member under its parent (through the parent's pending slot when one
    exists), and note still-live external children on each member root."""
    nodes = {m: _thaw(p) for m, p in zip(members, payloads)}
    slot_at = {}
    for m in members:
        stack = [nodes[m]]
        while stack:
            nd = stack.pop()
            if nd.known:
                stack.extend(nd.kids)
            else:
                slot_at[nd.vid] = nd
    for m, pm in zip(members, parents):
        if pm is None:
            continue
        sub = nodes[m]
        slot = slot_at.pop(m, None)
        if slot is not None:
            sub.edge = _compose(plugin, slot.acc, sub.edge)
            holder = slot.parent
            holder.kids[holder.kids.index(slot)] = sub
            sub.parent = holder
        else:
            root = nodes[pm]
            sub.parent = root
            root.kids.append(sub)
    for m, os in zip(members, outs):
        nodes[m].outs = list(os)
    return nodes[members[0]]


def _local_contract(plugin, root):
    """Trim known leaves and remove one-child known vertices until no rule
    applies. The component root always survives."""
    changed = True
    while changed:
        changed = False
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.kids)
        for node in reversed(order):  # children before parents
            if not node.known or node.parent is None:
                continue
            parent = node.parent
            holes = len(node.kids) + len(node.outs)
            if holes == 0:
                value = plugin.node_value(node.data)
                parent.data = plugin.absorb(
                    parent.data, plugin.through_edge(value, node.edge))
                parent.kids.remove(node)
                changed = True
                continue
            if holes != 1:
                continue
            if node.kids:
                kid = node.kids[0]
                lo = kid.edge if kid.known else kid.acc
                edge = plugin.chain(node.edge, node.data, lo)
                if edge is not NotImplemented:
                    if kid.known:
                        kid.edge = edge
                    else:
                        kid.acc = edge
                    kid.parent = parent
                    parent.kids[parent.kids.index(node)] = kid
                    changed = True
                    continue
                clean = node.edge is None and (kid.known or kid.acc is None)
            else:
                kid = None
                edge = plugin.chain(node.edge, node.data, None)
                if edge is not NotImplemented:
                    slot = _LN(False, node.outs[0], acc=edge)
                    slot.parent = parent
                    parent.kids[parent.kids.index(node)] = slot
                    changed = True
                    continue
                clean = node.edge is None
            if not clean:
                continue
            merged = plugin.merge_chain(parent.data, node.data)
            if merged is NotImplemented:
                continue
            parent.data = merged
            if kid is None:
                kid = _LN(False, node.outs[0])
            kid.parent = parent
            parent.kids[parent.kids.index(node)] = kid
            changed = True
    return root


def reference_contract(plugin, members, parents, outs, payloads):
    root = _stitch(plugin, members, parents, outs, payloads)
    _local_contract(plugin, root)
    return _freeze(root)


def registry_expression(seed, length):
    """A sum of random expressions, `**` among their operators, of about
    `length` characters."""
    terms, size, i = [], 0, 0
    while size < length:
        term = "(%s)" % oracles.random_expression(seed * 1000 + i,
                                                  max_depth=5)
        terms.append(term)
        size += len(term) + 1
        i += 1
    return "+".join(terms)


N_REG, SEED_REG = 1 << 9, 5
# name -> (problem, epsilon, make_inputs, endings of connected-record labels
# the run must produce); between them the runs reach both algorithms, nested
# bounded runs, leaf rakes and the final machine
REGISTRY_RUNS = {
    "mwm": ("mwm", 0.5, lambda: ([with_edge_weights(
        random_tree(N_REG, SEED_REG), SEED_REG)], None),
        ("phase 1 phase 1 compress", "phase 1 phase 1 rake")),
    "mwis": ("mwis", 0.5, lambda: ([oracles.with_vertex_weights(
        broom(N_REG), SEED_REG)], None),
        (" rake L2", "phase 2 phase 1 compress")),
    "mis": ("mis", 0.5, lambda: ([random_tree(N_REG, SEED_REG)], None),
            ("phase 1 compress", "phase 1 rake")),
    "matching": ("matching", 0.5, lambda: ([broom(N_REG)], None),
                 ("phase 1 compress", "phase 1 rake")),
    "height": ("height", 0.25, lambda: ([random_tree(N_REG, SEED_REG)],
                                        None),
               ("final", " rake L1", "phase 1 phase 1 compress")),
    "sum": ("sum", 0.25, lambda: ([path(N_REG)], None),
            ("phase 1 phase 1 compress",)),
    "eval": ("eval", 0.5, lambda: ([], registry_expression(SEED_REG, N_REG)),
             ("phase 1 compress", "phase 1 rake")),
}
REGISTRY_NAMES = sorted(REGISTRY_RUNS) + ["iso"]


def registry_inputs(name):
    if name == "iso":
        t1 = random_tree(N_REG, SEED_REG)
        return [t1, oracles.relabeled_copy(t1, SEED_REG)], None
    return REGISTRY_RUNS[name][2]()


def run_registry(name, trees, text):
    """Solve a REGISTRY_RUNS case, or "iso" on a tree and a relabeled copy;
    returns the solve's log (None for iso)."""
    if name == "iso":
        verdict, _detail = iso.tree_isomorphism(
            trees[0], trees[1], cfg(N_REG, seed=SEED_REG), seed=SEED_REG)
        assert verdict
        return None
    problem, epsilon = REGISTRY_RUNS[name][:2]
    n = max(4, len(text)) if text is not None else trees[0].n
    result = REGISTRY[problem]["solve"](
        trees, text, cfg(n, epsilon=epsilon, seed=SEED_REG), SEED_REG)
    return result["log"]


class EdgeMerger(Keeper):
    """Keeper with int edges, composed by addition, and merge_chain: a
    one-hole vertex merges into its parent only where no edge is in the
    way."""

    name = "edge merger"

    def through_edge(self, value, edge):
        return value + (edge or 0)

    def compose(self, hi_edge, lo_edge):
        return hi_edge + lo_edge

    def merge_chain(self, parent_data, mid_data):
        return parent_data + mid_data


@st.composite
def components(draw):
    """A component of up to 12 members, ids 1.. with every parent before
    its children, drawn for one of four plugins that between them take
    every local rule: sum (merge_chain), height (chain on edges, pending
    accs), Keeper (neither) and EdgeMerger (merge_chain, edges). A member
    hangs under its parent through a slot in the parent's payload or as a
    plain child; payloads also carry slots of outside children, and members
    have outs."""
    plugin = draw(st.sampled_from([sum_plugin(), HeightAlgebra(), Keeper(),
                                   EdgeMerger()]))
    if isinstance(plugin, HeightAlgebra):
        edges = st.tuples(st.integers(0, 3), st.integers(-1, 5))
    elif isinstance(plugin, EdgeMerger):
        edges = st.one_of(st.none(), st.integers(0, 3))
    else:
        edges = st.none()
    k = draw(st.integers(1, 12))
    members = tuple(range(1, k + 1))
    parents = (None,) + tuple(draw(st.integers(1, v - 1))
                              for v in members[1:])
    slots = {m: [] for m in members}
    for m, pm in zip(members[1:], parents[1:]):
        if draw(st.booleans()):
            slots[pm].append((draw(st.one_of(st.none(), edges)), m))
    outside = iter(range(100, 200))
    outs = []
    for m in members:
        slots[m] += [(draw(st.one_of(st.none(), edges)), next(outside))
                     for _ in range(draw(st.integers(0, 1)))]
        outs.append(tuple(next(outside)
                          for _ in range(draw(st.integers(0, 2)))))
    payloads = []
    for m in members:
        kids = draw(st.permutations(slots[m]))
        edge = draw(edges) if m > 1 else None
        payloads.append((edge, draw(st.integers(0, 9)), tuple(kids)))
    return plugin, members, parents, tuple(outs), tuple(payloads)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(components())
    def test_drawn_components(self, comp):
        out = contract_component(*comp)
        want = reference_contract(*comp)
        assert out == want
        assert enc(out) == enc(want)

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_every_component_of_a_solve(self, name, monkeypatch):
        calls = []
        contract = engine.contract_component

        def recorded(plugin, members, parents, outs, payloads):
            out = contract(plugin, members, parents, outs, payloads)
            calls.append((plugin, members, parents, outs, payloads, out))
            return out

        monkeypatch.setattr(engine, "contract_component", recorded)
        log = run_registry(name, *registry_inputs(name))
        assert calls
        if log is not None:
            labels = [rec.label for rec in log.records
                      if rec.kind == "connected"]
            assert len(calls) == len(labels)
            for ending in REGISTRY_RUNS[name][3]:
                assert any(lb.endswith(ending) for lb in labels), ending
        for plugin, members, parents, outs, payloads, out in calls:
            want = reference_contract(plugin, members, parents, outs,
                                      payloads)
            assert out == want
            assert enc(out) == enc(want)


class TestNoCycles:
    """The engine's working data are acyclic: a solve leaves nothing that
    only the cyclic collector can free."""

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_a_solve_leaves_no_cyclic_garbage(self, name):
        trees, text = registry_inputs(name)
        assert name != "eval" or "**" in text
        was_on = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            log = run_registry(name, trees, text)
            del log
            assert gc.collect() == 0
        finally:
            if was_on:
                gc.enable()

    @pytest.mark.parametrize("on", [False, True])
    def test_collector_state_is_restored(self, on, monkeypatch):
        t = valued(path(64))
        was_on = gc.isenabled()
        try:
            (gc.enable if on else gc.disable)()
            answer, _log, _m = tree_contract(t, sum_plugin(), cfg(64))
            assert answer == 64
            assert gc.isenabled() is on
            monkeypatch.setattr(simmod, "TOTAL_BUDGET_FACTOR", 1)
            with pytest.raises(SimFault):
                tree_contract(t, sum_plugin(), cfg(64))
            assert gc.isenabled() is on
        finally:
            (gc.enable if was_on else gc.disable)()


# the plugin (class or instance; only its C_w is read) that each
# REGISTRY_NAMES entry runs, and the size of the tree that run contracts
SOLVE_PLUGIN = {"mwm": MwmAlgebra, "mwis": MwisAlgebra, "mis": MisbAlgebra,
                "matching": MisbAlgebra, "height": HeightAlgebra,
                "sum": sum_plugin(), "eval": EvalAlgebra,
                "iso": IsoAlgebra}


def contracted_size(name, trees, text, config):
    if name in ("mis", "matching"):
        return indep.bypass_expand(trees[0], config)[0].n
    if name == "eval":
        return exprs._simplify(text, config)[0].n
    return trees[0].n


class TestOneSimulatorPerSolve:
    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_one_simulator_sized_by_the_tree(self, monkeypatch, name, small):
        trees, text = registry_inputs(name)
        epsilon = REGISTRY_RUNS[name][1] if name in REGISTRY_RUNS else 0.5
        n = 4 if small else (max(4, len(text)) if text is not None
                             else trees[0].n)
        config = cfg(n, epsilon=epsilon, seed=SEED_REG)
        built = []
        init = Simulator.__init__

        def recorded_init(sim, config):
            built.append(config)
            init(sim, config)

        monkeypatch.setattr(Simulator, "__init__", recorded_init)
        problem = REGISTRY[name]
        result = problem["solve"](trees, text, config, SEED_REG)
        assert problem["check"](trees, text, result)[2]
        [run_cfg] = built
        assert run_cfg.C_w == SOLVE_PLUGIN[name].C_w
        assert run_cfg.n == max(n, contracted_size(name, trees, text,
                                                   config))
        assert (run_cfg.epsilon, run_cfg.seed) == (epsilon, SEED_REG)


class TestOneRecordForm:
    """A machine builds each record once: the log holds the very object the
    simulator's table holds inside its machine's LOG entry, in plan order."""

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_log_records_are_the_table_values(self, name):
        trees, text = registry_inputs(name)
        epsilon = REGISTRY_RUNS[name][1] if name in REGISTRY_RUNS else 0.5
        n = max(4, len(text)) if text is not None else trees[0].n
        config = cfg(n, epsilon=epsilon, seed=SEED_REG)
        if name == "iso":
            t1, t2 = trees
            t2 = iso._shifted(t2, max(t1.parent) + 1 - min(t2.parent))
            sim = run_simulator(IsoAlgebra, config, t1.n + t2.n)
            m, xs = 2 ** 61 - 1, list(range(3, 3 + t1.n))
            runs, _m = contract_side_by_side(
                [(t, IsoAlgebra(m, xs, iso._depths(t))) for t in (t1, t2)],
                sim, "iso polynomial")
            logs = [log for _answer, log in runs]
        else:
            plugin = (lifted.sum_plugin() if name == "sum"
                      else SOLVE_PLUGIN[name]())
            if name in ("mis", "matching"):
                tree = indep.bypass_expand(trees[0], config)[0]
                contract = bounded_tree_contract
            elif name == "eval":
                tree = exprs._simplify(text, config)[0]
                contract = bounded_tree_contract
            else:
                tree, contract = trees[0], tree_contract
            sim = run_simulator(plugin, config, tree.n)
            _answer, log, _m = contract(tree, plugin, config, sim)
            logs = [log]
        for log in logs:
            assert len(log.records) > 1
            i = 0
            while i < len(log.records):
                rec = log.records[i]
                entry = sim.generation[("LOG", rec.label, rec.members[0])][0]
                assert type(entry) is tuple and entry
                for j, held in enumerate(entry):
                    assert type(held) is Record
                    assert held is log.records[i + j]
                i += len(entry)

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_records_are_their_plans_with_the_payloads(self, monkeypatch,
                                                       name):
        """Each machine writes one LOG entry, under its first plan's key: in
        plan order, each plan with the payloads its members held in the
        frozen generation filled in. It leaves the plans themselves without
        payloads."""
        seen = {"connected": 0, "sibling": 0}
        machine = engine._machine

        def checked_machine(plugin, plans):
            built = machine(plugin, plans)
            run = built.run

            def checked_run(ctx):
                want = [plan._replace(payloads=tuple(
                    [ctx._table[m][0] for m in plan.members]))
                    for plan in plans]
                run(ctx)
                entry = ctx.writes[("LOG", plans[0].label,
                                    plans[0].members[0])][0]
                assert type(entry) is tuple and len(entry) == len(plans)
                for plan, rec, held in zip(plans, want, entry):
                    assert type(plan) is Record and plan.payloads is None
                    assert type(held) is Record and held == rec
                    seen[plan.kind] += 1

            built.run = checked_run
            return built

        monkeypatch.setattr(engine, "_machine", checked_machine)
        log = run_registry(name, *registry_inputs(name))
        assert seen["connected"] > 0
        if log is not None:
            assert sum(seen.values()) == len(log.records)

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_machine_bodies_return_nothing(self, monkeypatch, name):
        """A machine's only output is what it writes to the table: every
        body the engine builds returns None."""
        bodies = []
        machine = engine._machine

        def checked_machine(plugin, plans):
            built = machine(plugin, plans)
            run = built.run

            def checked_run(ctx):
                bodies.append(run(ctx))

            built.run = checked_run
            return built

        monkeypatch.setattr(engine, "_machine", checked_machine)
        run_registry(name, *registry_inputs(name))
        assert bodies and set(bodies) == {None}


class TestRetiredPayloads:
    """A machine retires the payload keys of the members it contracts: each
    consumed payload lives on only inside the record written with it, and a
    finished solve's table holds one LOG entry per machine and its roots'
    payloads. The host retires no key: every retire is a machine's."""

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_the_table_after_a_solve(self, monkeypatch, name):
        sims, contracted, unheld, host_retires = [], set(), [], []
        init, store = Simulator.__init__, Simulator.store
        run_round = Simulator.run_round
        in_round, machines_run = [], [0]

        def recorded_init(sim, config):
            sims.append(sim)
            init(sim, config)

        def recorded_run_round(sim, machines):
            machines_run[0] += len(machines)
            in_round.append(True)
            try:
                run_round(sim, machines)
            finally:
                in_round.pop()

        def recorded_store(sim, entries, retired=()):
            entries, retired = list(entries), list(retired)
            if retired and not in_round:
                host_retires.append(retired)
            records = [rec for key, (value, _w) in entries
                       if type(key) is tuple for rec in value]
            for rec in records:
                contracted.update(rec.members[1:])
            for key in retired:
                payload = sim.generation[key][0]
                if not any(p is payload for rec in records
                           for p in rec.payloads):
                    unheld.append(key)
            store(sim, entries, retired)

        monkeypatch.setattr(Simulator, "__init__", recorded_init)
        monkeypatch.setattr(Simulator, "run_round", recorded_run_round)
        monkeypatch.setattr(Simulator, "store", recorded_store)
        run_registry(name, *registry_inputs(name))
        [sim] = sims
        assert contracted and unheld == []
        assert host_retires == []
        table = sim.generation
        # a LOG key is a tuple, a payload's key its vertex id
        logged = [key for key in table if type(key) is tuple]
        live = [key for key in table if type(key) is not tuple]
        assert all(key[0] == "LOG" for key in logged)
        assert len(logged) == machines_run[0]
        assert len(live) == (2 if name == "iso" else 1)
        assert contracted.isdisjoint(live)
        assert sim._gen_words == sum(1 + words for _value, words
                                     in table.values())


class TestWritesPerRound:
    """A machine writes each plan's survivor payload and one LOG entry, the
    tuple of its records counted as their sum; the entries, in round and
    machine order, are the log."""

    @pytest.mark.parametrize("name", REGISTRY_NAMES)
    def test_one_log_entry_per_machine(self, monkeypatch, name):
        calls = []  # per _contract call: its rounds, then its logs
        plans_of = {}  # id of a built machine -> its plans
        machine, contract = engine._machine, engine._contract
        run_round = Simulator.run_round

        def recorded_machine(plugin, plans):
            built = machine(plugin, plans)
            plans_of[id(built)] = plans
            return built

        def recorded_run_round(sim, machines):
            plans = [plans_of[id(m)] for m in machines]
            writes = sim.dht_writes
            run_round(sim, machines)
            assert sim.dht_writes - writes == (
                sum(map(len, plans)) + len(machines))
            entries = []
            for bundle in plans:
                value, words = sim.generation[
                    ("LOG", bundle[0].label, bundle[0].members[0])]
                assert type(value) is tuple and len(value) == len(bundle)
                assert words == sum(word_count(rec) for rec in value)
                entries.append(value)
            calls[-1][0].append(entries)

        def recorded_contract(runs, sim, units, label):
            calls.append(([], None))
            out, metrics = contract(runs, sim, units, label)
            calls[-1] = (calls[-1][0], [log for _answer, log in out])
            return out, metrics

        monkeypatch.setattr(engine, "_machine", recorded_machine)
        monkeypatch.setattr(engine, "_contract", recorded_contract)
        monkeypatch.setattr(Simulator, "run_round", recorded_run_round)
        run_registry(name, *registry_inputs(name))
        assert calls
        for rounds, logs in calls:
            assert sum(len(log.records) for log in logs) == sum(
                len(value) for entries in rounds for value in entries)
            for log in logs:
                ids = set(log.vertices)
                records = [rec for entries in rounds for value in entries
                           if value[0].members[0] in ids for rec in value]
                assert len(records) == len(log.records) > 0
                assert all(a is b for a, b in zip(records, log.records))


class TestCollectorHandoff:
    """A run leaves its objects, the log included, in the oldest
    generation, so the young collections after it do not traverse them."""

    def test_no_record_is_left_young(self):
        t = valued(broom(300))
        was_on = gc.isenabled()
        gc.enable()
        try:
            _a, log, _m = tree_contract(t, sum_plugin(), cfg(300))
            # the first allocation after the run may start a young
            # collection, which would move what it finds to generation 1
            young = gc.get_objects(generation=0) + gc.get_objects(
                generation=1)
            assert not any(type(obj) is Record for obj in young)
            assert any(type(obj) is Record for obj in gc.get_objects())
            assert log.records
        finally:
            (gc.enable if was_on else gc.disable)()

    def test_a_caller_freeze_is_kept(self):
        t = valued(broom(300))
        was_on = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen
            _a, log, _m = tree_contract(t, sum_plugin(), cfg(300))
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
            (gc.enable if was_on else gc.disable)()

    def test_records_are_handed_over_past_a_freeze(self):
        # some interpreter builds start with objects frozen; the handoff
        # must not wait for a freeze count of 0
        t = valued(broom(300))
        was_on = gc.isenabled()
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen
            _a, log, _m = tree_contract(t, sum_plugin(), cfg(300))
            young = gc.get_objects(generation=0) + gc.get_objects(
                generation=1)
            assert not any(type(obj) is Record for obj in young)
            assert gc.get_freeze_count() == frozen
            assert log.records
        finally:
            gc.unfreeze()
            (gc.enable if was_on else gc.disable)()


# ---------------------------------------------------------------------------
# first-fit decreasing, one scan over the open bins per item: the reference
# the max-tree _pack is checked against

def reference_pack(items, sizes, cap):
    """First-fit decreasing bin packing; returns lists of items."""
    order = sorted(range(len(items)), key=lambda i: -sizes[i])
    bins, loads = [], []
    for i in order:
        for b in range(len(bins)):
            if loads[b] + sizes[i] <= cap:
                bins[b].append(items[i])
                loads[b] += sizes[i]
                break
        else:
            bins.append([items[i]])
            loads.append(sizes[i])
    return bins


class TestPack:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda cap: st.tuples(
        st.just(cap), st.lists(st.integers(0, cap + 10), max_size=70))))
    def test_bins_equal_the_reference(self, drawn):
        # sizes up to cap + 10 draw items over cap; few distinct sizes draw
        # ties, which keep their input order
        cap, sizes = drawn
        items = ["item%d" % i for i in range(len(sizes))]
        assert engine._pack(items, sizes, cap) == reference_pack(
            items, sizes, cap)

    def test_oversized_items_open_their_own_bins(self):
        assert engine._pack("abcd", [9, 2, 12, 3], 10) == [
            ["c"], ["a"], ["d", "b"]]


class TestPackedMachinesFit:
    """A machine that carries more than one plan was packed, so its declared
    words plus the words it reads stay within the run's S."""

    def assert_packed_machines_fit(self, monkeypatch, problem, tree,
                                   epsilon):
        machine, run_round = engine._machine, Simulator.run_round
        pending, packed = [], []

        def checked_machine(plugin, plans):
            built = machine(plugin, plans)
            run = built.run

            def recorded_run(ctx):
                run(ctx)
                pending.append((len(plans), built, ctx))

            built.run = recorded_run
            return built

        def checked_round(sim, machines):
            del pending[:]
            run_round(sim, machines)
            for count, built, ctx in pending:
                if count > 1:
                    packed.append(built.label)
                    words = built.input_words + ctx.read_words
                    assert words <= sim.cfg.S, (
                        "%s: %d plans hold %d words, over S = %d"
                        % (built.label, count, words, sim.cfg.S))

        monkeypatch.setattr(engine, "_machine", checked_machine)
        monkeypatch.setattr(Simulator, "run_round", checked_round)
        if problem == "mwm":
            tree = with_edge_weights(tree, 7)
        elif problem == "mwis":
            tree = oracles.with_vertex_weights(tree, 7)
        result = REGISTRY[problem]["solve"](
            [tree], None, cfg(tree.n, epsilon=epsilon, seed=7), 7)
        assert REGISTRY[problem]["check"]([tree], None, result)[2]
        return packed

    @pytest.mark.parametrize("epsilon", [0.5, 0.25])
    @pytest.mark.parametrize("family", ["random", "star"])
    @pytest.mark.parametrize("problem", ["height", "sum", "mwm", "mwis",
                                         "mis", "matching"])
    def test_families_at_n_2_10(self, monkeypatch, problem, family, epsilon):
        tree = random_tree(1 << 10, 7) if family == "random" else star(1 << 10)
        self.assert_packed_machines_fit(monkeypatch, problem, tree, epsilon)

    def test_sum_on_a_random_tree_at_n_2_13(self, monkeypatch):
        # sizing a sibling batch of two leaves one word under what its
        # machine holds puts sibling machines over S here
        packed = self.assert_packed_machines_fit(
            monkeypatch, "sum", random_tree(1 << 13, 7), 0.25)
        assert any(" rake L" in label for label in packed)


# ---------------------------------------------------------------------------
# reconstruction: the replay that walks each snapshot twice (slot ids, then
# the value) and builds its helpers per record, kept as the reference the
# one-walk replay is checked against

def reference_rnode_value(plugin, rnode, slot_fn, extra=()):
    """Subtree value of a residual tree. slot_fn(child_id, acc) supplies the
    contribution of a slot child; extra lists contributions of the root
    node's plain pending children."""
    if len(rnode) == 2:
        raise LogIntegrityError("value of a bare slot %r" % (rnode[1],))
    data = rnode[1]
    for kid in rnode[2]:
        if len(kid) == 2:
            data = plugin.absorb(data, slot_fn(kid[1], kid[0]))
        else:
            data = plugin.absorb(data, plugin.through_edge(
                reference_rnode_value(plugin, kid, slot_fn), kid[0]))
    for contribution in extra:
        data = plugin.absorb(data, contribution)
    return plugin.node_value(data)


def reference_reconstruct(log, plugin):
    """Per-vertex subtree values, by undoing the log newest-first.

    Maintains, per vertex id, the value and upward edge current for the
    moment the replay has reached; each record rewrites its members' entries
    from the stored snapshots, so earlier records always see the state their
    machines saw. A sibling batch's survivor carries the batch aggregate
    until its sibling record restores the single-vertex value."""
    if log.final_payload is None:
        raise LogIntegrityError("log has no final payload")
    values = {log.root: plugin.node_value(log.final_payload[1])}
    edges = {}
    out = {log.root: values[log.root]}

    def value_of(u, local):
        if u in local:
            return local[u]
        if u not in values:
            raise LogIntegrityError("missing value for vertex %r" % (u,))
        return values[u]

    def edge_of(u):
        if u not in edges:
            raise LogIntegrityError("missing edge for vertex %r" % (u,))
        return edges[u]

    def resolve(m, value):
        if m in out:
            raise LogIntegrityError("vertex %r resolved twice" % (m,))
        out[m] = value

    for rec in reversed(log.records):
        snaps = dict(zip(rec.members, rec.payloads))
        if rec.kind == "sibling":
            for m in rec.members:
                snap = snaps[m]
                if snap[2]:
                    raise LogIntegrityError(
                        "folded sibling %r had pending children" % (m,))
                values[m] = plugin.node_value(snap[1])
                edges[m] = snap[0]
                if m not in rec.virtual:
                    resolve(m, values[m])
            continue
        snap_slots = {m: payload_slot_ids(snaps[m])
                      for m in rec.members}
        kids_of = {m: [] for m in rec.members}
        for u, pu in zip(rec.members, rec.parents):
            if pu is not None and u not in snap_slots[pu]:
                kids_of[pu].append(u)
        local = {}

        def slot_fn(u, acc):
            edge = snaps[u][0] if u in snaps else edge_of(u)
            return plugin.through_edge(value_of(u, local),
                                       _compose(plugin, acc, edge))

        for i, m in reversed(list(enumerate(rec.members))):
            if m == rec.members[0] and not rec.root_outs_known:
                continue
            extra = [plugin.through_edge(local[u], snaps[u][0])
                     for u in kids_of[m]]
            extra.extend(plugin.through_edge(value_of(u, local), edge_of(u))
                         for u in rec.outs[i])
            local[m] = reference_rnode_value(plugin, snaps[m], slot_fn,
                                             extra)
        if rec.root_outs_known:
            if values.get(rec.members[0]) != local[rec.members[0]]:
                raise LogIntegrityError(
                    "undo mismatch at %r: stored %r, derived %r"
                    % (rec.members[0], values.get(rec.members[0]),
                       local[rec.members[0]]))
        for m in rec.members:
            edges[m] = snaps[m][0]
            if m == rec.members[0]:
                continue
            values[m] = local[m]
            if m not in rec.virtual:
                resolve(m, local[m])
    missing = set(log.vertices) - set(out)
    if missing:
        raise LogIntegrityError("unresolved vertices: %r"
                                % (sorted(missing)[:5],))
    phantom = set(out) - set(log.vertices)
    if phantom:
        raise LogIntegrityError("phantom vertices resolved: %r"
                                % (sorted(phantom)[:5],))
    return out


N_REPLAY, SEED_REPLAY = 1 << 12, 7


def iso_pair(tree, seed):
    return [tree, oracles.relabeled_copy(tree, seed)]

# run -> (problem, epsilon, inputs); with eval's `**` among the operators
REPLAY_RUNS = {
    "mwm": ("mwm", 0.5, lambda: ([with_edge_weights(
        random_tree(N_REPLAY, SEED_REPLAY), SEED_REPLAY)], None)),
    "mwm/broom": ("mwm", 0.5, lambda: ([with_edge_weights(
        broom(N_REPLAY), SEED_REPLAY)], None)),
    "mwis": ("mwis", 0.5, lambda: ([oracles.with_vertex_weights(
        caterpillar(N_REPLAY), SEED_REPLAY)], None)),
    "mwis/star": ("mwis", 0.5, lambda: ([oracles.with_vertex_weights(
        star(N_REPLAY), SEED_REPLAY)], None)),
    "mis": ("mis", 0.5, lambda: ([broom(N_REPLAY)], None)),
    "matching": ("matching", 0.5, lambda: ([broom(N_REPLAY)], None)),
    "height": ("height", 0.25, lambda: (
        [random_tree(N_REPLAY, SEED_REPLAY)], None)),
    "sum": ("sum", 0.25, lambda: ([path(N_REPLAY)], None)),
    "eval": ("eval", 0.5, lambda: (
        [], registry_expression(SEED_REPLAY, N_REPLAY))),
    "iso": ("iso", 0.5, lambda: (iso_pair(
        random_tree(N_REPLAY, SEED_REPLAY), SEED_REPLAY), None)),
}
# the max-plus runs whose logs hold every record kind: sibling, connected,
# a virtual member standing in for a folded batch, and the rake of a parent
# with its last sibling level's survivors
EVERY_KIND = ("mwm/broom", "mwis/star")
# the solvers whose answers need no replay: theirs is run on their log
REPLAY_PLUGINS = {"eval": EvalAlgebra, "height": HeightAlgebra,
                  "sum": sum_plugin}


def _raised(fn, *args):
    with pytest.raises(LogIntegrityError) as info:
        fn(*args)
    return str(info.value)


def _broom_log():
    """A sum log with sibling and connected records; virtual members stand
    in for folded batches."""
    t = valued(broom(300), lambda v: v % 7)
    _a, log, _m = tree_contract(t, sum_plugin(), cfg(300))
    kinds = {rec.kind for rec in log.records}
    assert kinds == {"sibling", "connected"}
    return log


class TestReplay:
    @pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
    def test_equals_the_reference(self, name, monkeypatch):
        calls = []
        replay = logmod.reconstruct

        def recorded(log, plugin):
            out = replay(log, plugin)
            calls.append((log, plugin, out))
            return out

        for module in (exprs, indep, iso, matching):
            monkeypatch.setattr(module, "reconstruct", recorded)
        problem, epsilon, make = REPLAY_RUNS[name]
        trees, text = make()
        n = max(4, len(text)) if text is not None else trees[0].n
        result = REGISTRY[problem]["solve"](
            trees, text, cfg(n, epsilon=epsilon, seed=SEED_REPLAY),
            SEED_REPLAY)
        assert REGISTRY[problem]["check"](trees, text, result)[2]
        if problem in REPLAY_PLUGINS:
            plugin = REPLAY_PLUGINS[problem]()
            calls.append((result["log"], plugin,
                          replay(result["log"], plugin)))
        assert problem != "eval" or "**" in text
        # iso reads only its roots' answers: it replays no log
        assert bool(calls) == (problem != "iso")
        if name in EVERY_KIND:
            records = [rec for log, _p, _o in calls for rec in log.records]
            assert {rec.kind for rec in records} == {"sibling", "connected"}
            assert any(rec.virtual for rec in records)
            assert any(rec.kind == "connected" and rec.virtual
                       and not rec.root_outs_known
                       and re.search(r" rake L\d+$", rec.label)
                       for rec in records)
        for log, plugin, out in calls:
            want = reference_reconstruct(log, plugin)
            assert list(out.items()) == list(want.items())

    @pytest.mark.parametrize("tamper, check", [
        ("drop", "unresolved"),
        ("duplicate", "resolved twice"),
        ("survivor value", "undo mismatch"),
        ("sibling kids", "had pending children"),
        ("phantom", "phantom vertices"),
        # a ghost lacks both: for an out the value is looked up first, for
        # a slot the edge
        ("ghost out", "missing value for vertex 1000000"),
        ("ghost slot", "missing edge for vertex 1000000"),
    ])
    def test_a_tampered_log_fails_the_reference_check(self, tamper, check):
        log = _broom_log()
        plugin = sum_plugin()
        records = log.records
        sibling = next(i for i, rec in enumerate(records)
                       if rec.kind == "sibling")
        rec = records[sibling]
        ghost = 10 ** 6
        if tamper.startswith("ghost"):
            # the last member of a connected record whose members all get
            # valued
            i = next(i for i in range(len(records) - 1, -1, -1)
                     if records[i].kind == "connected"
                     and records[i].root_outs_known)
            rec = records[i]
            if tamper == "ghost out":
                records[i] = rec._replace(
                    outs=rec.outs[:-1] + (rec.outs[-1] + (ghost,),))
            else:
                last = rec.payloads[-1]
                records[i] = rec._replace(payloads=rec.payloads[:-1] + (
                    last[:2] + (last[2] + ((None, ghost),),),))
        elif tamper == "drop":
            del records[sibling]
        elif tamper == "duplicate":
            records.insert(sibling, rec)
        elif tamper == "survivor value":
            final = log.final_payload
            log.final_payload = final[:1] + (final[1] + 1,) + final[2:]
        elif tamper == "sibling kids":
            last = rec.payloads[-1]
            records[sibling] = rec._replace(
                payloads=rec.payloads[:-1] + (last[:2] + (((None, 999),),),))
        else:
            records[sibling] = rec._replace(
                members=rec.members + (ghost,),
                payloads=rec.payloads + ((None, 1, ()),))
        got = _raised(reconstruct, log, plugin)
        assert check in got
        assert got == _raised(reference_reconstruct, log, plugin)

    def test_a_bare_slot_snapshot_is_rejected(self):
        log = _broom_log()
        i = next(i for i in range(len(log.records) - 1, -1, -1)
                 if log.records[i].kind == "connected")
        rec = log.records[i]
        log.records[i] = rec._replace(
            payloads=rec.payloads[:-1] + ((None, rec.members[-1]),))
        got = _raised(reconstruct, log, sum_plugin())
        assert "bare slot" in got
        assert got == _raised(reference_reconstruct, log, sum_plugin())


N_LARGE = 1 << 16


class TestLargeReplay:
    """Per-vertex replays at n = 2^16 against the sequential tables."""

    @pytest.mark.parametrize("name", ["mwm", "mwis", "height"])
    def test_replay_equals_the_oracle_table(self, name):
        seed = 11
        if name == "mwm":
            t = with_edge_weights(random_tree(N_LARGE, seed), seed)
            plugin, table = MwmAlgebra(), oracles.mwm_table
        elif name == "mwis":
            t = oracles.with_vertex_weights(caterpillar(N_LARGE), seed)
            plugin, table = MwisAlgebra(), oracles.mwis_table
        else:
            t = random_tree(N_LARGE, seed)
            plugin, table = HeightAlgebra(), oracles.height_table
        _a, log, _m = tree_contract(t, plugin, cfg(N_LARGE, seed=seed))
        assert reconstruct(log, plugin) == table(t)

    @pytest.mark.parametrize("family", ["broom", "caterpillar"])
    @pytest.mark.parametrize("problem", ["mis", "matching"])
    def test_misb_replay_equals_the_oracle_bits(self, problem, family):
        # the broom's handle is expanded into a bypass scaffold first
        t = {"broom": broom, "caterpillar": caterpillar}[family](N_LARGE)
        solve = (indep.mis_solve if problem == "mis"
                 else indep.maximal_matching_solve)
        answer, bits, work, log, metrics = solve(t, cfg(N_LARGE))
        assert metrics["violations"] == []
        assert (work.n > t.n) == (family == "broom")
        assert len(log.records) > 1
        assert bits == oracles.misb_bits(work)
        if problem == "mis":
            assert answer == sorted(oracles.greedy_mis(t))
        else:
            assert sorted(answer) == sorted(
                oracles.greedy_maximal_matching(t))

"""Maximum weighted matching: algebra vectors, oracle equality, extraction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from treecontract.engine import contract_component, tree_contract
from treecontract.oracles import (all_shapes, enumerate_mwm, matching_is_valid,
                                  matching_weight, mwm_table, path,
                                  random_tree, star, with_edge_weights)
from treecontract.problems.indep import MwisAlgebra
from treecontract.problems.matching import (MwmAlgebra, NEG_INF,
                                            format_matching, mat_mul,
                                            match_pointers, mwm_solve,
                                            segmentation_levels,
                                            vertex_tables)
from treecontract.sim import SimConfig

FRESH = lambda w: (w, NEG_INF, NEG_INF, 0)
NEUTRAL = (NEG_INF, NEG_INF, NEG_INF, 0)


# sequential references the algebra is checked against
def dp_combine(data, children):
    """Resolve a vertex whose children are all resolved. children holds
    (child id, (c, c'), edge tuple) triples; returns (c, c', match_ptr).
    Ties prefer no child, then the lowest child id."""
    alg = MwmAlgebra()
    a, b = data
    cp = b
    best = max(a, 0)
    best_u = None
    for u, value, edge in sorted(children):
        m, cut = alg.through_edge(value, edge)
        cp += cut
        gain = NEG_INF if m == NEG_INF else m - cut
        if gain > best:
            best = gain
            best_u = u
    return best + cp, cp, best_u


def contract_chain(e_upper, e_lower, mid):
    """Fuse two edges across a one-child vertex with resolved cut-off values
    mid = (c, c')."""
    c, cp = mid
    return MwmAlgebra().chain(e_upper, (c - cp, cp), e_lower)


def cfg_for(tree, epsilon=0.5):
    return SimConfig(epsilon=epsilon, n=tree.n)


def solve(tree, epsilon=0.5):
    return mwm_solve(tree, cfg_for(tree, epsilon))


class TestAlgebra:
    def test_fresh_edge(self):
        t = path(2)
        t.attrs[2]["ew"] = 5
        alg = MwmAlgebra()
        assert alg.fresh_edge(t, 2) == (5, NEG_INF, NEG_INF, 0)
        assert alg.fresh_edge(t, 1) is None

    def test_leaf(self):
        assert dp_combine((0, 0), []) == (0, 0, None)

    def test_single_child(self):
        c, cp, ptr = dp_combine((0, 0), [(2, (0, 0), FRESH(5))])
        assert (c, cp, ptr) == (5, 0, 2)

    def test_star_2_7_4(self):
        kids = [(2, (0, 0), FRESH(2)), (3, (0, 0), FRESH(7)),
                (4, (0, 0), FRESH(4))]
        assert dp_combine((0, 0), kids) == (7, 0, 3)

    def test_tie_prefers_no_child(self):
        # child already worth 3; matching it gains 3 + 0 - 3 = 0
        c, cp, ptr = dp_combine((0, 0), [(2, (3, 0), FRESH(3))])
        assert (c, cp, ptr) == (3, 3, None)

    def test_tie_prefers_lowest_id(self):
        kids = [(9, (0, 0), FRESH(7)), (2, (0, 0), FRESH(7))]
        assert dp_combine((0, 0), kids)[2] == 2

    def test_trim_single_leaf(self):
        alg = MwmAlgebra()
        contrib = alg.through_edge((0, 0), FRESH(5))
        assert contrib == (5, 0)
        assert alg.absorb((0, 0), contrib) == (5, 0)

    def test_trim_then_combine_commutes(self):
        alg = MwmAlgebra()
        rng = random.Random(7)
        for _ in range(200):
            kids = [(i, (rng.randint(0, 9) + (d := rng.randint(0, 5)), d),
                     FRESH(rng.randint(1, 5)))
                    for i in range(2, 2 + rng.randint(1, 5))]
            k = rng.randint(0, len(kids))
            data = (0, 0)
            for _, value, edge in kids[:k]:
                data = alg.absorb(data, alg.through_edge(value, edge))
            assert dp_combine(data, kids[k:])[:2] == dp_combine((0, 0), kids)[:2]


class TestChain:
    def test_three_path(self):
        fused = contract_chain(FRESH(5), FRESH(3), (0, 0))
        # hand-evaluated recurrence on the 3-path
        assert fused == (NEG_INF, 5, 3, 0)
        # root unmatched leaves the lower edge free to match: c' = 3
        assert dp_combine((0, 0), [(3, (0, 0), fused)]) == (5, 3, 3)

    def test_neutral(self):
        assert contract_chain(NEUTRAL, NEUTRAL, (0, 0)) == NEUTRAL

    def test_fold_order_on_four_chains(self):
        rng = random.Random(3)
        probes = [(0, 0), (2, 1), (5, 5), (9, 4)]
        alg = MwmAlgebra()
        for _ in range(100):
            e1, e2, e3 = (FRESH(rng.randint(1, 5)) for _ in range(3))
            mids = []
            for _ in range(2):
                cp = rng.randint(0, 4)
                mids.append((cp + rng.randint(0, 4), cp))
            left = contract_chain(contract_chain(e1, e2, mids[0]), e3, mids[1])
            right = contract_chain(e1, contract_chain(e2, e3, mids[1]), mids[0])
            for value in probes:
                assert alg.through_edge(value, left) == \
                    alg.through_edge(value, right)


class TestSibling:
    def test_star_2_7_4(self):
        alg = MwmAlgebra()
        data, edge = alg.sibling_fold([(2, 0), (7, 0), (4, 0)])
        assert data == (0, 0)
        assert edge == (NEG_INF, 7, NEG_INF, 0)
        assert alg.absorb((0, 0), alg.through_edge(alg.node_value(data),
                                                   edge)) == (7, 0)

    def test_order_independence(self):
        alg = MwmAlgebra()
        contribs = [(5, 2), (9, 9), (3, 0), (7, 4)]
        folds = {alg.sibling_fold(list(p))
                 for p in itertools.permutations(contribs)}
        assert len(folds) == 1


# ---------------------------------------------------------------------------
# the (max, +) edge algebra of mwm and mwis against its scanning definition

def scan_add(*xs):
    """Reference (max, +) sum: -inf absorbs, checked before summing."""
    if any(x == NEG_INF for x in xs):
        return NEG_INF
    return sum(xs)


def scan_mat_mul(hi, lo):
    h1, h2, h3, h4 = hi
    l1, l2, l3, l4 = lo
    return (max(scan_add(h1, l1), scan_add(h2, l3)),
            max(scan_add(h1, l2), scan_add(h2, l4)),
            max(scan_add(h3, l1), scan_add(h4, l3)),
            max(scan_add(h3, l2), scan_add(h4, l4)))


def scan_mwm_through(value, edge):
    c, cp = value
    w1, w2, w3, w4 = edge
    return (max(scan_add(w1, cp), scan_add(w2, c)),
            max(scan_add(w3, cp), scan_add(w4, c)))


def scan_mwm_chain(hi, data, lo):
    a, b = data
    mid = scan_mat_mul(hi, (NEG_INF, b, b, max(a, 0) + b))
    return mid if lo is None else scan_mat_mul(mid, lo)


def scan_mwis_through(value, edge):
    v_in, v_out = value
    ii, io, oi, oo = edge
    return (max(scan_add(ii, v_in), scan_add(io, v_out)),
            max(scan_add(oi, v_in), scan_add(oo, v_out)))


def scan_mwis_chain(hi, data, lo):
    w, a_in, a_out = data
    mid = scan_mat_mul(hi, (w + a_in, NEG_INF, NEG_INF, a_out))
    return mid if lo is None else scan_mat_mul(mid, lo)


def same(got, want):
    """Equal, and of the same types: -inf stays a float, sums stay ints."""
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


ints = st.integers(-10 ** 6, 10 ** 6)
entries = st.one_of(ints, st.just(NEG_INF))
edges4 = st.tuples(entries, entries, entries, entries)
values2 = st.tuples(entries, entries)


class TestMaxPlus:
    @settings(max_examples=300, deadline=None)
    @given(edges4, edges4)
    def test_mat_mul(self, hi, lo):
        same(mat_mul(hi, lo), scan_mat_mul(hi, lo))

    @settings(max_examples=300, deadline=None)
    @given(values2, edges4)
    def test_through_edge(self, value, edge):
        same(MwmAlgebra().through_edge(value, edge),
             scan_mwm_through(value, edge))
        same(MwisAlgebra().through_edge(value, edge),
             scan_mwis_through(value, edge))

    @settings(max_examples=300, deadline=None)
    @given(edges4, st.tuples(ints, ints), st.tuples(ints, ints, ints),
           st.one_of(st.none(), edges4))
    def test_chain(self, hi, mwm_data, mwis_data, lo):
        same(MwmAlgebra().chain(hi, mwm_data, lo),
             scan_mwm_chain(hi, mwm_data, lo))
        same(MwisAlgebra().chain(hi, mwis_data, lo),
             scan_mwis_chain(hi, mwis_data, lo))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(entries, ints), min_size=1, max_size=6))
    def test_mwm_sibling_fold(self, contributions):
        best = NEG_INF
        total = 0
        for m, cut in contributions:
            best = max(best, NEG_INF if m == NEG_INF else m - cut)
            total += cut
        data, edge = MwmAlgebra().sibling_fold(contributions)
        assert data == (0, 0)
        same(edge, (NEG_INF, scan_add(best, total), NEG_INF, total))


class TestRecurrenceReduction:
    def test_matches_two_state_dp(self):
        alg = MwmAlgebra()
        for seed in range(20):
            t = with_edge_weights(random_tree(40, seed=seed), seed=seed)
            table = {}
            for v in reversed(list(t.preorder())):
                kids = [(u, table[u], alg.fresh_edge(t, u))
                        for u in t.children[v]]
                c, cp, _ = dp_combine((0, 0), kids)
                table[v] = (c, cp)
            assert table == mwm_table(t)


class TestResidual:
    def test_path_of_six_with_two_stubs(self):
        alg = MwmAlgebra()
        members = (1, 2, 3, 4, 5, 6)
        parents = (None, 1, 2, 3, 4, 5)
        outs = ((), (), (7,), (), (), (8,))
        payloads = tuple((None if v == 1 else FRESH(v), (0, 0), ())
                         for v in members)
        out = contract_component(alg, members, parents, outs, payloads)

        # a known node has 3 fields, a slot 2
        def count(p, arity):
            return (len(p) == arity) + sum(
                count(k, arity) for k in (p[2] if len(p) == 3 else ()))
        assert count(out, 3) <= 3
        assert count(out, 2) == 2

    def test_size_invariant_on_random_runs(self):
        def audit(p):
            k = (len(p) == 3) + 0
            s = 0
            if len(p) == 3:
                for kid in p[2]:
                    dk, ds = audit(kid)
                    k += dk
                    s += ds
            else:
                s += 1
            return k, s
        for seed in range(6):
            t = with_edge_weights(random_tree(80, seed=seed), seed=seed + 50)
            _, _, _, log, _ = solve(t)
            for rec in log.records:
                for p in rec.payloads:
                    k, s = audit(p)
                    assert k <= 2 * s + 1


class TestOracle:
    def test_exhaustive_small(self):
        for n in range(1, 7):
            for i, t in enumerate(all_shapes(n)):
                with_edge_weights(t, seed=31 * n + i)
                value, edges, tables, _, metrics = solve(t)
                best, _ = enumerate_mwm(t)
                assert value == best
                es = frozenset((c, p) for c, p, w in edges)
                assert matching_is_valid(t, es)
                assert matching_weight(t, es) == best
                assert metrics["violations"] == []

    def test_random_trees(self):
        for seed in range(12):
            t = with_edge_weights(random_tree(60 + 20 * seed, seed=seed),
                                  seed=seed + 9)
            value, edges, tables, _, metrics = solve(t, [0.5, 1 / 3][seed % 2])
            ref = mwm_table(t)
            assert tables == ref
            assert value == ref[t.root][0]
            es = frozenset((c, p) for c, p, w in edges)
            assert matching_is_valid(t, es)
            assert matching_weight(t, es) == value
            assert metrics["violations"] == []

    def test_tables_round_trip(self):
        t = with_edge_weights(star(30), seed=2)
        _, _, _, log, _ = solve(t)
        assert vertex_tables(log) == mwm_table(t)


class TestExtraction:
    def test_two_path(self):
        t = path(2)
        t.attrs[2]["ew"] = 5
        value, edges, _, _, _ = solve(t)
        assert value == 5
        assert edges == [(2, 1, 5)]
        assert format_matching(edges) == ["2 1 5"]

    def test_segmentation_levels(self):
        assert segmentation_levels(64, 0.5) == 2
        assert segmentation_levels(1, 0.5) == 0
        assert segmentation_levels(2, 0.5) == 1

    def test_path64_charges_two_levels(self):
        t = with_edge_weights(path(64), seed=1)
        _, _, _, _, metrics = solve(t)
        seg = [p for p in metrics["phases"] if p["label"] == "segmentation"]
        assert seg and seg[0]["rounds"] == 2

    def test_pointers_descend(self):
        t = with_edge_weights(random_tree(50, seed=4), seed=4)
        ptr = match_pointers(t, mwm_table(t))
        assert all(t.parent[u] == v for v, u in ptr.items())

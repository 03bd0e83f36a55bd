"""Independent sets and maximal matching: bit algebra, scaffold, oracles."""

import pytest

from treecontract.oracles import (all_shapes, broom, brute_mwis, caterpillar,
                                  greedy_maximal_matching, greedy_mis,
                                  matching_is_maximal, misb_bits, mwis_table,
                                  path, random_tree, set_is_independent,
                                  set_is_maximal_independent, star,
                                  with_vertex_weights)
from treecontract.problems.indep import (FRESH_PAIR, MisbAlgebra, MwisAlgebra,
                                         bypass_expand, maximal_matching_solve,
                                         mis_solve, mwis_solve, scaffold_fan)
from treecontract.problems.matching import NEG_INF
from treecontract.sim import SimConfig


def cfg_for(tree, epsilon=0.5):
    return SimConfig(epsilon=epsilon, n=tree.n)


def pack(w1, w2):
    return w1 * 2 + w2


# sequential reference the bit algebra is checked against
def misb_combine(data, children):
    """Bit of a vertex whose children are all resolved. Runs on the unpacked
    forms: data is (bypass, a), children holds (bit, (w1, w2)) entries."""
    bypass, a = data
    for bit, (w1, w2) in children:
        a *= 1 - (w1 if bit else w2)
    return 1 - a if bypass else a


class TestBitAlgebra:
    def test_leaf_bits(self):
        alg = MisbAlgebra()
        assert alg.node_value(pack(0, 1)) == 1   # standard leaf joins
        assert alg.node_value(pack(1, 1)) == 0   # bypass leaf does not

    def test_fresh_pair(self):
        t = path(2)
        alg = MisbAlgebra()
        assert alg.fresh_edge(t, 2) == FRESH_PAIR == pack(1, 0)
        assert alg.fresh_edge(t, 1) is None

    def test_combine_standard_child_in(self):
        assert misb_combine((0, 1), [(1, (1, 0))]) == 0

    def test_combine_bypass_child_in(self):
        assert misb_combine((1, 1), [(1, (1, 0))]) == 1

    def test_combine_standard_leaf(self):
        assert misb_combine((0, 1), []) == 1

    def test_chain_standard_mid(self):
        # hand fold of the all-standard 3-chain: child in forces mid out,
        # so the grandparent sees 0; child out gives mid in, seen as 1
        alg = MisbAlgebra()
        assert alg.chain(FRESH_PAIR, pack(0, 1), FRESH_PAIR) == pack(0, 1)

    def test_chain_bypass_mid_passes_bit(self):
        alg = MisbAlgebra()
        assert alg.chain(FRESH_PAIR, pack(1, 1), FRESH_PAIR) == pack(1, 0)

    def test_chain_identity_default(self):
        alg = MisbAlgebra()
        for data in range(4):
            assert alg.chain(FRESH_PAIR, data, None) == \
                alg.chain(FRESH_PAIR, data, FRESH_PAIR)

    def test_compose(self):
        alg = MisbAlgebra()
        for e in range(4):
            assert alg.compose(e, FRESH_PAIR) == e
            assert alg.compose(FRESH_PAIR, e) == e

    def test_sibling_fold(self):
        alg = MisbAlgebra()
        assert alg.sibling_fold([0, 0, 1]) == (pack(0, 1), pack(1, 1))
        assert alg.sibling_fold([0, 0]) == (pack(0, 1), pack(0, 0))


class TestScaffold:
    def test_low_degree_identity(self):
        t = path(9)
        out, expanded = bypass_expand(t, cfg_for(t))
        assert out is t and not expanded

    def test_star_17(self):
        t = star(17)
        cfg = cfg_for(t)
        assert scaffold_fan(cfg) == 4
        out, expanded = bypass_expand(t, cfg)
        assert expanded
        scaffold = [v for v in out.vertices() if out.attrs[v].get("bypass")]
        assert len(scaffold) == 4
        assert out.deg(out.root) == 4
        assert sorted(out.children[out.root]) == sorted(scaffold)
        assert all(out.deg(b) == 4 for b in scaffold)
        assert sorted(u for b in scaffold for u in out.children[b]) == \
            list(range(2, 18))

    def test_growth_bound(self):
        for t in (star(200), caterpillar(150), broom(120),
                  random_tree(300, seed=1)):
            out, _ = bypass_expand(t, cfg_for(t))
            assert out.n <= 2 * t.n
            fan = scaffold_fan(cfg_for(t))
            assert all(out.deg(v) <= fan for v in out.vertices())

    @pytest.mark.parametrize("n, epsilon", [
        (100, 0.1), (200, 0.1), (300, 0.1), (100, 0.15), (200, 0.15),
        (300, 0.15), (100, 0.2), (200, 0.2), (5000, 0.1), (20000, 0.1)])
    def test_fan_2_star(self, n, epsilon):
        # at fan 2 every level has a trailing group of one when its size is
        # odd; a bypass vertex of one child would take the scaffold past 2n
        t = star(n)
        cfg = cfg_for(t, epsilon)
        assert scaffold_fan(cfg) == 2
        out, expanded = bypass_expand(t, cfg)
        assert expanded and out.n < 2 * t.n
        for v in out.vertices():
            assert out.deg(v) <= 2
            if out.attrs[v].get("bypass"):
                assert out.deg(v) >= 2
        chosen, _, _, _, metrics = mis_solve(t, cfg)
        assert set(chosen) == greedy_mis(t)
        assert metrics["violations"] == []
        edges, _, _, _, metrics = maximal_matching_solve(t, cfg)
        assert frozenset(edges) == greedy_maximal_matching(t)
        assert metrics["violations"] == []

    def test_canonical(self):
        a, _ = bypass_expand(star(50), cfg_for(star(50)))
        b, _ = bypass_expand(star(50), cfg_for(star(50)))
        assert a.parent == b.parent and a.children == b.children


class TestMis:
    def test_single_vertex(self):
        t = path(1)
        chosen, _, _, _, _ = mis_solve(t, cfg_for(t))
        assert chosen == [1]

    def test_path3_endpoints(self):
        t = path(3)
        chosen, _, _, _, _ = mis_solve(t, cfg_for(t))
        assert chosen == [1, 3]

    def test_star10_leaves(self):
        t = star(10)
        chosen, _, _, _, _ = mis_solve(t, cfg_for(t))
        assert chosen == list(range(2, 11))

    def test_exhaustive_small(self):
        for n in range(1, 9):
            for t in all_shapes(n):
                chosen, _, _, _, metrics = mis_solve(t, cfg_for(t))
                S = set(chosen)
                assert S == greedy_mis(t)
                assert set_is_independent(t, S)
                assert set_is_maximal_independent(t, S)
                assert metrics["violations"] == []

    def test_random_trees(self):
        for seed in range(8):
            t = random_tree(80 + 55 * seed, seed=seed)
            eps = [0.5, 1 / 3, 0.25][seed % 3]
            chosen, bits, work, _, metrics = mis_solve(t, cfg_for(t, eps))
            S = set(chosen)
            assert S == greedy_mis(t)
            assert set_is_independent(t, S)
            assert set_is_maximal_independent(t, S)
            assert metrics["violations"] == []
            assert bits == misb_bits(work)

    def test_bypass_closure(self):
        t = star(100)
        _, bits, work, _, _ = mis_solve(t, cfg_for(t))
        for v in work.vertices():
            if work.attrs[v].get("bypass"):
                assert bits[v] == int(any(bits[u] for u in work.children[v]))

    def test_bypass_charge(self):
        t = star(100)
        _, _, _, _, metrics = mis_solve(t, cfg_for(t, 1 / 3))
        byp = [p for p in metrics["phases"] if p["label"] == "bypass"]
        assert byp and byp[0]["rounds"] == 3


class TestMaximalMatching:
    def test_two_path(self):
        t = path(2)
        edges, _, _, _, _ = maximal_matching_solve(t, cfg_for(t))
        assert edges == [(2, 1)]

    def test_path5(self):
        t = path(5)
        edges, _, _, _, _ = maximal_matching_solve(t, cfg_for(t))
        assert len(edges) == 2
        assert matching_is_maximal(t, frozenset(edges))

    def test_matches_greedy_oracle(self):
        for seed in range(8):
            t = random_tree(70 + 40 * seed, seed=seed + 100)
            edges, _, _, _, metrics = maximal_matching_solve(
                t, cfg_for(t, [0.5, 1 / 3][seed % 2]))
            assert frozenset(edges) == greedy_maximal_matching(t)
            assert matching_is_maximal(t, frozenset(edges))
            assert metrics["violations"] == []

    def test_star(self):
        t = star(64)
        edges, _, _, _, _ = maximal_matching_solve(t, cfg_for(t))
        assert edges == [(2, 1)]


class TestMwis:
    def test_single_vertex(self):
        t = path(1)
        t.attrs[1]["vw"] = 9
        value, chosen, _, _, _ = mwis_solve(t, cfg_for(t))
        assert (value, chosen) == (9, [1])

    def test_path_5_1_5(self):
        t = path(3)
        for v, w in ((1, 5), (2, 1), (3, 5)):
            t.attrs[v]["vw"] = w
        value, chosen, _, _, _ = mwis_solve(t, cfg_for(t))
        assert value == 10 and chosen == [1, 3]

    def test_star_center_heavy(self):
        t = star(4)
        t.attrs[1]["vw"] = 10
        for v in (2, 3, 4):
            t.attrs[v]["vw"] = 4
        value, chosen, _, _, _ = mwis_solve(t, cfg_for(t))
        assert value == 12 and chosen == [2, 3, 4]

    def test_sibling_fold(self):
        alg = MwisAlgebra()
        data, edge = alg.sibling_fold([(3, 1), (0, 5)])
        assert data == (0, 0, 0)
        assert edge == (3, NEG_INF, NEG_INF, 6)

    def test_exhaustive_small(self):
        for n in range(1, 8):
            for i, t in enumerate(all_shapes(n)):
                with_vertex_weights(t, seed=13 * n + i)
                value, chosen, tables, _, metrics = mwis_solve(t, cfg_for(t))
                bv, bs = brute_mwis(t)
                assert value == bv
                assert set(chosen) == bs
                assert tables == mwis_table(t)
                assert metrics["violations"] == []

    def test_random_trees(self):
        for seed in range(8):
            t = with_vertex_weights(random_tree(90 + 70 * seed, seed=seed),
                                    seed=seed)
            value, chosen, tables, _, metrics = mwis_solve(
                t, cfg_for(t, [0.5, 0.25][seed % 2]))
            bv, bs = brute_mwis(t)
            assert value == bv and set(chosen) == bs
            assert tables == mwis_table(t)
            assert metrics["violations"] == []

    def test_ties_resolve_out(self):
        t = path(2)
        t.attrs[1]["vw"] = 1
        t.attrs[2]["vw"] = 1
        value, chosen, _, _, _ = mwis_solve(t, cfg_for(t))
        assert value == 1 and chosen in ([1], [2])
        assert chosen == sorted(brute_mwis(t)[1])

"""Height contractor and randomized isomorphism: one-sidedness, detection."""

import random

import pytest

from treecontract.engine import (contract_side_by_side, run_simulator,
                                 tree_contract)
from treecontract.oracles import (all_shapes, broom, caterpillar, height_table,
                                  isomorphic_rooted, path, random_tree,
                                  relabeled_copy, star)
from treecontract.problems import iso
from treecontract.problems.iso import (HeightAlgebra, IsoAlgebra, NEG_INF,
                                       detection_count, height_run,
                                       subtree_heights, tree_isomorphism)
from treecontract.sim import SimConfig
from treecontract.trees import Tree, parse_tree, serialize_tree


def height(tree, v=None):
    h = {}
    for u in tree.postorder():
        h[u] = 1 + max((h[c] for c in tree.children[u]), default=-1)
    return h[v if v is not None else tree.root]


def cfg_for(n, epsilon=0.5):
    return SimConfig(epsilon=epsilon, n=max(2, n))


class TestHeights:
    def test_matches_dfs_on_families(self):
        for t in [path(1), path(7), star(30), caterpillar(25), broom(24),
                  random_tree(90, 3)]:
            h, log, metrics = height_run(t, cfg_for(t.n))
            table = height_table(t)
            assert h == table[t.root] == height(t)
            assert subtree_heights(log) == table
            assert not metrics["violations"]

    def test_all_shapes(self):
        for t in all_shapes(6):
            h, log, _ = height_run(t, cfg_for(t.n))
            assert subtree_heights(log) == height_table(t)

    def test_low_epsilon_high_degree(self):
        t = star(80)
        h, log, _ = height_run(t, cfg_for(80, epsilon=0.25))
        assert h == 1
        assert subtree_heights(log) == height_table(t)

    def test_chain_formula(self):
        alg = HeightAlgebra()
        # climb two fused edges over a removed vertex holding height 4
        edge = alg.chain((1, NEG_INF), 4, (1, NEG_INF))
        assert edge == (2, 5)
        assert alg.through_edge(7, edge) == 9
        assert alg.through_edge(2, edge) == 5

    def test_chain_identity_low_side(self):
        alg = HeightAlgebra()
        assert alg.chain((1, NEG_INF), 0, None) == (1, 1)


class TestVerdicts:
    def test_self_comparison(self):
        t = random_tree(50, 4)
        verdict, detail = tree_isomorphism(t, t, cfg_for(50), seed=9)
        assert verdict and detail["q_left"] == detail["q_right"]

    def test_two_vertex_polynomial(self):
        verdict, detail = tree_isomorphism(path(2), path(2), cfg_for(2), seed=5)
        assert verdict
        rng = random.Random(5)
        m = rng.randint(16, 32)
        x1 = rng.randint(1, m)
        assert detail["modulus"] == m
        assert detail["q_left"] == (x1 - 1) % m

    def test_size_mismatch_shortcut(self):
        verdict, detail = tree_isomorphism(path(3), path(4), cfg_for(4))
        assert not verdict and detail["reason"] == "size"

    def test_height_mismatch_shortcut(self):
        verdict, detail = tree_isomorphism(path(3), star(3), cfg_for(3))
        assert not verdict and detail["reason"] == "height"

    def test_relabeled_always_isomorphic(self):
        for seed in range(30):
            t = random_tree(30 + 3 * seed, seed)
            r = relabeled_copy(t, seed + 1000)
            verdict, _ = tree_isomorphism(t, r, cfg_for(t.n), seed=seed)
            assert verdict, seed

    def test_path3_star3_detection(self):
        hits = detection_count(path(3), star(3), cfg_for(3), 64, seed=1)
        assert hits >= 32

    def test_same_height_pair_detection(self):
        t1 = Tree(1, {1: None, 2: 1, 3: 1, 4: 3, 5: 3})
        t2 = Tree(1, {1: None, 2: 1, 3: 1, 4: 2, 5: 3})
        assert not isomorphic_rooted(t1, t2)
        assert detection_count(t1, t2, cfg_for(5), 64, seed=2) >= 32

    def test_agrees_with_ahu_on_shapes(self):
        shapes = list(all_shapes(6))
        for i, a in enumerate(shapes):
            for b in shapes[i:]:
                want = isomorphic_rooted(a, b)
                verdict, _ = tree_isomorphism(a, b, cfg_for(6), seed=17)
                if want:
                    assert verdict
        # one-sided: equal verdicts cannot be asserted per-trial for non-iso
        # pairs, so count detections across the whole family instead
        misses = 0
        pairs = 0
        for i, a in enumerate(shapes):
            for b in shapes[i + 1:]:
                if not isomorphic_rooted(a, b):
                    pairs += 1
                    verdict, _ = tree_isomorphism(a, b, cfg_for(6), seed=23)
                    misses += 1 if verdict else 0
        assert pairs > 0 and misses <= pairs // 8


class TestInvariance:
    def test_child_order_permutation(self):
        t = random_tree(60, 9)
        tp = t.copy()
        for v in tp.vertices():
            tp.children[v] = list(reversed(tp.children[v]))
        verdict, detail = tree_isomorphism(t, tp, cfg_for(60), seed=11)
        assert verdict and detail["q_left"] == detail["q_right"]

    def test_shuffled_children(self):
        t = star(12)
        tp = t.copy()
        random.Random(0).shuffle(tp.children[1])
        verdict, detail = tree_isomorphism(t, tp, cfg_for(12), seed=13)
        assert verdict and detail["q_left"] == detail["q_right"]

    def test_epsilon_does_not_change_q(self):
        t = random_tree(70, 21)
        r = relabeled_copy(t, 5)
        q = {}
        for eps in (0.5, 0.33, 0.25):
            verdict, detail = tree_isomorphism(t, r, cfg_for(70, eps), seed=7)
            assert verdict
            q[eps] = (detail["modulus"], detail["q_left"])
        assert len(set(q.values())) == 1

    def test_strict_budgets_hold(self):
        t = random_tree(120, 2)
        r = relabeled_copy(t, 3)
        verdict, detail = tree_isomorphism(t, r, cfg_for(120), seed=4)
        assert verdict
        metrics = detail["metrics"]
        assert not metrics["violations"]
        assert metrics["total_words"] <= 64 * 120


# ---------------------------------------------------------------------------
# the four passes one after another, as tree_isomorphism ran them before its
# paired passes shared rounds: kept as the reference the paired passes must
# reproduce, in every detail but rounds and total words

def reference_tree_isomorphism(t1, t2, cfg, alpha=1, seed=0):
    detail = {"n_left": t1.n, "n_right": t2.n, "alpha": alpha, "seed": seed}
    height = HeightAlgebra()
    sim = run_simulator(height, cfg, t1.n)
    if t1.n != t2.n:
        detail["reason"] = "size"
        detail["metrics"] = sim.snapshot_metrics()
        return False, detail
    h1, log1, _ = tree_contract(t1, height, cfg, sim)
    h2, log2, _ = tree_contract(t2, height, cfg, sim)
    detail["height_left"] = h1
    detail["height_right"] = h2
    if h1 != h2:
        detail["reason"] = "height"
        detail["metrics"] = sim.snapshot_metrics()
        return False, detail
    rng = random.Random(seed)
    base = max(1, h1) * t1.n ** (alpha + 1)
    m = rng.randint(base * base, 2 * base * base)
    sim.charge_subroutine("modulus draw", 1)
    xs = [rng.randint(1, m) for _ in range(h1)]
    q1, _, _ = tree_contract(t1, IsoAlgebra(m, xs, subtree_heights(log1)),
                             cfg, sim)
    q2, _, _ = tree_contract(t2, IsoAlgebra(m, xs, subtree_heights(log2)),
                             cfg, sim)
    detail.update(reason="polynomial", modulus=m, q_left=q1, q_right=q2,
                  metrics=sim.snapshot_metrics())
    return q1 == q2, detail


# indices into all_shapes(7) of non-isomorphic pairs of equal height
EQUAL_HEIGHT_PAIRS = ((1, 2), (6, 29), (12, 15), (17, 24), (26, 33))
SAME_DETAIL = ("n_left", "n_right", "alpha", "seed", "reason", "modulus",
               "q_left", "q_right", "height_left", "height_right")
SAME_METRICS = ("dht_reads", "dht_writes", "peak_machine_words",
                "violations")


def assert_matches_reference(t1, t2, cfg, seed):
    verdict, detail = tree_isomorphism(t1, t2, cfg, seed=seed)
    want_verdict, want = reference_tree_isomorphism(t1, t2, cfg, seed=seed)
    assert verdict == want_verdict
    assert ({k: detail.get(k) for k in SAME_DETAIL}
            == {k: want.get(k) for k in SAME_DETAIL})
    got_m, want_m = detail["metrics"], want["metrics"]
    assert ({k: got_m[k] for k in SAME_METRICS}
            == {k: want_m[k] for k in SAME_METRICS})
    assert got_m["rounds"] <= want_m["rounds"]
    return got_m, want_m


class TestPairedPasses:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_benchmark_pairs_match_the_reference(self, seed):
        # the pair as the benchmark builds it: a random 2^12 tree against a
        # relabeled copy, each serialized and parsed back
        left = random_tree(1 << 12, seed)
        right = relabeled_copy(left, seed)
        t1, t2 = (parse_tree(serialize_tree(t)) for t in (left, right))
        got, want = assert_matches_reference(
            t1, t2, SimConfig(epsilon=0.5, n=t1.n, seed=seed), seed)
        assert (got["rounds"], want["rounds"]) == (17, 33)

    @pytest.mark.parametrize("family", ["path", "star", "caterpillar",
                                        "broom", "random"])
    def test_gate_families_match_the_reference(self, family):
        make = {"path": path, "star": star, "caterpillar": caterpillar,
                "broom": broom, "random": lambda n: random_tree(n, seed=n)}
        for n in (1, 2, 5, 17, 40, 60):
            base = make[family](n)
            for seed in range(3):
                twin = relabeled_copy(base, seed)
                cfg = SimConfig(epsilon=0.5, n=max(4, n), C_w=16)
                assert_matches_reference(base, twin, cfg, seed)
                assert_matches_reference(twin, base, cfg, seed + 100)

    def test_non_isomorphic_pairs_match_the_reference(self):
        shapes = list(all_shapes(7))
        # (0, 5) and (20, 47) differ in height, the others reach the
        # polynomial pass
        for i, j in ((0, 5), (20, 47)) + EQUAL_HEIGHT_PAIRS:
            a, b = shapes[i], shapes[j]
            assert not isomorphic_rooted(a, b)
            for seed in range(4):
                assert_matches_reference(a, b, cfg_for(7), seed)

    def test_detection_counts_are_unchanged(self):
        shapes = list(all_shapes(7))
        for k, (i, j) in enumerate(EQUAL_HEIGHT_PAIRS):
            a, b = shapes[i], shapes[j]
            rng = random.Random(k)
            want = sum(1 for _ in range(32) if not reference_tree_isomorphism(
                a, b, cfg_for(7), seed=rng.randrange(2 ** 32))[0])
            assert detection_count(a, b, cfg_for(7), 32, seed=k) == want


# ---------------------------------------------------------------------------
# the table between the passes: once the heights are read, the height pass's
# records and root payloads are retired, so the run peaks at one pass's size

def leaf_moved_to_root(tree):
    """tree with one of its shallower-than-height leaves moved under the
    root: the same size and height."""
    depth = {tree.root: 0}
    for v in tree.preorder():
        for c in tree.children[v]:
            depth[c] = depth[v] + 1
    top = max(depth.values())
    leaf = next(v for v in tree.preorder() if not tree.children[v]
                and 1 < depth[v] < top)
    parent = dict(tree.parent)
    parent[leaf] = tree.root
    return Tree(tree.root, parent)


def iso_pair(kind):
    t = random_tree(300, 5)
    if kind == "isomorphic":
        other = relabeled_copy(t, 6)
    else:
        other = leaf_moved_to_root(t)
        assert not isomorphic_rooted(t, other)
    return t, other


@pytest.fixture
def passes(monkeypatch):
    """label -> (the table as the pass starts, its words, total_words as
    the pass ends), for each pass tree_isomorphism runs."""
    seen = {}

    def spied(runs, sim, label):
        start = (dict(sim.generation), sim._gen_words)
        out = contract_side_by_side(runs, sim, label)
        seen[label] = start + (sim.total_words,)
        return out

    monkeypatch.setattr(iso, "contract_side_by_side", spied)
    return seen


class TestTableBetweenPasses:
    @pytest.mark.parametrize("kind", ["isomorphic", "equal-height"])
    def test_polynomial_pass_starts_on_an_empty_table(self, passes, kind):
        t1, t2 = iso_pair(kind)
        _verdict, detail = tree_isomorphism(t1, t2, cfg_for(t1.n), seed=3)
        assert detail["reason"] == "polynomial"
        table, words, _peak = passes["iso polynomial"]
        assert table == {} and words == 0

    @pytest.mark.parametrize("kind", ["isomorphic", "equal-height"])
    def test_total_words_is_the_height_pass_peak(self, passes, kind):
        t1, t2 = iso_pair(kind)
        _verdict, detail = tree_isomorphism(t1, t2, cfg_for(t1.n), seed=3)
        assert detail["reason"] == "polynomial"
        height_peak = passes["iso height"][2]
        assert height_peak > 0
        assert detail["metrics"]["total_words"] == height_peak

"""Height contractor and randomized isomorphism: one-sidedness, detection,
the depth-indexed polynomial and its single pass."""

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
from treecontract.sim import SimConfig, Simulator
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
# the polynomial pass run on one tree, then on the other, on one simulator:
# kept as the reference the side-by-side pass must reproduce, in every
# detail but rounds and total words

def reference_tree_isomorphism(t1, t2, cfg, alpha=1, seed=0):
    detail = {"n_left": t1.n, "n_right": t2.n, "alpha": alpha, "seed": seed}
    sim = run_simulator(IsoAlgebra, cfg, t1.n)
    if t1.n != t2.n:
        detail["reason"] = "size"
        detail["metrics"] = sim.snapshot_metrics()
        return False, detail
    d1, d2 = depth_table(t1), depth_table(t2)
    sim.charge("depth")
    h1, h2 = max(d1.values()), max(d2.values())
    detail["height_left"] = h1
    detail["height_right"] = h2
    if h1 != h2:
        detail["reason"] = "height"
        detail["metrics"] = sim.snapshot_metrics()
        return False, detail
    rng = random.Random(seed)
    base = max(1, h1) * t1.n ** (alpha + 1)
    m = rng.randint(base * base, 2 * base * base)
    sim.charge("modulus draw")
    xs = [rng.randint(1, m) for _ in range(h1)]
    q1, _, _ = tree_contract(t1, IsoAlgebra(m, xs, d1), cfg, sim)
    q2, _, _ = tree_contract(t2, IsoAlgebra(m, xs, d2), cfg, sim)
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
        # measured: seed 10's pair takes 2 rounds more in both
        assert (got["rounds"], want["rounds"]) == (
            (11, 17) if seed == 10 else (9, 15))

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
# the depth-indexed polynomial, evaluated exactly: Q_v is monic in x_{d(v)}
# and its factors' constant terms are the children's Q, which involve only
# deeper variables, so Q at the root determines the rooted tree

def depth_table(tree):
    depth = {tree.root: 0}
    for v in tree.preorder():
        for c in tree.children[v]:
            depth[c] = depth[v] + 1
    return depth


def exact_q(tree, xs):
    """Q at the root over the integers, x_i = xs[i]."""
    depth, q = depth_table(tree), {}
    for v in tree.postorder():
        q[v] = 1
        for c in tree.children[v]:
            q[v] *= xs[depth[v]] - q[c]
    return q[tree.root]


class TestDepthPolynomial:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_values_tell_every_shape_apart(self, n):
        rng = random.Random(n)
        xs = [rng.randrange(1, 2 ** 64) for _ in range(n)]
        shapes = list(all_shapes(n))
        values = [exact_q(t, xs) for t in shapes]
        assert len(set(values)) == len(shapes)
        for k, t in enumerate(shapes):
            assert exact_q(relabeled_copy(t, k), xs) == values[k]

    def test_the_pass_evaluates_q_mod_m(self):
        for k, t in enumerate(all_shapes(7)):
            r = relabeled_copy(t, k)
            verdict, detail = tree_isomorphism(t, r, cfg_for(7), seed=k)
            assert verdict
            h, m = detail["height_left"], detail["modulus"]
            rng = random.Random(k)
            base = max(1, h) * 7 ** 2
            assert rng.randint(base * base, 2 * base * base) == m
            xs = [rng.randint(1, m) for _ in range(h)]
            assert detail["q_left"] == exact_q(t, xs) % m


# ---------------------------------------------------------------------------
# one polynomial pass: the depths are charged once, no host retire

def leaf_moved_to_root(tree):
    """tree with one of its shallower-than-height leaves moved under the
    root: the same size and height."""
    depth = depth_table(tree)
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


class TestOnePass:
    @pytest.mark.parametrize("kind", ["isomorphic", "equal-height"])
    def test_one_pass_and_one_depth_charge(self, monkeypatch, kind):
        passes, charges = [], []
        charge = Simulator.charge_subroutine

        def spied_pass(runs, sim, label):
            passes.append((label, len(runs), dict(sim.generation),
                           list(charges)))
            return contract_side_by_side(runs, sim, label)

        def spied_charge(sim, name, rounds):
            charges.append((name, rounds))
            return charge(sim, name, rounds)

        monkeypatch.setattr(iso, "contract_side_by_side", spied_pass)
        monkeypatch.setattr(Simulator, "charge_subroutine", spied_charge)
        t1, t2 = iso_pair(kind)
        cfg = cfg_for(t1.n)
        _verdict, detail = tree_isomorphism(t1, t2, cfg, seed=3)
        assert detail["reason"] == "polynomial"
        # the pass starts on an empty table, after the two host charges;
        # the rest are the pass's own
        assert passes == [("iso polynomial", 2, {},
                           [("depth", cfg.inv_eps), ("modulus draw", 1)])]
        assert [name for name, _k in charges].count("depth") == 1
        assert [p["label"] for p in detail["metrics"]["phases"]] == [
            "depth", "modulus draw", "iso polynomial"]

    def test_height_mismatch_books_only_the_depths(self, monkeypatch):
        passes = []
        monkeypatch.setattr(iso, "contract_side_by_side",
                            lambda *args: passes.append(args))
        cfg = cfg_for(30)
        verdict, detail = tree_isomorphism(path(30), star(30), cfg)
        assert not verdict and detail["reason"] == "height"
        assert passes == []
        assert detail["metrics"]["rounds"] == cfg.inv_eps

    @pytest.mark.parametrize("kind", ["isomorphic", "equal-height"])
    def test_no_host_retire(self, monkeypatch, kind):
        host_retires, in_round = [], []
        store, run_round = Simulator.store, Simulator.run_round

        def spied_store(sim, entries, retired=()):
            retired = list(retired)
            if retired and not in_round:
                host_retires.append(retired)
            return store(sim, entries, retired)

        def spied_run_round(sim, machines):
            in_round.append(True)
            try:
                return run_round(sim, machines)
            finally:
                in_round.pop()

        monkeypatch.setattr(Simulator, "store", spied_store)
        monkeypatch.setattr(Simulator, "run_round", spied_run_round)
        t1, t2 = iso_pair(kind)
        _verdict, detail = tree_isomorphism(t1, t2, cfg_for(t1.n), seed=3)
        assert detail["reason"] == "polynomial"
        assert host_retires == []

"""Randomized rooted-tree isomorphism, and the subtree-height contractor.

Each vertex gets the polynomial Q_v = prod over children u of (x_{d_v} - Q_u),
with Q = 1 at leaves and one indeterminate per depth level. Two isomorphic
trees share Q for every assignment; non-isomorphic trees of equal size and
height disagree with high probability once the x_i are drawn at random mod m.
The evaluation runs through the contraction engine: an edge is an affine map
t -> (a*t + b) mod m, so removing chain vertices stays one multiplication.
"""

import random

from ..engine import (Algebra, contract_side_by_side, run_simulator,
                      tree_contract)
from ..log import reconstruct
from ..trees import NEG_INF, Tree


class HeightAlgebra(Algebra):
    """Subtree heights, leaves at 0. An edge (k, m) lifts a pending child
    height t to max(t + k, m): k edges climbed, m the best already-resolved
    height hanging off the removed stretch."""

    name = "height"
    C_w = 16

    def init_data(self, tree, v):
        return 0

    def fresh_edge(self, tree, v):
        if tree.parent[v] is None:
            return None
        return (1, NEG_INF)

    def node_value(self, data):
        return data

    def through_edge(self, value, edge):
        k, m = edge
        return max(value + k, m)

    def absorb(self, data, contribution):
        return max(data, contribution)

    def chain(self, hi_edge, data, lo_edge):
        k1, m1 = hi_edge
        k2, m2 = lo_edge if lo_edge is not None else (0, NEG_INF)
        return (k1 + k2, max(max(m2, data) + k1, m1))

    def compose(self, hi_edge, lo_edge):
        k1, m1 = hi_edge
        k2, m2 = lo_edge
        return (k1 + k2, max(m2 + k1, m1))

    def sibling_fold(self, contributions):
        return (max(contributions), (0, NEG_INF))


def height_run(tree, cfg):
    """Root height plus the log (reconstructable to per-vertex heights)."""
    return tree_contract(tree, HeightAlgebra(), cfg)


def subtree_heights(log):
    return reconstruct(log, HeightAlgebra())


class IsoAlgebra(Algebra):
    """Data is the running product of (x - Q_child) factors mod m; an edge
    (a, b) maps a pending child's polynomial value t to (a*t + b) mod m. The
    fresh edge of v is t -> x_{d(parent)} - t, with x_i = xs[i] the drawn
    values and d = depths the depths of the tree it runs on."""

    name = "iso"
    C_w = 16

    def __init__(self, m, xs, depths):
        self.m = m
        self.xs = xs
        self.depths = depths

    def init_data(self, tree, v):
        return 1

    def fresh_edge(self, tree, v):
        p = tree.parent[v]
        if p is None:
            return None
        return (self.m - 1, self.xs[self.depths[p]] % self.m)

    def node_value(self, data):
        return data % self.m

    def through_edge(self, value, edge):
        a, b = edge
        return (a * value + b) % self.m

    def absorb(self, data, contribution):
        return (data * contribution) % self.m

    def chain(self, hi_edge, data, lo_edge):
        a1, b1 = hi_edge
        a2, b2 = lo_edge if lo_edge is not None else (1, 0)
        return ((a1 * data * a2) % self.m, (a1 * data * b2 + b1) % self.m)

    def compose(self, hi_edge, lo_edge):
        a1, b1 = hi_edge
        a2, b2 = lo_edge
        return ((a1 * a2) % self.m, (a1 * b2 + b1) % self.m)

    def sibling_fold(self, contributions):
        p = 1
        for c in contributions:
            p = (p * c) % self.m
        return (p, (1, 0))


def _shifted(tree, offset):
    """Copy of tree's shape with every vertex id moved up by offset: attrs
    are left out (neither algebra here reads them) and the copy is not
    validated again."""
    return Tree.of_shape(
        tree.root + offset,
        {v + offset: (None if p is None else p + offset)
         for v, p in tree.parent.items()},
        {v + offset: [c + offset for c in kids]
         for v, kids in tree.children.items()})


# a non-isomorphic pair slips through one run with probability shrinking in
# n^ALPHA
ALPHA = 1


def _depths(tree):
    """Each vertex's depth, the root at 0, from one preorder walk."""
    depth = {tree.root: 0}
    for v in tree.preorder():
        depth.update(dict.fromkeys(tree.children[v], depth[v] + 1))
    return depth


def tree_isomorphism(t1, t2, cfg, seed=0):
    """Verdict plus a JSON-safe detail dict. One-sided: isomorphic inputs are
    never rejected; a non-isomorphic pair can slip through with probability
    shrinking in n^ALPHA, so callers repeat with fresh seeds. Both trees'
    depths are charged as one Euler-tour ranking (phase "depth"); the
    largest depth is the root's height. Trees of equal height h then run
    one polynomial pass side by side (phase "iso polynomial") on a
    simulator sized by t1, modulo a random integer in [B^2, 2B^2],
    B = max(1, h) * n^(ALPHA+1), drawn from seed. t2 runs on a copy whose
    ids lie past t1's, as the two runs share one table."""
    detail = {"n_left": t1.n, "n_right": t2.n, "alpha": ALPHA, "seed": seed}
    sim = run_simulator(IsoAlgebra, cfg, t1.n)
    if t1.n != t2.n:
        detail["reason"] = "size"
        detail["metrics"] = sim.snapshot_metrics()
        return False, detail
    t2 = _shifted(t2, max(t1.parent) + 1 - min(t2.parent))
    d1, d2 = _depths(t1), _depths(t2)
    sim.charge("depth")
    h1, h2 = max(d1.values()), max(d2.values())
    detail["height_left"] = h1
    detail["height_right"] = h2
    if h1 != h2:
        detail["reason"] = "height"
        detail["metrics"] = sim.snapshot_metrics()
        return False, detail
    rng = random.Random(seed)
    base = max(1, h1) * t1.n ** (ALPHA + 1)
    m = rng.randint(base * base, 2 * base * base)
    sim.charge("modulus draw")
    xs = [rng.randint(1, m) for _ in range(h1)]
    ((q1, _), (q2, _)), metrics = contract_side_by_side(
        [(t1, IsoAlgebra(m, xs, d1)), (t2, IsoAlgebra(m, xs, d2))],
        sim, "iso polynomial")
    detail.update(reason="polynomial", modulus=m, q_left=q1, q_right=q2,
                  metrics=metrics)
    return q1 == q2, detail


def detection_count(t1, t2, cfg, trials, seed=0):
    """How many of `trials` independent runs call the pair non-isomorphic."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        verdict, _ = tree_isomorphism(t1, t2, cfg, seed=rng.randrange(2 ** 32))
        if not verdict:
            hits += 1
    return hits

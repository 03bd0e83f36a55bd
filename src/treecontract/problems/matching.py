"""Maximum weighted matching on rooted trees.

Every vertex carries (a, b): b sums the cut values of folded-away children,
a the best matched-minus-cut increment seen among them. The vertex's two
DP states are read off as c' = b (vertex unmatched below) and
c = max(a, 0) + b (vertex free to match a child). An edge is a four-tuple
(w1, w2, w3, w4): wk scores the child subtree when (k odd: the far endpoint
is matched along the fused path; k > 2: the near endpoint stays cut loose).
A fresh edge of weight w is (w, -inf, -inf, 0).
"""

import math

from ..engine import Algebra, run_simulator, tree_contract
from ..errors import LogIntegrityError
from ..log import reconstruct
from ..trees import NEG_INF


def mat_mul(hi, lo):
    """(max, +) product of two edge four-tuples read as 2x2 matrices. No
    entry is ever +inf, so a plain sum already absorbs into -inf."""
    h1, h2, h3, h4 = hi
    l1, l2, l3, l4 = lo
    return (max(h1 + l1, h2 + l3), max(h1 + l2, h2 + l4),
            max(h3 + l1, h4 + l3), max(h3 + l2, h4 + l4))


class MwmAlgebra(Algebra):
    name = "mwm"
    C_w = 16

    def init_data(self, tree, v):
        return (0, 0)

    def fresh_edge(self, tree, v):
        if tree.parent[v] is None:
            return None
        return (tree.attrs[v].get("ew", 1), NEG_INF, NEG_INF, 0)

    def node_value(self, data):
        a, b = data
        return (max(a, 0) + b, b)

    def through_edge(self, value, edge):
        c, cp = value
        w1, w2, w3, w4 = edge
        return (max(w1 + cp, w2 + c), max(w3 + cp, w4 + c))

    def absorb(self, data, contribution):
        a, b = data
        m, cut = contribution
        gain = NEG_INF if m == NEG_INF else m - cut
        return (max(a, gain), b + cut)

    def chain(self, hi_edge, data, lo_edge):
        # the removed vertex acts as the transfer matrix ((-inf, c'), (c', c)):
        # matching through it twice would use it twice, hence the -inf corner
        a, b = data
        mid = mat_mul(hi_edge, (NEG_INF, b, b, max(a, 0) + b))
        return mid if lo_edge is None else mat_mul(mid, lo_edge)

    def compose(self, hi_edge, lo_edge):
        return mat_mul(hi_edge, lo_edge)

    def sibling_fold(self, contributions):
        best = NEG_INF
        total = 0
        for m, cut in contributions:
            gain = NEG_INF if m == NEG_INF else m - cut
            best = max(best, gain)
            total += cut
        return (0, 0), (NEG_INF, best + total, NEG_INF, total)

    def finalize(self, data):
        a, b = data
        return max(a, 0) + b


def vertex_tables(log):
    """Per-vertex (c, c') pairs recovered from a finished contraction log."""
    return reconstruct(log, MwmAlgebra())


def match_pointers(tree, tables):
    """v points at the child whose matched edge improves on leaving v free;
    ties break toward no child, then toward the lowest child id."""
    ptr = {}
    for v in tree.vertices():
        best_u = None
        best = 0
        for u in sorted(tree.children[v]):
            c_u, cp_u = tables[u]
            inc = tree.attrs[u].get("ew", 1) + cp_u - c_u
            if inc > best:
                best = inc
                best_u = u
        if best_u is not None:
            ptr[v] = best_u
    return ptr


def segmentation_levels(n, epsilon):
    """Pointer paths resolve in chunks of ceil(n^epsilon) per level."""
    if n <= 1:
        return 0
    alpha = max(2, math.ceil(n ** epsilon))
    levels = 1
    reach = alpha
    while reach < n:
        reach *= alpha
        levels += 1
    return levels


def extract_matching(tree, tables, sim):
    """Resolve the pointer paths top-down; the result is a matching whose
    weight equals the computed c value at the root."""
    ptr = match_pointers(tree, tables)
    sim.charge("match pointers")
    levels = segmentation_levels(tree.n, sim.cfg.epsilon)
    if ptr:
        sim.charge("segmentation", levels)
    consumed = set()
    edges = []
    for v in tree.preorder():
        if v in consumed:
            continue
        u = ptr.get(v)
        if u is None:
            continue
        if tree.parent[u] != v or u in consumed:
            sim.fault("match pointer at %r does not descend" % (v,))
        edges.append((u, v, tree.attrs[u].get("ew", 1)))
        consumed.add(v)
        consumed.add(u)
    return edges


def mwm_solve(tree, cfg):
    """Returns (optimum weight, matched edges as (child, parent, weight),
    per-vertex (c, c') tables, log, metrics)."""
    plugin = MwmAlgebra()
    sim = run_simulator(plugin, cfg, tree.n)
    value, log, _ = tree_contract(tree, plugin, cfg, sim)
    tables = vertex_tables(log)
    if tables[tree.root][0] != value:
        raise LogIntegrityError("root table disagrees with the answer")
    edges = extract_matching(tree, tables, sim)
    if sum(w for _, _, w in edges) != value:
        sim.fault("extracted matching weighs %r, the table says %r"
                  % (sum(w for _, _, w in edges), value))
    return value, edges, tables, log, sim.snapshot_metrics()


def format_matching(edges):
    return ["%d %d %d" % (c, p, w) for c, p, w in sorted(edges)]

"""Independent sets and maximal matching via bypass scaffolding.

The bit DP: a vertex carries (B, a) where B marks scaffold (bypass) vertices
and a = 1 while no absorbed child is in the set. With x = a * prod(1 - c_u)
over the remaining children, a standard vertex joins the set iff x = 1 and a
bypass vertex iff x = 0. Edges carry a bit pair (w1, w2): the child's bit j
is seen by its parent as w1 if j else w2; fresh edges are (1, 0). Data and
edges are packed two bits to a word so residual payloads stay within the
tight C_w = 8 budget that makes the scaffold fan equal n^epsilon.

The weighted variant mirrors the matching algebra: vertices carry additive
(weight, A_in, A_out) accumulators and edges a four-tuple t = (ii, io, oi, oo)
scoring the fused path between the two endpoint states.
"""

from ..engine import (Algebra, bounded_tree_contract, degree_budget,
                      run_simulator, tree_contract)
from ..log import reconstruct
from ..trees import NEG_INF, Tree
from .matching import mat_mul, segmentation_levels

FRESH_PAIR = 2  # (w1, w2) = (1, 0)


def _pick(pair, bit):
    return (pair >> 1) & 1 if bit else pair & 1


class MisbAlgebra(Algebra):
    name = "misb"
    C_w = 8

    def init_data(self, tree, v):
        return tree.attrs[v].get("bypass", 0) * 2 + 1

    def fresh_edge(self, tree, v):
        if tree.parent[v] is None:
            return None
        return FRESH_PAIR

    def node_value(self, data):
        bypass, a = data >> 1, data & 1
        return 1 - a if bypass else a

    def through_edge(self, value, edge):
        return _pick(edge, value)

    def absorb(self, data, contribution):
        a = (data & 1) * (1 - contribution)
        return (data & ~1) | a

    def chain(self, hi_edge, data, lo_edge):
        if lo_edge is None:
            lo_edge = FRESH_PAIR
        bypass, a = data >> 1, data & 1

        def mid_bit(j):
            x = a * (1 - _pick(lo_edge, j))
            return 1 - x if bypass else x

        return _pick(hi_edge, mid_bit(1)) * 2 + _pick(hi_edge, mid_bit(0))

    def compose(self, hi_edge, lo_edge):
        return _pick(hi_edge, (lo_edge >> 1) & 1) * 2 + \
            _pick(hi_edge, lo_edge & 1)

    def sibling_fold(self, contributions):
        o = int(any(contributions))
        return 1, o * 3


def scaffold_fan(cfg):
    return degree_budget(cfg.replaced(C_w=MisbAlgebra.C_w))


def bypass_expand(tree, cfg):
    """Replace every vertex of degree > fan with an almost complete fan-ary
    scaffold of bypass vertices, children packed left to right, built level
    by level until one level fits. A level's trailing group of one is carried
    up unwrapped, so every bypass vertex has at least two children and the
    scaffold adds fewer vertices than the tree has edges. Returns (expanded
    tree, expanded flag)."""
    fan = scaffold_fan(cfg)
    if all(tree.deg(v) <= fan for v in tree.vertices()):
        return tree, False
    parent = {tree.root: None}
    attrs = dict(tree.attrs)
    fresh = max(tree.vertices()) + 1
    for v in sorted(tree.vertices()):
        level = list(tree.children[v])
        while len(level) > fan:
            nxt = []
            for i in range(0, len(level), fan):
                if i == len(level) - 1:
                    nxt.append(level[i])
                    continue
                b = fresh
                fresh += 1
                attrs[b] = {"bypass": 1}
                for u in level[i:i + fan]:
                    parent[u] = b
                nxt.append(b)
            level = nxt
        for u in level:
            parent[u] = v
    out = Tree(tree.root, parent, attrs=attrs)
    if out.n > 2 * tree.n:
        raise AssertionError("scaffold grew past 2n")
    return out, True


def _misb_run(tree, cfg):
    plugin = MisbAlgebra()
    work, expanded = bypass_expand(tree, cfg)
    sim = run_simulator(plugin, cfg, work.n)
    if expanded:
        sim.charge("bypass")
    _, log, _ = bounded_tree_contract(work, plugin, cfg, sim)
    return reconstruct(log, plugin), work, log, sim


def mis_solve(tree, cfg):
    """Greedy-canonical maximal independent set: all leaves, then every
    vertex none of whose children made it."""
    bits, work, log, sim = _misb_run(tree, cfg)
    chosen = sorted(v for v in tree.vertices() if bits[v])
    return chosen, bits, work, log, sim.snapshot_metrics()


def maximal_matching_solve(tree, cfg):
    """Greedy-canonical maximal matching: the free bit obeys the standard
    vertex rule, and a non-free vertex matches its first free child."""
    bits, work, log, sim = _misb_run(tree, cfg)
    sim.charge("greedy edges")
    edges = []
    for v in tree.vertices():
        if not bits[v]:
            u = next(c for c in tree.children[v] if bits[c])
            edges.append((u, v))
    return edges, bits, work, log, sim.snapshot_metrics()


class MwisAlgebra(Algebra):
    name = "mwis"
    C_w = 16

    def init_data(self, tree, v):
        return (tree.attrs[v].get("vw", 1), 0, 0)

    def fresh_edge(self, tree, v):
        if tree.parent[v] is None:
            return None
        return (NEG_INF, 0, 0, 0)

    def node_value(self, data):
        w, a_in, a_out = data
        return (w + a_in, a_out)

    def through_edge(self, value, edge):
        v_in, v_out = value
        ii, io, oi, oo = edge
        return (max(ii + v_in, io + v_out), max(oi + v_in, oo + v_out))

    def absorb(self, data, contribution):
        w, a_in, a_out = data
        g_in, g_out = contribution
        return (w, a_in + g_in, a_out + g_out)

    def chain(self, hi_edge, data, lo_edge):
        v_in, v_out = self.node_value(data)
        mid = mat_mul(hi_edge, (v_in, NEG_INF, NEG_INF, v_out))
        return mid if lo_edge is None else mat_mul(mid, lo_edge)

    def compose(self, hi_edge, lo_edge):
        return mat_mul(hi_edge, lo_edge)

    def sibling_fold(self, contributions):
        g_in = sum(c[0] for c in contributions)
        g_out = sum(c[1] for c in contributions)
        return (0, 0, 0), (g_in, NEG_INF, NEG_INF, g_out)

    def finalize(self, data):
        return max(self.node_value(data))


def mwis_solve(tree, cfg):
    """Returns (optimum weight, chosen set, per-vertex (in, out) tables,
    log, metrics). Ties at a vertex resolve to leaving it out."""
    plugin = MwisAlgebra()
    sim = run_simulator(plugin, cfg, tree.n)
    value, log, _ = tree_contract(tree, plugin, cfg, sim)
    tables = reconstruct(log, plugin)
    sim.charge("set extraction", segmentation_levels(tree.n, cfg.epsilon))
    chosen = set()
    state = {tree.root: tables[tree.root][0] > tables[tree.root][1]}
    for v in tree.preorder():
        if state[v]:
            chosen.add(v)
        for u in tree.children[v]:
            state[u] = not state[v] and tables[u][0] > tables[u][1]
    total = sum(tree.attrs[v].get("vw", 1) for v in chosen)
    if total != value:
        sim.fault("extracted set weighs %r, the table says %r"
                  % (total, value))
    return value, sorted(chosen), tables, log, sim.snapshot_metrics()

"""The algebraic laws the contraction engine relies on, checked for every
plugin on states the engine can reach.

Every data, edge and value below is built from init_data and fresh_edge
through absorb, through_edge, chain, compose and sibling_fold, the way the
engine builds them; arbitrary tuples would test laws the engine never
needs (MWM's chain law, for one, fails on max-plus tuples no run makes).
The laws:

- absorb does not care in which order a vertex's children arrive
- compose is associative
- chain(hi, d, lo) == compose(chain(hi, d, None), lo)
- removing a one-child vertex by chain keeps its child's contribution:
  through_edge(v, chain(hi, d, lo)) ==
  through_edge(node_value(absorb(d, through_edge(v, lo))), hi)
- the stand-in leaf of a folded sibling batch absorbs to the same data as
  the batch
- LiftedAlgebra: c1(c1(a, x), y) == c1(a, r1(x, y)), and merge_chain
  (c1 again) folds a one-child vertex into its parent soundly
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecontract.errors import ExprArithmeticError
from treecontract.oracles import eval_reference
from treecontract.problems.exprs import EvalAlgebra, evaluate_expression
from treecontract.problems.indep import MisbAlgebra, MwisAlgebra
from treecontract.problems.iso import HeightAlgebra, IsoAlgebra
from treecontract.problems.lifted import sum_plugin
from treecontract.problems.matching import MwmAlgebra
from treecontract.sim import SimConfig
from treecontract.trees import Tree

DEPTH = 3  # nesting of absorb/chain/compose behind one drawn state


def _attrs(rng):
    return {"ew": rng.randint(-9, 20), "vw": rng.randint(-9, 20),
            "val": rng.randint(-9, 20), "bypass": rng.randrange(2)}


class Reach:
    """Draws reachable states of a plugin whose vertices take any number
    of children. init_data reads vertex 1 and fresh_edge vertex 2 of a
    two-vertex tree, its attrs drawn afresh for each read."""

    def __init__(self, plugin, rng):
        self.plugin, self.rng = plugin, rng
        self._tree = Tree(1, {1: None, 2: 1})

    def tree(self):
        t = self._tree
        t.attrs[1], t.attrs[2] = _attrs(self.rng), _attrs(self.rng)
        return t

    def data(self, depth=DEPTH):
        """A vertex's data with up to two finished children absorbed."""
        p = self.plugin
        d = p.init_data(self.tree(), 1)
        for _ in range(self.rng.randrange(3) if depth else 0):
            d = p.absorb(d, self.contribution(depth - 1))
        return d

    def value(self, depth=DEPTH):
        return self.plugin.node_value(self.data(depth))

    def contribution(self, depth=DEPTH):
        """A finished child seen through its edge, or the stand-in leaf of
        a folded sibling batch seen through its own."""
        p = self.plugin
        if depth and self.rng.random() < 0.25:
            data, edge = self.batch(depth - 1)
            return p.through_edge(p.node_value(data), edge)
        return p.through_edge(self.value(depth), self.edge(depth))

    def batch(self, depth):
        """sibling_fold of one to three finished leaves' contributions."""
        return self.plugin.sibling_fold(
            [self.contribution(depth) for _ in range(self.rng.randint(1, 3))])

    def edge(self, depth=DEPTH):
        """A fresh edge, or one made by compose, chain or a sibling fold."""
        p, rng = self.plugin, self.rng
        kind = rng.randrange(4) if depth else 0
        out = NotImplemented
        if kind == 1:
            out = p.compose(self.edge(depth - 1), self.edge(depth - 1))
        elif kind == 2:
            out = p.chain(self.edge(depth - 1), self.data(depth - 1),
                          self.lower_edge(depth - 1))
        elif kind == 3:
            out = self.batch(depth - 1)[1]
        if out is NotImplemented:
            return p.fresh_edge(self.tree(), 2)
        return out

    def lower_edge(self, depth=DEPTH):
        """The edge below a removed one-child vertex: a slot's acc, which
        is None until a chain fills it, or its child's edge."""
        return None if self.rng.random() < 0.3 else self.edge(depth)

    def hole_data(self):
        """The data of a vertex whose one pending child is a hole."""
        return self.data()


class IsoReach(Reach):
    """IsoAlgebra's fresh edge reads the parent's depth level; each tree
    draws it."""

    def tree(self):
        self.plugin.depths[1] = self.rng.randrange(len(self.plugin.xs))
        return super().tree()


class EvalReach(Reach):
    """Binary operator trees: data is (code, x, y, pos) with each operand
    absorbed once, at its position, and an edge carries its child's
    position. States whose exact arithmetic fails (a zero denominator, a
    bad exponent) raise before any run gets past them, so they are drawn
    again as a number leaf."""

    def number(self):
        rng = self.rng
        return (0, Fraction(rng.randint(0, 12), rng.choice([1, 1, 2, 10])),
                None, rng.randrange(100))

    def operator(self):
        return (self.rng.randint(1, 5), None, None, self.rng.randrange(100))

    def data(self, depth=DEPTH):
        if not depth or self.rng.random() < 0.3:
            return self.number()
        d = self.operator()
        try:
            for at in (0, 1):
                d = self.plugin.absorb(d, self.contribution(depth - 1, at))
            if d[0] == 5 and d[2] > 4:
                return self.number()  # keeps nested powers small
            self.plugin.node_value(d)
        except ExprArithmeticError:
            return self.number()
        return d

    def contribution(self, depth=DEPTH, at=0):
        p = self.plugin
        try:
            return p.through_edge(self.value(depth), self.edge(depth, at))
        except ExprArithmeticError:
            return (at, self.number()[1])

    def edge(self, depth=DEPTH, at=None):
        """An edge of a child at position `at` (drawn when None)."""
        p, rng = self.plugin, self.rng
        if at is None:
            at = rng.randrange(2)
        kind = rng.randrange(3) if depth else 0
        out = NotImplemented
        try:
            if kind == 1:
                out = p.compose(self.edge(depth - 1, at),
                                self.edge(depth - 1))
            elif kind == 2:
                d = self.hole_data(depth - 1)
                hole = 0 if d[1] is None else 1
                lo = (None if rng.random() < 0.3
                      else self.edge(depth - 1, hole))
                out = p.chain(self.edge(depth - 1, at), d, lo)
        except ExprArithmeticError:
            pass
        if out is NotImplemented:
            return (at, None)
        return out

    def hole_data(self, depth=DEPTH):
        """Operator data with one operand absorbed and the other pending."""
        d = self.operator()
        at = self.rng.randrange(2)
        return self.plugin.absorb(d, self.contribution(depth, at))


def _iso(rng):
    m = rng.randint(2, 10 ** 9)
    return IsoAlgebra(m, [rng.randrange(m) for _ in range(4)], {})


PLUGINS = {
    "height": (HeightAlgebra, Reach),
    "iso": (_iso, IsoReach),
    "mwm": (MwmAlgebra, Reach),
    "mwis": (MwisAlgebra, Reach),
    "misb": (MisbAlgebra, Reach),
    "eval": (EvalAlgebra, EvalReach),
    "sum": (sum_plugin, Reach),
}
EDGE_PLUGINS = [name for name in PLUGINS if name != "sum"]
BATCH_PLUGINS = [name for name in PLUGINS if name != "eval"]


def reach(name, seed):
    """The plugin and its state drawer, seeded by seed."""
    rng = random.Random(seed)
    make, cls = PLUGINS[name]
    plugin = make(rng) if name == "iso" else make()
    return plugin, cls(plugin, rng)


def outcome(f, *args):
    """f(*args), or the arithmetic error it raises."""
    try:
        return "value", f(*args)
    except ExprArithmeticError:
        return ("error",)


laws = settings(max_examples=150, deadline=None)
# each example seeds its own Random: a Hypothesis-drawn one costs a draw
# per call, some thousand per example
seeds = st.integers(0, 2 ** 32 - 1)


@laws
@pytest.mark.parametrize("name", sorted(PLUGINS))
@given(seed=seeds)
def test_absorb_order_does_not_matter(name, seed):
    plugin, r = reach(name, seed)
    if name == "eval":
        d = r.operator()
        cs = [r.contribution(DEPTH, 0), r.contribution(DEPTH, 1)]
    else:
        d = r.data()
        cs = [r.contribution() for _ in range(r.rng.randint(2, 4))]
    shuffled = cs[:]
    r.rng.shuffle(shuffled)
    first, second = d, d
    for c in cs:
        first = plugin.absorb(first, c)
    for c in shuffled:
        second = plugin.absorb(second, c)
    assert first == second


@laws
@pytest.mark.parametrize("name", EDGE_PLUGINS)
@given(seed=seeds)
def test_compose_is_associative(name, seed):
    plugin, r = reach(name, seed)
    a, b, c = r.edge(), r.edge(), r.edge()
    assert plugin.compose(plugin.compose(a, b), c) == \
        plugin.compose(a, plugin.compose(b, c))


def _chain_state(name, r):
    """(hi, d, lo) of a removable one-child vertex; for eval, operator
    data with its pending operand's edge at the hole."""
    hi, d = r.edge(), r.hole_data()
    if name == "eval":
        hole = 0 if d[1] is None else 1
        return hi, d, r.edge(DEPTH, hole)
    return hi, d, r.edge()


@laws
@pytest.mark.parametrize("name", EDGE_PLUGINS)
@given(seed=seeds)
def test_chain_then_compose_equals_chain(name, seed):
    plugin, r = reach(name, seed)
    hi, d, lo = _chain_state(name, r)
    whole = outcome(plugin.chain, hi, d, lo)
    upper = outcome(plugin.chain, hi, d, None)
    if whole[0] == "value" and whole[1] is NotImplemented:
        assert upper == ("value", NotImplemented)
        return
    assert whole == (upper if upper[0] == "error" else
                     ("value", plugin.compose(upper[1], lo)))


@laws
@pytest.mark.parametrize("name", EDGE_PLUGINS)
@given(seed=seeds)
def test_chain_keeps_the_child_contribution(name, seed):
    plugin, r = reach(name, seed)
    hi, d, lo = _chain_state(name, r)
    v = r.value()

    def removed():
        edge = plugin.chain(hi, d, lo)
        return edge if edge is NotImplemented else \
            plugin.through_edge(v, edge)

    def stepwise():
        below = plugin.absorb(d, plugin.through_edge(v, lo))
        return plugin.through_edge(plugin.node_value(below), hi)

    got, want = outcome(removed), outcome(stepwise)
    if got == ("value", NotImplemented):
        return  # the vertex stays in the residual tree
    if want[0] == "error":
        # a zero denominator on the way up, which the chained edge may
        # cancel; the solver's stepwise evaluation raises it (see
        # test_a_pole_inside_a_chain_is_an_error)
        return
    assert got == want


@laws
@pytest.mark.parametrize("name", BATCH_PLUGINS)
@given(seed=seeds)
def test_the_stand_in_leaf_absorbs_like_its_batch(name, seed):
    plugin, r = reach(name, seed)
    d = r.data()
    cs = [r.contribution() for _ in range(r.rng.randint(1, 4))]
    data, edge = plugin.sibling_fold(cs)
    one = plugin.absorb(d, plugin.through_edge(plugin.node_value(data), edge))
    each = d
    for c in cs:
        each = plugin.absorb(each, c)
    assert one == each


@laws
@given(seeds)
def test_lifted_c1_r1_compatibility(seed):
    plugin, r = reach("sum", seed)
    a, x, y = r.data(), r.value(), r.value()
    assert plugin.c1(plugin.c1(a, x), y) == plugin.c1(a, plugin.r1(x, y))
    # merge_chain: the middle vertex's data folds into its parent, and its
    # child then reattaches below the parent
    merged = plugin.absorb(plugin.merge_chain(a, x), y)
    assert merged == plugin.absorb(a, plugin.node_value(plugin.absorb(x, y)))


# 1/(1/0) inside a chain: the composed edge is the identity, so the hole's 0
# passes through it where the exact arithmetic divides by 0; the solver's
# stepwise evaluation divides by it. The first input is made by hand, the
# others are the first that a fuzz over a/(b/Z), Z a sum of (1-1) terms,
# found printing a value
@pytest.mark.parametrize("epsilon", [0.5, 0.25])
@pytest.mark.parametrize("s", [
    "(2/(1/((1-1)+(1-1))))/2",
    "(9+(9/(4/(((1-1)-(1-1))+((1-1)+(1-1))))))",
    "((9*2)-(6/(5/((1-1)+(1-1)))))",
    "((6-(5/(7/(((1-1)-(1-1))-((1-1)+(1-1))))))+5)",
])
def test_a_pole_inside_a_chain_is_an_error(s, epsilon):
    assert outcome(eval_reference, s) == ("error",)
    with pytest.raises(ExprArithmeticError, match="^division by zero"):
        evaluate_expression(s, SimConfig(epsilon=epsilon, n=len(s)))

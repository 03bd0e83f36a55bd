"""Expression evaluation straight from the raw string.

The string is made precedence-explicit by local parenthesis insertions, a
chunked matcher pairs every parenthesis, one simultaneous pass deletes the
redundant pairs, and a top-level operator scan turns the remainder into a
binary tree. Contraction then evaluates it with edges carrying Mobius maps
(a*x + b)/(c*x + d): removing a one-child operator composes its partial
application onto the edge. `**` with a non-literal exponent is not a Mobius
map, so such vertices ride along as residual payload until both operands
resolve; literal exponents never reach the contractor (see _pow_unfold).
"""

import math
from bisect import bisect_left
from fractions import Fraction

from ..engine import Algebra, bounded_tree_contract, run_simulator
from ..errors import ExprArithmeticError, InputError, LogIntegrityError
from ..log import reconstruct
from ..trees import Tree

_CODE = {"+": 1, "-": 2, "*": 3, "/": 4, "**": 5}
_POW_CAP = 64
# vertices an unfolded expression may have: ((2**64)**64)**64 is 2^19 - 1
_UNFOLD_CAP = 1 << 20


def tokenize(s):
    """Tokens (kind, value, position-in-s) with kind num | op | paren.
    Unicode multiplication/division/minus signs are accepted."""
    s = s.replace("−", "-").replace("×", "*").replace("÷", "/")
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            try:
                num = int(s[i:j])
            except ValueError:  # a digit int() refuses, or too many digits
                raise InputError("unreadable number at position %d" % i
                                 ) from None
            toks.append(("num", num, i))
            i = j
        elif s.startswith("**", i):
            toks.append(("op", "**", i))
            i += 2
        elif ch in "+-*/":
            toks.append(("op", ch, i))
            i += 1
        elif ch in "()":
            toks.append(("paren", ch, i))
            i += 1
        else:
            raise InputError("unexpected character %r at position %d" % (ch, i))
    return toks


# ---------------------------------------------------------------------------
# step 1: insertions. Additive operators get two parentheses on each side,
# multiplicative get one, `**` none, and source parentheses are tripled, so
# every parenthesis level holds operators of a single precedence class.

def _insert(toks):
    syn_open = ("(", None, -1)
    syn_close = (")", None, -1)
    cells = [syn_open, syn_open]
    for kind, val, pos in toks:
        if kind == "num":
            cells.append(("num", val, pos))
        elif kind == "paren" and val == "(":
            cells += [("(", None, pos), syn_open, syn_open]
        elif kind == "paren":
            cells += [syn_close, syn_close, (")", None, pos)]
        elif val in "+-":
            cells += [syn_close, syn_close, ("op", val, pos), syn_open, syn_open]
        elif val in "*/":
            cells += [syn_close, ("op", val, pos), syn_open]
        else:
            cells.append(("op", val, pos))
    cells += [syn_close, syn_close]
    return cells


def _render(cells):
    """Concatenated text plus a map from parenthesis character offsets back to
    cell indices (parentheses are the only cells the matcher cares about)."""
    parts = []
    cell_at = {}
    at = 0
    for i, (kind, val, _) in enumerate(cells):
        txt = kind if kind in "()" else (str(val) if kind == "num" else val)
        if kind in "()":
            cell_at[at] = i
        parts.append(txt)
        at += len(txt)
    return "".join(parts), cell_at


# ---------------------------------------------------------------------------
# step 2: chunked matching. Chunks of ~n^eps cancel their complete pairs
# locally; what is left of a chunk is a run of ')' then a run of '(' and those
# residues merge in groups per level until one summary remains.

def _match_levels(s, epsilon, source_pos=None):
    """Matching plus merge levels. An unbalanced parenthesis is reported at
    its offset in s, or at source_pos(offset) when s was rendered from some
    other input."""
    out = {}
    if not s:
        return out, 0
    alpha = max(2, math.ceil(len(s) ** epsilon))
    summaries = []
    for start in range(0, len(s), alpha):
        closes, opens = [], []
        for i in range(start, min(start + alpha, len(s))):
            if s[i] == "(":
                opens.append(i)
            elif s[i] == ")":
                if opens:
                    j = opens.pop()
                    out[i] = j
                    out[j] = i
                else:
                    closes.append(i)
        summaries.append((closes, opens))
    levels = 0
    while len(summaries) > 1:
        levels += 1
        merged = []
        for g in range(0, len(summaries), alpha):
            closes, opens = [], []
            for cs, os in summaries[g:g + alpha]:
                for i in cs:
                    if opens:
                        j = opens.pop()
                        out[i] = j
                        out[j] = i
                    else:
                        closes.append(i)
                opens.extend(os)
            merged.append((closes, opens))
        summaries = merged
    closes, opens = summaries[0]
    if closes or opens:
        paren, at = (")", closes[0]) if closes else ("(", opens[-1])
        if source_pos is not None:
            at = source_pos(at)
        raise InputError("unbalanced %r at position %d" % (paren, at))
    return out, levels


# ---------------------------------------------------------------------------
# step 3: simultaneous deletion of immediately-nested twin pairs, decided on
# the pre-deletion string.

def _prune(cells, cmatch):
    dead = set()
    for i in range(len(cells) - 1):
        if (cells[i][0] == "(" and cells[i + 1][0] == "("
                and cmatch[i] == cmatch[i + 1] + 1):
            dead.add(i)
            dead.add(cmatch[i])
    return dead


# ---------------------------------------------------------------------------
# step 4: operator tree. Within one level the surviving operators share a
# precedence class; the root is the last additive (or multiplicative) one,
# or the first `**` since that one associates to the right.

def _pos_near(cells, alive, a, b):
    for t in range(a, b):
        if cells[alive[t]][2] >= 0:
            return cells[alive[t]][2]
    for t in range(min(a, len(alive) - 1), -1, -1):
        if cells[alive[t]][2] >= 0:
            return cells[alive[t]][2]
    return 0


def _build(cells, cmatch, dead):
    """Operator tree of the pruned cells as nested tuples: ("num", value,
    pos) leaves and (sym, pos, left, right) operators. Each range is split
    at its root operator among the operators at the range's own nesting
    depth; the first malformed range in preorder raises."""
    alive = [i for i in range(len(cells)) if i not in dead]
    depth_at = []  # nesting depth before each alive cell
    ops = {}  # depth -> alive indices of the operators at that depth
    depth = 0
    for t, i in enumerate(alive):
        kind = cells[i][0]
        depth_at.append(depth)
        if kind == "(":
            depth += 1
        elif kind == ")":
            depth -= 1
        elif kind == "op":
            ops.setdefault(depth, []).append(t)
    nodes = []  # preorder; an operator is [sym, pos, left, right] indices
    stack = [(0, len(alive), None, 0)]
    while stack:
        a, b, up, side = stack.pop()
        if up is not None:
            nodes[up][side] = len(nodes)
        while (a < b and cells[alive[a]][0] == "("
               and cmatch.get(alive[a]) == alive[b - 1]):
            a += 1
            b -= 1
        if a >= b:
            # a missing operand is named by the operator that lacks it
            raise InputError("expected a number near position %d" % (
                nodes[up][1] if up is not None
                else _pos_near(cells, alive, a, b)))
        level = ops.get(depth_at[a], ())
        lo, hi = bisect_left(level, a), bisect_left(level, b)
        if lo == hi:
            if b - a == 1 and cells[alive[a]][0] == "num":
                _, val, pos = cells[alive[a]]
                nodes.append(("num", Fraction(val), pos))
                continue
            # two operands with no operator between: name where the second
            # starts, its pruned outer parentheses included
            first = alive[a]
            k = alive[a + 1 if cells[first][0] == "num"
                      else bisect_left(alive, cmatch[first]) + 1]
            while k - 1 in dead and cells[k - 1][0] == "(":
                k -= 1
            raise InputError("expected an operator near position %d"
                             % _pos_near(cells, range(len(cells)), k,
                                         len(cells)))
        pick = level[lo]
        if cells[alive[pick]][1] != "**":
            pick = level[hi - 1]
        _, sym, pos = cells[alive[pick]]
        stack.append((pick + 1, b, len(nodes), 3))
        stack.append((a, pick, len(nodes), 2))
        nodes.append([sym, pos, None, None])
    for k in range(len(nodes) - 1, -1, -1):  # children after their parent
        nd = nodes[k]
        if type(nd) is list:
            nodes[k] = (nd[0], nd[1], nodes[nd[2]], nodes[nd[3]])
    return nodes[0]


def _pow_unfold(shape):
    """x ** d with a literal d becomes a balanced product of d copies of x
    (d = 0 becomes x*0 + 1 so errors inside x still surface). Only `**` with
    a computed exponent or one outside 0.._POW_CAP stays a vertex. Operands
    unfold before their operator, left before right."""
    done = []
    stack = [(shape, False)]
    while stack:
        nd, ready = stack.pop()
        if nd[0] == "num":
            done.append(nd)
        elif not ready:
            stack += [(nd, True), (nd[3], False), (nd[2], False)]
        else:
            right = done.pop()
            left = done.pop()
            done.append(_unfold_one(nd[0], nd[1], left, right))
    return done[0]


def _unfold_one(sym, pos, left, right):
    """One operator of _pow_unfold, its operands already unfolded. A literal
    exponent outside 0.._POW_CAP stays a vertex, so that evaluation reports
    it in the order eval_reference meets its errors."""
    if (sym != "**" or right[0] != "num" or right[1].denominator != 1
            or not 0 <= right[1] <= _POW_CAP):
        return (sym, pos, left, right)
    d = int(right[1])
    if d == 0:
        return ("+", pos, ("*", pos, left, ("num", Fraction(0), pos)),
                ("num", Fraction(1), pos))
    return _pow_product(left, pos, d)


def _pow_product(base, pos, k):
    """Balanced product of k >= 1 copies of base, recursing log2(_POW_CAP)
    deep. A module-level function: a self-recursive closure would leave a
    reference cycle per exponent."""
    if k == 1:
        return base
    h = k // 2
    return ("*", pos, _pow_product(base, pos, k - h),
            _pow_product(base, pos, h))


def _unfolded_size(shape):
    """Vertices _to_tree makes of shape, or _UNFOLD_CAP + 1 if more. Counts
    each shared sub-shape once, so nested literal powers cost their input
    length, not their unfolded size."""
    size = {}
    stack = [shape]
    while stack:
        nd = stack.pop()
        if nd[0] == "num":
            size[id(nd)] = 1
            continue
        left, right = size.get(id(nd[2])), size.get(id(nd[3]))
        if left is None or right is None:
            stack += [nd, nd[2], nd[3]]
        else:
            size[id(nd)] = min(1 + left + right, _UNFOLD_CAP + 1)
    return size[id(shape)]


def _to_tree(shape):
    """Vertex ids 1.. in preorder, left operand before right. Raises
    InputError before building a tree of more than _UNFOLD_CAP vertices."""
    if _unfolded_size(shape) > _UNFOLD_CAP:
        raise InputError("expression unfolds to more than %d vertices"
                         % _UNFOLD_CAP)
    parent = {}
    attrs = {}
    stack = [(shape, None)]
    while stack:
        nd, p = stack.pop()
        v = len(parent) + 1
        parent[v] = p
        if nd[0] == "num":
            attrs[v] = {"op": None, "num": nd[1], "pos": nd[2]}
        else:
            attrs[v] = {"op": nd[0], "pos": nd[1]}
            stack += [(nd[3], v), (nd[2], v)]
    return Tree(1, parent, attrs=attrs)


def _simplify(s, cfg):
    toks = tokenize(s)
    if not toks:
        raise InputError("empty expression")
    cells = _insert(toks)
    text, cell_at = _render(cells)
    every = range(len(cells))
    cm, levels = _match_levels(
        text, cfg.epsilon,
        lambda at: _pos_near(cells, every, cell_at[at], cell_at[at] + 1))
    cmatch = {cell_at[i]: cell_at[j] for i, j in cm.items()}
    dead = _prune(cells, cmatch)
    shape = _pow_unfold(_build(cells, cmatch, dead))
    return _to_tree(shape), levels


def _charge_pipeline(sim, levels):
    for label in ("insertions", "paren scan", "paren merge",
                  "paren deletions", "operator scan"):
        sim.charge(label, levels)


# ---------------------------------------------------------------------------
# evaluation algebra

def _mob_mul(A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mob_apply(M, x):
    a, b, c, d = M
    den = c * x + d
    if den == 0:
        raise ExprArithmeticError("division by zero in a contracted chain")
    return (a * x + b) / den


class EvalAlgebra(Algebra):
    """Data is (opcode, left operand, right operand, source position); an
    edge is (child position under its parent, Mobius map or None)."""

    name = "eval"
    C_w = 16

    def init_data(self, tree, v):
        a = tree.attrs[v]
        if a["op"] is None:
            return (0, a["num"], None, a["pos"])
        return (_CODE[a["op"]], None, None, a["pos"])

    def fresh_edge(self, tree, v):
        p = tree.parent[v]
        if p is None:
            return None
        return (tree.children[p].index(v), None)

    def node_value(self, data):
        code, x, y, pos = data
        if code == 0:
            return x
        if x is None or y is None:
            raise LogIntegrityError(
                "operator at position %d is missing an operand" % pos)
        if code == 1:
            return x + y
        if code == 2:
            return x - y
        if code == 3:
            return x * y
        if code == 4:
            if y == 0:
                raise ExprArithmeticError(
                    "division by zero near position %d" % pos)
            return x / y
        if y.denominator != 1 or y < 0 or y > _POW_CAP:
            raise ExprArithmeticError(
                "exponent near position %d must be an integer in 0..64" % pos)
        return x ** int(y)

    def through_edge(self, value, edge):
        at, M = edge
        return (at, value if M is None else _mob_apply(M, value))

    def absorb(self, data, contribution):
        code, x, y, pos = data
        at, val = contribution
        if code == 0:
            raise LogIntegrityError("number at position %d took an operand" % pos)
        if at == 0:
            if x is not None:
                raise LogIntegrityError("operand 0 arrived twice at position %d" % pos)
            return (code, val, y, pos)
        if y is not None:
            raise LogIntegrityError("operand 1 arrived twice at position %d" % pos)
        return (code, x, val, pos)

    def chain(self, hi_edge, data, lo_edge):
        code, x, y, pos = data
        if code in (0, 5):
            return NotImplemented
        pend = lo_edge[0] if lo_edge is not None else (0 if x is None else 1)
        other = y if pend == 0 else x
        if other is None:
            return NotImplemented
        if code == 1:
            M = (1, other, 0, 1)
        elif code == 2:
            M = (1, -other, 0, 1) if pend == 0 else (-1, other, 0, 1)
        elif code == 3:
            M = (other, 0, 0, 1)
        elif pend == 0:
            if other == 0:
                raise ExprArithmeticError(
                    "division by zero near position %d" % pos)
            M = (1, 0, 0, other)
        else:
            M = (0, other, 1, 0)
        at, HM = hi_edge
        if HM is not None:
            M = _mob_mul(HM, M)
        if lo_edge is not None and lo_edge[1] is not None:
            M = _mob_mul(M, lo_edge[1])
        return (at, M)

    def compose(self, hi_edge, lo_edge):
        at, HM = hi_edge
        LM = lo_edge[1]
        if HM is None:
            return (at, LM)
        if LM is None:
            return (at, HM)
        return (at, _mob_mul(HM, LM))

    def sibling_fold(self, contributions):
        raise LogIntegrityError("binary operator trees never batch siblings")


def subexpression_values(log):
    """Per-vertex exact values recovered from a finished contraction log."""
    return reconstruct(log, EvalAlgebra())


def _evaluate_stepwise(tree, plugin):
    """The root's exact value, evaluated operands first, the left before the
    right, as eval_reference does: the first ExprArithmeticError raised, a
    pole that a composed Mobius edge would cancel included, is the one the
    reference names."""
    value = {}
    stack = [(tree.root, False)]
    while stack:
        v, ready = stack.pop()
        kids = tree.children[v]
        if not ready:
            stack.append((v, True))
            stack.extend((c, False) for c in reversed(kids))
            continue
        data = plugin.init_data(tree, v)
        for at, c in enumerate(kids):
            data = plugin.absorb(data, (at, value.pop(c)))
        value[v] = plugin.node_value(data)
    return value[tree.root]


def evaluate_expression(s, cfg):
    """Returns (exact Fraction value, operator tree, log, metrics). The tree
    is evaluated stepwise before any round runs, so an arithmetic error is
    raised in strict and relaxed mode alike; the contraction's value must
    equal the stepwise one, else LogIntegrityError is raised."""
    plugin = EvalAlgebra()
    tree, levels = _simplify(s, cfg)
    want = _evaluate_stepwise(tree, plugin)
    sim = run_simulator(plugin, cfg, tree.n)
    _charge_pipeline(sim, levels)
    value, log, _ = bounded_tree_contract(tree, plugin, cfg, sim)
    if value != want:
        raise LogIntegrityError("answer disagrees with the stepwise value")
    return value, tree, log, sim.snapshot_metrics()

"""Brute-force and textbook-sequential reference solvers, plus tree generators.

Everything here is independent of the simulator and the contraction engine:
only the Tree container is shared. Solvers favour clarity over speed; the
exhaustive matching enumeration is capped at n <= 16 to keep test runtime
sane.
"""

import random
from fractions import Fraction

from .errors import ExprArithmeticError, InputError
from .trees import Tree

MATCHING_ENUM_CAP = 16


# ---------------------------------------------------------------------------
# generators

def path(n):
    return Tree(1, {v: (v - 1 if v > 1 else None) for v in range(1, n + 1)})


def star(n):
    return Tree(1, {v: (1 if v > 1 else None) for v in range(1, n + 1)})


def broom(n, handle=None):
    """Path of `handle` vertices with the remaining leaves on its far end."""
    if handle is None:
        handle = max(1, n // 2)
    handle = min(handle, n)
    parent = {}
    for v in range(1, handle + 1):
        parent[v] = v - 1 if v > 1 else None
    for v in range(handle + 1, n + 1):
        parent[v] = handle
    return Tree(1, parent)


def caterpillar(n):
    """Spine of about n/2 vertices, legs dealt round-robin onto the spine."""
    k = max(1, n // 2)
    parent = {}
    for v in range(1, k + 1):
        parent[v] = v - 1 if v > 1 else None
    for i, v in enumerate(range(k + 1, n + 1)):
        parent[v] = (i % k) + 1
    return Tree(1, parent)


def random_tree(n, seed):
    rng = random.Random(seed)
    parent = {1: None}
    for v in range(2, n + 1):
        parent[v] = rng.randint(1, v - 1)
    return Tree(1, parent)


def complete_kary(n, k):
    if k < 1:
        raise InputError("arity must be >= 1")
    return Tree(1, {v: ((v - 2) // k + 1 if v > 1 else None) for v in range(1, n + 1)})


_SHAPES = {1: [()]}


def _shapes(n):
    """Canonical rooted shapes of size n; a shape is the tuple of child shapes,
    children drawn from a fixed pool order so multisets enumerate once."""
    if n in _SHAPES:
        return _SHAPES[n]
    pool = []
    for s in range(1, n):
        pool.extend((s, sh) for sh in _shapes(s))
    out = []

    def rec(remaining, start, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for i in range(start, len(pool)):
            sz, sh = pool[i]
            if sz <= remaining:
                rec(remaining - sz, i, acc + [sh])

    rec(n - 1, 0, [])
    _SHAPES[n] = out
    return out


def shape_count(n):
    return len(_shapes(n))


def shape_to_tree(shape):
    parent = {1: None}
    counter = [1]

    def build(sh, pid):
        for child_sh in sh:
            counter[0] += 1
            v = counter[0]
            parent[v] = pid
            build(child_sh, v)

    build(shape, 1)
    return Tree(1, parent)


def all_shapes(n):
    """All rooted unlabeled trees with exactly n vertices."""
    for sh in _shapes(n):
        yield shape_to_tree(sh)


def relabeled_copy(tree, seed):
    """Isomorphic copy with permuted ids and shuffled child order."""
    rng = random.Random(seed)
    ids = sorted(tree.vertices())
    perm = ids[:]
    rng.shuffle(perm)
    m = dict(zip(ids, perm))
    parent = {m[tree.root]: None}
    for v, cs in tree.children.items():
        cs2 = [m[c] for c in cs]
        rng.shuffle(cs2)
        for c in cs2:
            parent[c] = m[v]
    attrs = {m[v]: a for v, a in tree.attrs.items()}
    return Tree(m[tree.root], parent, attrs=attrs)


def with_edge_weights(tree, seed, lo=1, hi=5):
    rng = random.Random(seed)
    for v in sorted(tree.vertices()):
        if tree.parent[v] is not None:
            tree.attrs[v]["ew"] = rng.randint(lo, hi)
    return tree


def with_vertex_weights(tree, seed, lo=0, hi=4):
    rng = random.Random(seed)
    for v in sorted(tree.vertices()):
        tree.attrs[v]["vw"] = rng.randint(lo, hi)
    return tree


# ---------------------------------------------------------------------------
# matching

def edge_weight(tree, child):
    return tree.attrs[child].get("ew", 1)


def matching_is_valid(tree, edges):
    used = set()
    for c, p in edges:
        if tree.parent.get(c) != p:
            return False
        if c in used or p in used:
            return False
        used.add(c)
        used.add(p)
    return True


def matching_weight(tree, edges):
    return sum(edge_weight(tree, c) for c, _p in edges)


def matching_is_maximal(tree, edges):
    if not matching_is_valid(tree, edges):
        return False
    used = set()
    for c, p in edges:
        used.add(c)
        used.add(p)
    for v in tree.vertices():
        p = tree.parent[v]
        if p is not None and v not in used and p not in used:
            return False
    return True


def enumerate_mwm(tree):
    """Exhaustive maximum weighted matching; n <= MATCHING_ENUM_CAP."""
    if tree.n > MATCHING_ENUM_CAP:
        raise InputError("enumeration capped at n=%d" % MATCHING_ENUM_CAP)
    edges = [(v, tree.parent[v]) for v in sorted(tree.vertices())
             if tree.parent[v] is not None]
    best, best_set = 0, frozenset()
    for mask in range(1 << len(edges)):
        used = set()
        w = 0
        ok = True
        m = mask
        i = 0
        while m:
            if m & 1:
                c, p = edges[i]
                if c in used or p in used:
                    ok = False
                    break
                used.add(c)
                used.add(p)
                w += edge_weight(tree, c)
            m >>= 1
            i += 1
        if ok and w > best:
            best = w
            best_set = frozenset(edges[j] for j in range(len(edges)) if mask >> j & 1)
    return best, best_set


def mwm_table(tree):
    """Sequential two-state DP: c' = best with v unmatched, c = best overall."""
    table = {}
    for v in tree.postorder():
        cp = sum(table[u][0] for u in tree.children[v])
        gain = 0
        for u in tree.children[v]:
            c_u, cp_u = table[u]
            gain = max(gain, edge_weight(tree, u) + cp_u - c_u)
        table[v] = (cp + gain, cp)
    return {v: (c, cp) for v, (c, cp) in table.items()}


def brute_mwm(tree):
    """(optimum weight, one optimum matching); enumeration when small, DP else."""
    if tree.n <= MATCHING_ENUM_CAP:
        return enumerate_mwm(tree)
    table = mwm_table(tree)
    edges = []
    matched = set()
    for v in tree.preorder():
        if v in matched:
            continue
        best_u, best_gain = None, 0
        for u in tree.children[v]:
            c_u, cp_u = table[u]
            gain = edge_weight(tree, u) + cp_u - c_u
            if gain > best_gain:
                best_gain, best_u = gain, u
        if best_u is not None:
            edges.append((best_u, v))
            matched.add(v)
            matched.add(best_u)
    value = table[tree.root][0]
    assert matching_weight(tree, edges) == value
    return value, frozenset(edges)


def free_bits(tree):
    """Greedy bottom-up maximal matching: v is free iff no child is free."""
    free = {}
    for v in tree.postorder():
        free[v] = int(not any(free[u] for u in tree.children[v]))
    return free


def greedy_maximal_matching(tree):
    free = free_bits(tree)
    edges = []
    for v in tree.vertices():
        if not free[v]:
            u = next(c for c in tree.children[v] if free[c])
            edges.append((u, v))
    return frozenset(edges)


# ---------------------------------------------------------------------------
# independent sets

def set_is_independent(tree, S):
    return all(tree.parent[v] not in S for v in S if tree.parent[v] is not None)


def set_is_maximal_independent(tree, S):
    if not set_is_independent(tree, S):
        return False
    for v in tree.vertices():
        if v in S:
            continue
        nbrs = list(tree.children[v])
        if tree.parent[v] is not None:
            nbrs.append(tree.parent[v])
        if not any(u in S for u in nbrs):
            return False
    return True


def greedy_mis(tree):
    """Canonical bottom-up greedy: v joins iff no child joined."""
    S = set()
    for v in tree.postorder():
        if not any(u in S for u in tree.children[v]):
            S.add(v)
    return frozenset(S)


def misb_bits(tree):
    """Membership bits honoring bypass flags: a bypass vertex carries 1 iff
    some child carries 1; a standard vertex carries 1 iff no child does."""
    bits = {}
    for v in tree.postorder():
        any_in = any(bits[u] for u in tree.children[v])
        if tree.attrs[v].get("bypass", 0):
            bits[v] = int(any_in)
        else:
            bits[v] = int(not any_in)
    return bits


def vertex_weight(tree, v):
    return tree.attrs[v].get("vw", 1)


def mwis_table(tree):
    """Sequential DP: i = best with v in, o = best with v out."""
    table = {}
    for v in tree.postorder():
        i = vertex_weight(tree, v) + sum(table[u][1] for u in tree.children[v])
        o = sum(max(table[u]) for u in tree.children[v])
        table[v] = (i, o)
    return table


def brute_mwis(tree):
    """(optimum weight, one optimum set) by DP with canonical extraction."""
    table = mwis_table(tree)
    S = set()
    state = {tree.root: table[tree.root][0] > table[tree.root][1]}
    for v in tree.preorder():
        if state[v]:
            S.add(v)
        for u in tree.children[v]:
            if state[v]:
                state[u] = False
            else:
                state[u] = table[u][0] > table[u][1]
    value = max(table[tree.root])
    assert set_is_independent(tree, S)
    assert sum(vertex_weight(tree, v) for v in S) == value
    return value, frozenset(S)


# ---------------------------------------------------------------------------
# heights

def height_table(tree):
    h = {}
    for v in tree.postorder():
        h[v] = 1 + max((h[u] for u in tree.children[v]), default=-1)
    return h


# ---------------------------------------------------------------------------
# expression reference evaluator (recursive descent, exact rationals)

_OPS = "+-*/"


def normalize_expr(s):
    return s.replace("−", "-").replace("×", "*").replace("÷", "/")


def _tokenize(s):
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
            toks.append(("num", int(s[i:j]), i))
            i = j
        elif s.startswith("**", i):
            toks.append(("op", "**", i))
            i += 2
        elif ch in _OPS or ch in "()":
            toks.append(("op" if ch in _OPS else "paren", ch, i))
            i += 1
        else:
            raise InputError("unexpected character %r at position %d" % (ch, i))
    return toks


class _RefParser:
    def __init__(self, s):
        self.s = s
        self.toks = _tokenize(normalize_expr(s))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.s))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self):
        v = self.expr()
        if self.i != len(self.toks):
            raise InputError("trailing input at position %d" % self.peek()[2])
        return v

    def expr(self):
        v = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            r = self.term()
            v = v + r if op == "+" else v - r
        return v

    def term(self):
        v = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.take()
            r = self.factor()
            if op == "/":
                if r == 0:
                    raise ExprArithmeticError("division by zero near position %d" % pos)
                v = v / r
            else:
                v = v * r
        return v

    def factor(self):
        v = self.base()
        if self.peek()[1] == "**":
            pos = self.take()[2]
            e = self.factor()  # right associative
            if e.denominator != 1 or e < 0 or e > 64:
                raise ExprArithmeticError(
                    "exponent near position %d must be an integer in 0..64" % pos)
            v = v ** int(e)
        return v

    def base(self):
        kind, val, pos = self.take()
        if kind == "num":
            return Fraction(val)
        if val == "(":
            v = self.expr()
            kind2, val2, pos2 = self.take()
            if val2 != ")":
                raise InputError("expected ')' at position %d" % pos2)
            return v
        raise InputError("unexpected token %r at position %d" % (val, pos))


def eval_reference(s):
    return _RefParser(s).parse()


def _random_term(rng, depth, allow_pow):
    """One random_expression draw of at most `depth` operator levels. A
    module-level function: a self-recursive closure would leave a reference
    cycle per call."""
    if depth == 0 or rng.random() < 0.25:
        return str(rng.randint(0, 9))
    op = rng.choice(["+", "+", "-", "-", "*", "*", "/"]
                    + (["**"] if allow_pow and depth >= 2 else []))
    if op == "**":
        base = _random_term(rng, depth - 1, allow_pow)
        return "(" + base + ")**" + str(rng.randint(0, 3))
    left = _random_term(rng, depth - 1, allow_pow)
    right = _random_term(rng, depth - 1, allow_pow)
    if rng.random() < 0.5:
        left = "(" + left + ")"
    if rng.random() < 0.5:
        right = "(" + right + ")"
    return left + op + right


def random_expression(seed, max_depth=6, allow_pow=True):
    """Deterministic random expression that evaluates cleanly."""
    rng = random.Random(seed)
    for attempt in range(1000):
        s = _random_term(rng, max_depth, allow_pow)
        try:
            eval_reference(s)
            return s
        except (ExprArithmeticError, ZeroDivisionError):
            continue
    raise RuntimeError("could not build a clean expression")


# ---------------------------------------------------------------------------
# isomorphism reference

def ahu_code(tree, v=None):
    """Canonical nested-tuple code of the rooted tree."""
    code = {}
    for u in tree.postorder():
        code[u] = tuple(sorted(code[c] for c in tree.children[u]))
    return code[v if v is not None else tree.root]


def isomorphic_rooted(a, b):
    """AHU on both trees: each vertex's sorted tuple of child codes is
    interned as a small int, in one table for both trees, so comparing two
    codes never recurses, however deep the trees."""
    table, roots = {}, []
    for tree in (a, b):
        code = {}
        for u in tree.postorder():
            code[u] = table.setdefault(
                tuple(sorted([code[c] for c in tree.children[u]])), len(table))
        roots.append(code[tree.root])
    return a.n == b.n and roots[0] == roots[1]

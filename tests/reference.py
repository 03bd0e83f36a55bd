"""Reference helpers that only the tests call: a certified greedy MIS,
subset enumeration for MWIS, balanced-paren strings with their stack
matcher, and the slot ids of a payload found by walking it. They sit beside
the tests, out of the package, as neither the package nor the acceptance
gate uses them."""

import random

from treecontract.errors import InputError
from treecontract.oracles import (
    greedy_mis,
    set_is_independent,
    set_is_maximal_independent,
    vertex_weight,
)

SUBSET_ENUM_CAP = 20


def brute_mis(tree):
    """Greedy maximal independent set plus its brute certificate."""
    S = greedy_mis(tree)
    cert = {"independent": set_is_independent(tree, S),
            "maximal": set_is_maximal_independent(tree, S)}
    return S, cert


def enumerate_mwis(tree):
    if tree.n > SUBSET_ENUM_CAP:
        raise InputError("enumeration capped at n=%d" % SUBSET_ENUM_CAP)
    verts = sorted(tree.vertices())
    best = [0, frozenset()]

    def rec(i, chosen, weight):
        if i == len(verts):
            if weight > best[0]:
                best[0], best[1] = weight, frozenset(chosen)
            return
        v = verts[i]
        rec(i + 1, chosen, weight)
        p = tree.parent[v]
        if p not in chosen and not any(c in chosen for c in tree.children[v]):
            chosen.add(v)
            rec(i + 1, chosen, weight + vertex_weight(tree, v))
            chosen.remove(v)

    rec(0, set(), 0)
    return best[0], best[1]


def random_balanced_parens(seed, n):
    """Balanced paren string of length 2*ceil(n/2)."""
    rng = random.Random(seed)
    half = max(1, n // 2)
    opens = closes = half
    depth = 0
    out = []
    while opens or closes:
        if opens and (depth == 0 or rng.random() < 0.55):
            out.append("(")
            opens -= 1
            depth += 1
        else:
            out.append(")")
            closes -= 1
            depth -= 1
    return "".join(out)


def match_parens_reference(s):
    """Stack matcher; non-paren characters are skipped."""
    stack, out = [], {}
    for i, ch in enumerate(s):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            if not stack:
                raise InputError("unbalanced ')' at position %d" % i)
            j = stack.pop()
            out[i] = j
            out[j] = i
    if stack:
        raise InputError("unbalanced '(' at position %d" % stack[-1])
    return out


def payload_slot_ids(rnode):
    """Ids of the pending child slots in a residual tree, found by walking
    every node of it."""
    out = set()
    stack = [rnode]
    while stack:
        nd = stack.pop()
        if nd[0] == "s":
            out.add(nd[1])
        else:
            stack.extend(nd[4])
    return out

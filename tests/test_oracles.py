import gc
import hashlib
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecontract.errors import ExprArithmeticError, InputError
from treecontract.oracles import (
    ahu_code,
    all_shapes,
    broom,
    brute_mwis,
    brute_mwm,
    caterpillar,
    complete_kary,
    enumerate_mwm,
    eval_reference,
    free_bits,
    greedy_maximal_matching,
    greedy_mis,
    height_table,
    isomorphic_rooted,
    matching_is_maximal,
    matching_is_valid,
    matching_weight,
    misb_bits,
    mwis_table,
    mwm_table,
    path,
    random_expression,
    random_tree,
    relabeled_copy,
    set_is_independent,
    set_is_maximal_independent,
    shape_count,
    star,
    with_edge_weights,
    with_vertex_weights,
)
from reference import (
    brute_mis,
    enumerate_mwis,
    match_parens_reference,
    random_balanced_parens,
)


def test_oracles_do_not_import_engine_modules():
    src = os.path.join(os.path.dirname(__file__), os.pardir,
                       "src", "treecontract", "oracles.py")
    text = open(src).read()
    for banned in ("sim", "engine", "problems", "cli"):
        assert not re.search(r"from\s+\.%s|import\s+%s\b" % (banned, banned), text)


def height(tree, v=None):
    h = {}
    for u in tree.postorder():
        h[u] = 1 + max((h[c] for c in tree.children[u]), default=-1)
    return h[v if v is not None else tree.root]


# ---------------------------------------------------------------------------
# generators

def test_generator_shapes():
    assert height(path(5)) == 4
    assert star(5).deg(1) == 4
    assert broom(8, 4).deg(4) == 4
    assert height(complete_kary(7, 2)) == 2
    t = caterpillar(10)
    assert t.n == 10
    with pytest.raises(InputError):
        complete_kary(4, 0)


def test_random_tree_deterministic():
    assert random_tree(30, 9).parent == random_tree(30, 9).parent
    assert random_tree(30, 9).parent != random_tree(30, 10).parent


def test_shape_counts():
    assert [shape_count(n) for n in range(1, 8)] == [1, 1, 2, 4, 9, 20, 48]
    assert sum(shape_count(n) for n in range(1, 9)) == 200
    assert sum(shape_count(n) for n in range(1, 11)) == 1205


def test_all_shapes_distinct_and_sized():
    for n in range(1, 8):
        codes = set()
        for t in all_shapes(n):
            assert t.n == n
            codes.add(ahu_code(t))
        assert len(codes) == shape_count(n)


def test_relabeled_copy_is_isomorphic():
    for seed in range(5):
        t = with_edge_weights(random_tree(25, seed), seed)
        r = relabeled_copy(t, seed + 100)
        assert r.n == t.n
        assert isomorphic_rooted(t, r)
        assert sorted(a.get("ew", 0) for a in t.attrs.values()) == \
            sorted(a.get("ew", 0) for a in r.attrs.values())


# ---------------------------------------------------------------------------
# matching oracles

def test_mwm_frozen_path3():
    t = path(3)
    t.attrs[2]["ew"] = 5
    t.attrs[3]["ew"] = 3
    assert enumerate_mwm(t)[0] == 5
    assert mwm_table(t)[1] == (5, 3)


def test_mwm_frozen_star():
    t = star(4)
    for v, w in ((2, 2), (3, 7), (4, 4)):
        t.attrs[v]["ew"] = w
    value, edges = enumerate_mwm(t)
    assert value == 7
    assert edges == frozenset({(3, 1)})


def test_mwm_dp_agrees_with_enumeration():
    for n in range(2, 7):
        for i, t in enumerate(all_shapes(n)):
            with_edge_weights(t, seed=i * 31 + n)
            value, edges = enumerate_mwm(t)
            assert mwm_table(t)[t.root][0] == value
            assert matching_is_valid(t, edges)
            assert matching_weight(t, edges) == value


def test_brute_mwm_large_uses_dp():
    t = with_edge_weights(random_tree(60, 3), 3)
    value, edges = brute_mwm(t)
    assert matching_is_valid(t, edges)
    assert matching_weight(t, edges) == value
    assert value == mwm_table(t)[t.root][0]


def test_greedy_maximal_matching_path5():
    assert greedy_maximal_matching(path(5)) == frozenset({(3, 2), (5, 4)})


def test_greedy_maximal_matching_properties():
    for n in range(1, 8):
        for t in all_shapes(n):
            m = greedy_maximal_matching(t)
            assert matching_is_maximal(t, m)
    assert not matching_is_maximal(path(3), frozenset())
    assert not matching_is_valid(path(3), frozenset({(3, 1)}))


def test_free_bits_rule():
    t = random_tree(40, 11)
    free = free_bits(t)
    for v in t.vertices():
        assert free[v] == int(not any(free[u] for u in t.children[v]))


# ---------------------------------------------------------------------------
# independent set oracles

def test_greedy_mis_certificates():
    for n in range(1, 8):
        for t in all_shapes(n):
            S, cert = brute_mis(t)
            assert cert == {"independent": True, "maximal": True}
            assert set_is_maximal_independent(t, S)
    assert not set_is_independent(path(3), {1, 2})
    assert not set_is_maximal_independent(path(5), {1})


def test_misb_matches_greedy_without_bypass():
    for seed in range(4):
        t = random_tree(30, seed)
        S = greedy_mis(t)
        bits = misb_bits(t)
        assert {v for v, b in bits.items() if b} == set(S)


def test_misb_bypass_is_or():
    t = star(4)
    t.attrs[1]["bypass"] = 1
    assert misb_bits(t) == {1: 1, 2: 1, 3: 1, 4: 1}
    p = path(3)
    p.attrs[2]["bypass"] = 1
    # leaf 3 joins, bypass 2 carries 1, root 1 stays out
    assert misb_bits(p) == {1: 0, 2: 1, 3: 1}


def test_mwis_frozen_path3():
    t = path(3)
    for v, w in ((1, 10), (2, 12), (3, 9)):
        t.attrs[v]["vw"] = w
    assert enumerate_mwis(t) == (19, frozenset({1, 3}))
    assert brute_mwis(t) == (19, frozenset({1, 3}))


def test_mwis_dp_agrees_with_enumeration():
    for n in range(1, 7):
        for i, t in enumerate(all_shapes(n)):
            with_vertex_weights(t, seed=i * 17 + n)
            value, _ = enumerate_mwis(t)
            got, S = brute_mwis(t)
            assert got == value
            assert set_is_independent(t, S)


def test_mwis_table_states():
    t = path(3)
    for v, w in ((1, 10), (2, 12), (3, 9)):
        t.attrs[v]["vw"] = w
    assert mwis_table(t) == {3: (9, 0), 2: (12, 9), 1: (19, 12)}


# ---------------------------------------------------------------------------
# heights

def test_height_table():
    assert height_table(path(5))[1] == 4
    assert height_table(star(5))[1] == 1
    t = random_tree(50, 2)
    h = height_table(t)
    assert h[t.root] == height(t)
    for v in t.vertices():
        assert h[v] == 1 + max((h[u] for u in t.children[v]), default=-1)


# ---------------------------------------------------------------------------
# expression reference

def test_eval_frozen_headline():
    assert eval_reference("2+5-(3+2*6)-9") == -17
    assert eval_reference("2+5−(3+2×6)−9") == -17


def test_eval_precedence_and_assoc():
    assert eval_reference("2+3*4") == 14
    assert eval_reference("(2+3)*4") == 20
    assert eval_reference("2**3**2") == 512
    assert eval_reference("100-10-5") == 85
    assert eval_reference("64/4/2") == 8
    assert eval_reference("10/4") == Fraction(5, 2)
    assert eval_reference("7÷2") == Fraction(7, 2)


def test_eval_errors():
    with pytest.raises(ExprArithmeticError):
        eval_reference("1/0")
    with pytest.raises(ExprArithmeticError):
        eval_reference("1/(2-2)")
    with pytest.raises(ExprArithmeticError):
        eval_reference("2**65")
    with pytest.raises(ExprArithmeticError):
        eval_reference("2**(1/2)")
    for bad in ("", "2+", "(2", "2)", "2 $ 3", "()"):
        with pytest.raises(InputError):
            eval_reference(bad)


def test_random_expression_evaluates():
    for seed in range(40):
        s = random_expression(seed)
        assert isinstance(eval_reference(s), Fraction)
    assert random_expression(7) == random_expression(7)


# sha256 over random_expression(s*100003 + i, max_depth=6) for i = 0..39, one
# newline after each: the `pipelines` benchmark input is built from these
# draws, so they may not change
RANDOM_EXPRESSION_SHA256 = {
    1: "4f25c58179a9a907850c4ee90a799802fc81a121e850c7e943a57a68f144a8aa",
    2: "e2c6f4d468846fa1e4abb0db88ec642666cb08aacfcc44146aeaef35e725e6db",
    3: "5822c19efee7b3059bbcf1819ac5822fedbb5e679061b9501a1dc0cf55c7f26e",
}


@pytest.mark.parametrize("s", sorted(RANDOM_EXPRESSION_SHA256))
def test_random_expression_draws_are_pinned(s):
    h = hashlib.sha256()
    for i in range(40):
        h.update((random_expression(s * 100003 + i, max_depth=6)
                  + "\n").encode())
    assert h.hexdigest() == RANDOM_EXPRESSION_SHA256[s]


def test_random_expression_leaves_no_cycles():
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # seed 2's first draw does not evaluate cleanly, so it redraws
        for seed in (1, 2):
            random_expression(seed)
        assert gc.collect() == 0
    finally:
        if was_on:
            gc.enable()


# ---------------------------------------------------------------------------
# paren matching

def test_match_parens_frozen():
    assert match_parens_reference("(()())") == {0: 5, 5: 0, 1: 2, 2: 1, 3: 4, 4: 3}
    assert match_parens_reference("a(b)c") == {1: 3, 3: 1}


def test_match_parens_unbalanced():
    for bad in ("(", ")", "(()", "())("):
        with pytest.raises(InputError):
            match_parens_reference(bad)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 120))
def test_match_parens_involution(seed, n):
    s = random_balanced_parens(seed, n)
    m = match_parens_reference(s)
    for i, j in m.items():
        assert m[j] == i
        assert {s[i], s[j]} == {"(", ")"}
        assert (s[i] == "(") == (i < j)


# ---------------------------------------------------------------------------
# isomorphism reference

def test_ahu_basics():
    assert ahu_code(path(2)) == ((),)
    assert isomorphic_rooted(path(4), path(4))
    assert not isomorphic_rooted(path(5), star(5))
    assert not isomorphic_rooted(path(4), path(5))


def test_ahu_separates_all_small_shapes():
    shapes = [t for n in range(1, 8) for t in all_shapes(n)]
    codes = [ahu_code(t) for t in shapes]
    assert len(set(codes)) == len(codes)

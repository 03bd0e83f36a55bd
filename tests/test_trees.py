import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treecontract.errors import InputError
from treecontract.trees import (
    NEG_INF,
    Tree,
    build_big_small,
    decompose,
    dependency_tree,
    group_components,
    leaf_fraction,
    low_degree_components,
    parse_tree,
    preorder_number,
    serialize_tree,
    word_count,
)
from treecontract.oracles import (
    all_shapes,
    broom,
    caterpillar,
    complete_kary,
    path,
    random_tree,
    relabeled_copy,
    star,
    with_edge_weights,
    with_vertex_weights,
)


def tree_strategy(max_n=40):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**31)))


def height(tree, v=None):
    h = {}
    for u in tree.postorder():
        h[u] = 1 + max((h[c] for c in tree.children[u]), default=-1)
    return h[v if v is not None else tree.root]


def subtree(tree, v):
    stack, out = [v], []
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(reversed(tree.children[u]))
    return out


# ---------------------------------------------------------------------------
# words

def test_word_count_scalars():
    assert word_count(None) == 1
    assert word_count(True) == 1
    assert word_count(7) == 1
    assert word_count(NEG_INF) == 1
    assert word_count("ab") == 1
    assert word_count(Fraction(3, 4)) == 2
    assert word_count((1, (2, None), NEG_INF)) == 4
    with pytest.raises(TypeError):
        word_count({1: 2})


def reference_word_count(obj):
    """The definition word_count must agree with: one word per scalar, two
    per Fraction, containers free."""
    if obj is None or isinstance(obj, (bool, int, float)):
        return 1
    if isinstance(obj, Fraction):
        return 2
    if isinstance(obj, str):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(reference_word_count(x) for x in obj)
    raise TypeError("unsupported payload element: %r" % (obj,))


payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.just(NEG_INF),
              st.fractions(), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_word_count_matches_reference(obj):
    assert word_count(obj) == reference_word_count(obj)


def test_word_count_subclasses_take_the_fallback():
    import enum
    from collections import namedtuple

    class Colour(enum.IntEnum):
        RED = 1

    class Ratio(Fraction):
        pass

    Pair = namedtuple("Pair", "a b")
    for obj in (Colour.RED, Pair(1, Fraction(1, 2)), [Ratio(1, 3), 2],
                [Fraction(1, 2)], (Pair(Colour.RED, None), [True])):
        assert word_count(obj) == reference_word_count(obj)
    assert word_count(Pair(1, Fraction(1, 2))) == 3
    assert word_count([Ratio(1, 3), 2]) == 3


@pytest.mark.parametrize("bad", [{1: 2}, {1}, b"ab", 1j, (1, [2, {3}])])
def test_word_count_rejects_other_types(bad):
    with pytest.raises(TypeError):
        word_count(bad)


# ---------------------------------------------------------------------------
# construction and traversal

def test_single_vertex():
    t = Tree(1, {1: None})
    assert t.n == 1
    assert preorder_number(t) == {1: 1}
    assert height(t) == 0


def test_preorder_path():
    t = path(3)
    assert preorder_number(t) == {1: 1, 2: 2, 3: 3}


def test_preorder_star_child_order():
    t = star(4)
    assert preorder_number(t) == {1: 1, 2: 2, 3: 3, 4: 4}


def test_postorder_sees_children_first():
    t = random_tree(30, 5)
    seen = set()
    for v in t.postorder():
        assert all(c in seen for c in t.children[v])
        seen.add(v)
    assert len(seen) == 30


def test_validate_rejects_two_roots():
    with pytest.raises(InputError):
        Tree(1, {1: None, 2: None})


def test_validate_rejects_cycle():
    with pytest.raises(InputError):
        Tree(1, {1: None, 2: 3, 3: 2})


def test_validate_rejects_unknown_parent():
    with pytest.raises(InputError):
        Tree(1, {1: None, 2: 9})


@settings(max_examples=60, deadline=None)
@given(tree_strategy())
def test_preorder_contiguity(args):
    n, seed = args
    t = random_tree(n, seed)
    rank = preorder_number(t)
    assert sorted(rank.values()) == list(range(1, n + 1))
    for v in t.vertices():
        sub = subtree(t, v)
        ranks = sorted(rank[u] for u in sub)
        assert ranks == list(range(rank[v], rank[v] + len(sub)))
        p = t.parent[v]
        if p is not None:
            assert rank[p] < rank[v]


def test_contract_survivor_adopts_external_children():
    t = path(5)
    t.contract({2, 3, 4}, 2)
    assert t.parent[5] == 2
    assert t.children[2] == [5]
    assert 3 not in t.parent and 4 not in t.parent
    assert t.n == 3


def test_remove_leaf():
    t = star(4)
    t.remove_leaf(3)
    assert t.children[1] == [2, 4]
    with pytest.raises(InputError):
        t.remove_leaf(1)


def test_remove_leaves_matches_one_at_a_time():
    one, batch = star(9), star(9)
    for v in (7, 3, 4):
        one.remove_leaf(v)
    batch.remove_leaves(1, [7, 3, 4])
    assert batch == one
    assert batch.children[1] == [2, 5, 6, 8, 9]
    assert list(batch.vertices()) == list(one.vertices())


def test_remove_leaves_rejects_inner_and_foreign_vertices():
    t = path(4)
    with pytest.raises(InputError):
        t.remove_leaves(2, [3])
    with pytest.raises(InputError):
        t.remove_leaves(1, [4])
    assert t.n == 4


# ---------------------------------------------------------------------------
# text format

SAMPLE = """4 1
1 -
2 1 ew=5
3 1 ew=3
4 3 ew=2 bypass=1
"""


def test_parse_tree_sample():
    t = parse_tree(SAMPLE)
    assert t.n == 4
    assert t.root == 1
    assert t.parent[4] == 3
    assert t.attrs[2]["ew"] == 5
    assert t.attrs[4]["bypass"] == 1


def test_shape_keeps_structure_only():
    t = parse_tree(SAMPLE)
    work = t.shape()
    assert work.attrs is None
    assert (work.root, work.parent, work.children) == (t.root, t.parent,
                                                        t.children)
    sub = work.slice({3, 4}, 3)
    assert sub.attrs is None and sub.parent == {3: None, 4: 3}
    # 3's child 4 is not a member
    with pytest.raises(InputError, match="slice is not closed below 3"):
        work.slice({3}, 3)
    work.remove_leaves(3, [4])
    work.contract({1, 3}, 1)
    work.remove_leaf(2)
    assert work.n == 1 and work.copy() == work
    assert t.n == 4 and t.children[3] == [4] and t.attrs[4]["bypass"] == 1


def test_serialize_round_trip():
    t = parse_tree(SAMPLE)
    assert parse_tree(serialize_tree(t)) == t
    assert serialize_tree(parse_tree(serialize_tree(t))) == serialize_tree(t)
    # a tree is mutable and compares by value, so it has no hash
    with pytest.raises(TypeError):
        hash(t)


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        parse_tree("not a tree")
    with pytest.raises(InputError):
        parse_tree("2 1\n1 -\n")
    with pytest.raises(InputError):
        parse_tree("2 1\n1 -\n2 5\n")


# ---------------------------------------------------------------------------
# construction and parsing against the references

def reference_tree(root, parent, attrs=None):
    """Tree(...) as it was before construction took one pass: copy the
    parent map, rebuild the children lists, copy every attrs dict, then
    validate through the preorder generator with a roots list and a check of
    every child against the parent map."""
    t = Tree.__new__(Tree)
    t.root = root
    t.parent = dict(parent)
    t.children = {v: [] for v in t.parent}
    for v in t.parent:
        p = t.parent[v]
        if p is not None:
            if p not in t.children:
                raise InputError("unknown parent %r of vertex %r" % (p, v))
            t.children[p].append(v)
    t.attrs = {v: dict(attrs.get(v, {})) for v in t.parent} if attrs else {
        v: {} for v in t.parent}
    if t.root not in t.parent or t.parent[t.root] is not None:
        raise InputError("root %r missing or has a parent" % (t.root,))
    roots = [v for v, p in t.parent.items() if p is None]
    if roots != [t.root] and set(roots) != {t.root}:
        raise InputError("expected exactly one root, found %r" % (roots,))
    seen = 0
    for _v in t.preorder():
        seen += 1
    if seen != t.n:
        raise InputError("tree is disconnected or cyclic")
    for v, cs in t.children.items():
        for c in cs:
            if t.parent.get(c) != v:
                raise InputError("parent/children maps disagree at %r" % (c,))
    return t


def reference_parse_tree(text):
    """parse_tree as it was before it checked id order inline: an order
    list sorted at the end, and an attrs dict for every vertex."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty tree file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("header must be 'n root_id'")
    try:
        n, root = int(head[0]), int(head[1])
    except ValueError:
        raise InputError("header must be 'n root_id'") from None
    if len(lines) - 1 != n:
        raise InputError("expected %d vertex lines, found %d"
                         % (n, len(lines) - 1))
    parent, attrs, order = {}, {}, []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) < 2:
            raise InputError("bad vertex line: %r" % ln)
        try:
            v = int(parts[0])
        except ValueError:
            raise InputError("bad vertex id: %r" % parts[0]) from None
        try:
            p = None if parts[1] == "-" else int(parts[1])
        except ValueError:
            raise InputError("bad parent id of vertex %d: %r"
                             % (v, parts[1])) from None
        kv = {}
        for tok in parts[2:]:
            if "=" not in tok:
                raise InputError("bad attribute %r on vertex %d" % (tok, v))
            k, val = tok.split("=", 1)
            if k in kv:
                raise InputError("attribute %s repeated on vertex %d"
                                 % (k, v))
            try:
                kv[k] = int(val)
            except ValueError:
                raise InputError("attribute %s of vertex %d is not an "
                                 "integer" % (k, v)) from None
        if v in parent:
            raise InputError("duplicate vertex id %d" % v)
        parent[v] = p
        attrs[v] = kv
        order.append(v)
    if order != sorted(order):
        raise InputError("vertex lines must be in id order")
    if root not in parent:
        raise InputError("root %d has no vertex line" % root)
    return reference_tree(root, parent, attrs=attrs)


def outcome(build, *args, **kwargs):
    """("tree", root, parent, children and attrs as item lists, so key
    order counts) or ("error", the InputError message)."""
    try:
        t = build(*args, **kwargs)
    except InputError as exc:
        return ("error", str(exc))
    return ("tree", t.root, list(t.parent.items()),
            list(t.children.items()), list(t.attrs.items()))


# every message parse_tree and Tree give, each from one faulty input
PARSE_ERRORS = [
    ("", "empty tree file"),
    ("\n  \n", "empty tree file"),
    ("1\n1 -\n", "header must be 'n root_id'"),
    ("1 1 1\n1 -\n", "header must be 'n root_id'"),
    ("x 1\n1 -\n", "header must be 'n root_id'"),
    ("2 1\n1 -\n", "expected 2 vertex lines, found 1"),
    ("1 1\n1 -\n2 1\n", "expected 1 vertex lines, found 2"),
    ("2 1\n1 -\n2\n", "bad vertex line: '2'"),
    ("2 1\n1 -\nx 1\n", "bad vertex id: 'x'"),
    ("2 1\n1 -\n2 y\n", "bad parent id of vertex 2: 'y'"),
    ("2 1\n1 -\n2 1 ew\n", "bad attribute 'ew' on vertex 2"),
    ("2 1\n1 -\n2 1 ew=1 ew=2\n", "attribute ew repeated on vertex 2"),
    ("2 1\n1 -\n2 1 ew=z\n", "attribute ew of vertex 2 is not an integer"),
    ("2 1\n1 -\n1 -\n", "duplicate vertex id 1"),
    ("2 1\n2 1\n1 -\n", "vertex lines must be in id order"),
    ("2 5\n1 -\n2 1\n", "root 5 has no vertex line"),
    ("2 1\n1 -\n2 9\n", "unknown parent 9 of vertex 2"),
    ("2 1\n1 2\n2 -\n", "root 1 missing or has a parent"),
    ("3 1\n1 -\n2 1\n3 -\n", "expected exactly one root, found [1, 3]"),
    ("3 1\n1 -\n2 3\n3 2\n", "tree is disconnected or cyclic"),
]

# inputs with two faults, and the message that wins
PARSE_PRECEDENCE = [
    ("1\n", "header must be 'n root_id'"),  # header, line count
    ("3 1\n1 -\n2\n", "expected 3 vertex lines, found 2"),  # count, line
    ("2 1\n1 -\nx y\n", "bad vertex id: 'x'"),  # id, parent
    ("2 1\n1 -\n2 y ew\n", "bad parent id of vertex 2: 'y'"),  # parent, attr
    ("2 1\n1 -\n2 1 ew=z ew=1\n",
     "attribute ew of vertex 2 is not an integer"),  # value, repeat
    ("2 1\n1 -\n2 1 ew=1 ew=z\n",
     "attribute ew repeated on vertex 2"),  # repeat, value
    ("2 1\n1 -\n1 - vw\n", "bad attribute 'vw' on vertex 1"),  # attr, dup
    ("3 1\n2 1\n1 -\n2 1\n", "duplicate vertex id 2"),  # order, duplicate
    ("3 1\n3 1\n1 -\n2\n", "bad vertex line: '2'"),  # order, bad line
    ("3 1\n3 1\n1 -\n2 q\n", "bad parent id of vertex 2: 'q'"),
    ("2 7\n2 1\n1 -\n", "vertex lines must be in id order"),  # order, root
    ("2 1\n2 9\n1 -\n", "vertex lines must be in id order"),  # order, parent
    ("2 5\n1 -\n2 9\n", "root 5 has no vertex line"),  # root line, parent
    ("3 1\n1 -\n2 9\n3 -\n", "unknown parent 9 of vertex 2"),  # parent, roots
    ("3 1\n1 3\n2 -\n3 -\n",
     "root 1 missing or has a parent"),  # root's parent, roots
    ("5 1\n1 -\n2 3\n3 2\n4 -\n5 4\n",
     "expected exactly one root, found [1, 4]"),  # roots, cycle
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS + PARSE_PRECEDENCE)
def test_parse_error_messages(text, message):
    for parse in (parse_tree, reference_parse_tree):
        with pytest.raises(InputError) as err:
            parse(text)
        assert str(err.value) == message


def test_tree_error_messages():
    cases = [
        ((1, {1: None, 2: 9}), "unknown parent 9 of vertex 2"),
        ((3, {1: None, 2: 1}), "root 3 missing or has a parent"),
        ((1, {1: None, 2: None}), "expected exactly one root, found [1, 2]"),
        ((1, {1: None, 2: 3, 3: 2}), "tree is disconnected or cyclic"),
    ]
    for args, message in cases:
        for build in (Tree, reference_tree):
            with pytest.raises(InputError) as err:
                build(*args)
            assert str(err.value) == message


FAMILIES = {
    "path": lambda n, seed: path(n),
    "star": lambda n, seed: star(n),
    "broom": lambda n, seed: broom(n),
    "caterpillar": lambda n, seed: caterpillar(n),
    "random": random_tree,
    "complete-kary": lambda n, seed: complete_kary(n, 1 + seed % 4),
}


def generated_text(family, n, seed, weights):
    t = FAMILIES[family](n, seed)
    if "ew" in weights:
        with_edge_weights(t, seed)
    if "vw" in weights:
        with_vertex_weights(t, seed)
    return serialize_tree(t)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 80),
       st.integers(0, 2**31), st.sampled_from(["", "ew", "vw", "ew vw"]))
def test_parse_equals_the_reference_on_generated_trees(family, n, seed,
                                                       weights):
    text = generated_text(family, n, seed, weights)
    got = outcome(parse_tree, text)
    assert got[0] == "tree"
    assert got == outcome(reference_parse_tree, text)


def test_parse_equals_the_reference_at_two_to_the_sixteen():
    text = generated_text("random", 1 << 16, 3, "ew")
    got = outcome(parse_tree, text)
    assert got[0] == "tree" and len(got[2]) == 1 << 16
    assert got == outcome(reference_parse_tree, text)


def mutated(text, rng):
    """text with one to three random edits: a line dropped, duplicated or
    swapped with another, or a token replaced by a near miss."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        j = rng.randrange(len(lines))
        edit = rng.randrange(4)
        if edit == 0 and len(lines) > 1:
            del lines[i]
        elif edit == 1:
            lines.insert(j, lines[i])
        elif edit == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split() or [""]
            k = rng.randrange(len(toks))
            toks[k] = rng.choice([
                "", "-", "x", "=", "ew", "ew=", "ew=q", "vw=1", "0", "-3",
                str(len(lines) + 5), toks[k] + "0", toks[k][:-1],
                toks[k] + "=1", toks[k] + " " + toks[k]])
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 12),
       st.integers(0, 2**31), st.sampled_from(["", "ew", "vw ew"]),
       st.randoms(use_true_random=False))
def test_parse_equals_the_reference_on_mutated_texts(family, n, seed, weights,
                                                     rng):
    text = mutated(generated_text(family, n, seed, weights), rng)
    assert outcome(parse_tree, text) == outcome(reference_parse_tree, text)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(1, 8), st.one_of(st.none(),
                                                    st.integers(0, 9)),
                       min_size=1, max_size=8),
       st.integers(0, 9), st.booleans())
def test_tree_equals_the_reference_on_parent_maps(parent, root, with_attrs):
    attrs = {v: {"ew": v} for v in parent if v % 2} if with_attrs else None
    assert outcome(Tree, root, parent, attrs=attrs) == \
        outcome(reference_tree, root, parent, attrs=attrs)


# ---------------------------------------------------------------------------
# decompose

def test_decompose_path4():
    dec = decompose(path(4), 2)
    assert list(dec.boundaries) == [0, 2, 4]
    assert [set(g) for g in dec.groups()] == [{1, 2}, {3, 4}]


def test_decompose_single_vertex():
    for lam in (1, 2, 5):
        assert list(decompose(Tree(1, {1: None}), lam).boundaries) == [0, 1]


def test_decompose_star3():
    dec = decompose(star(4), 3)
    assert list(dec.boundaries) == [0, 1, 4]


def test_decompose_rejects_a_lambda_below_1():
    with pytest.raises(InputError, match="lambda must be positive"):
        decompose(path(3), 0)


def test_decompose_rejects_high_degree():
    with pytest.raises(InputError) as e:
        decompose(star(5), 3)
    assert "1" in str(e.value)


@settings(max_examples=60, deadline=None)
@given(tree_strategy(30), st.integers(1, 8))
def test_decompose_invariants(args, lam):
    n, seed = args
    t = random_tree(n, seed)
    if any(t.deg(v) > lam for v in t.vertices()):
        return
    dec = decompose(t, lam)
    assert dec.k <= math.ceil(2 * n / lam)
    for g in dec.groups():
        assert sum(t.deg(v) for v in g) <= lam


# ---------------------------------------------------------------------------
# group components and dependency tree

def test_group_components_path4():
    t = path(4)
    dec = decompose(t, 2)
    comps = group_components(t, dec)
    assert [(i, set(c)) for i, c in comps] == [(1, {1, 2}), (2, {3, 4})]


def test_group_components_star():
    t = star(4)
    comps = group_components(t, decompose(t, 3))
    assert comps[0][0] == 1 and set(comps[0][1]) == {1}
    assert sorted(set(c) for _, c in comps[1:]) == [{2}, {3}, {4}]
    assert all(i == 2 for i, _ in comps[1:])


def test_dependency_tree_path4():
    t = path(4)
    dt = dependency_tree(t, decompose(t, 2))
    assert len(dt.nodes) == 2
    dep = {frozenset(dt.members[x]): dt.dependent[x] for x in dt.nodes}
    assert dep[frozenset({1, 2})] is True
    assert dep[frozenset({3, 4})] is False
    assert sum(1 for x in dt.nodes if dt.parent_of[x] is None) == 1


def test_dependency_tree_whole_group():
    t = path(4)
    dt = dependency_tree(t, decompose(t, 6))
    assert len(dt.nodes) == 1
    assert not any(dt.dependent.values())


@settings(max_examples=40, deadline=None)
@given(tree_strategy(24), st.integers(2, 6))
def test_dependency_sparsity_random(args, lam):
    n, seed = args
    t = random_tree(n, seed)
    if any(t.deg(v) > lam for v in t.vertices()):
        return
    dt = dependency_tree(t, decompose(t, lam))
    for count in dt.dependents_per_group().values():
        assert count <= 1


def test_dependency_sparsity_exhaustive_small():
    for n in range(1, 7):
        for t in all_shapes(n):
            for lam in (2, 3, 4):
                if any(t.deg(v) > lam for v in t.vertices()):
                    continue
                dt = dependency_tree(t, decompose(t, lam))
                assert all(c <= 1 for c in dt.dependents_per_group().values())


# ---------------------------------------------------------------------------
# big-small structure

def test_low_degree_components_whole_tree():
    t = path(6)
    comps = low_degree_components(t, 2)
    assert len(comps) == 1
    assert set(comps[0][0]) == set(t.vertices())
    assert comps[0][1] is True


def test_low_degree_components_rejects_an_alpha_below_2():
    with pytest.raises(InputError, match="alpha must be >= 2"):
        low_degree_components(path(3), 1)


def test_low_degree_components_star():
    t = star(5)
    comps = low_degree_components(t, 3)
    assert sorted(set(c) for c, _ in comps) == [{2}, {3}, {4}, {5}]
    assert all(is_leaf for _, is_leaf in comps)


def test_low_degree_components_maximal():
    t = caterpillar(12)
    for alpha in (2, 3, 4):
        comps = low_degree_components(t, alpha)
        covered = set()
        for comp, _ in comps:
            for v in comp:
                assert t.deg(v) < alpha
                covered.add(v)
                nbrs = list(t.children[v])
                if t.parent[v] is not None:
                    nbrs.append(t.parent[v])
                for u in nbrs:
                    if t.deg(u) < alpha:
                        assert u in comp
        assert covered == {v for v in t.vertices() if t.deg(v) < alpha}


def low_degree_components_reference(tree, alpha):
    """low_degree_components as it was before it read the children map: a
    deg() call per vertex and a Tree.preorder walk with a seen set."""
    if alpha < 2:
        raise InputError("alpha must be >= 2")
    small = {v for v in tree.vertices() if tree.deg(v) < alpha}
    comps = []
    seen = set()
    for v in tree.preorder():
        if v not in small or v in seen:
            continue
        p = tree.parent[v]
        if p is not None and p in small:
            continue
        comp, is_leaf = [], True
        stack = [v]
        while stack:
            u = stack.pop()
            comp.append(u)
            seen.add(u)
            for c in tree.children[u]:
                if c in small:
                    stack.append(c)
                else:
                    is_leaf = False
        comps.append((frozenset(comp), is_leaf))
    return comps


@st.composite
def attached_trees(draw, max_n=60):
    """A tree on 1..n rooted at 1 where vertex v hangs under a drawn earlier
    vertex; small draws pile children on few vertices."""
    picks = draw(st.lists(st.integers(0, 2**16), max_size=max_n - 1))
    parent = {1: None}
    for v, pick in enumerate(picks, start=2):
        parent[v] = 1 + pick % (v - 1)
    return Tree(1, parent)


@settings(max_examples=150, deadline=None)
@given(attached_trees(), st.integers(2, 8))
def test_low_degree_components_equal_the_reference(t, alpha):
    assert as_sets(low_degree_components(t, alpha)) == \
        low_degree_components_reference(t, alpha)


def as_sets(comps):
    """Components as (frozenset, tag) pairs, in the order given."""
    return [(frozenset(comp), tag) for comp, tag in comps]


def group_components_reference(tree, dec):
    """group_components as it was before it built components in one pass: a
    walk down from each group's component tops, members as frozensets."""
    out = []
    for gi, grp in enumerate(dec.groups(), start=1):
        grp_set = set(grp)
        for v in grp:
            if tree.parent[v] in grp_set:
                continue
            comp, stack = [], [v]
            while stack:
                u = stack.pop()
                comp.append(u)
                stack.extend(c for c in tree.children[u] if c in grp_set)
            out.append((frozenset(comp), gi))
    return out


def preorder_keyed(tree):
    """The same tree, its maps keyed in preorder, as a run's work tree is."""
    return Tree(tree.root, {v: tree.parent[v] for v in tree.preorder()})


@settings(max_examples=60, deadline=None)
@given(tree_strategy(40), st.integers(2, 8))
def test_components_on_a_preorder_keyed_tree(args, alpha):
    t = preorder_keyed(random_tree(*args))
    pos = {v: i for i, v in enumerate(t.vertices())}
    ldc = low_degree_components(t, alpha)
    comps = [comp for comp, _ in ldc]
    lam = max(t.deg(v) for v in t.vertices()) + alpha - 2
    dec = decompose(t, lam, t.vertices())
    plain = decompose(t, lam)
    assert (dec.boundaries, dec.order) == (plain.boundaries, plain.order)
    grouped = group_components(t, dec)
    assert [(frozenset(c), gi) for gi, c in grouped] == \
        group_components_reference(t, dec)
    comps += [comp for _, comp in grouped]
    for comp in comps:
        assert isinstance(comp, tuple)
        assert list(comp) == sorted(comp, key=pos.__getitem__)
        assert all(t.parent[v] in comp for v in comp[1:])
        assert t.parent[comp[0]] not in comp
    assert as_sets(ldc) == low_degree_components_reference(t, alpha)


def test_relabeled_keys_are_not_in_preorder():
    t = relabeled_copy(random_tree(40, 1), 1)
    assert list(t.vertices()) != list(t.preorder())


@settings(max_examples=60, deadline=None)
@given(tree_strategy(40), st.integers(2, 8), st.integers(0, 2**31))
def test_components_on_a_relabeled_tree(args, alpha, seed):
    t = relabeled_copy(random_tree(*args), seed)
    assert as_sets(low_degree_components(t, alpha)) == \
        low_degree_components_reference(t, alpha)
    lam = max(t.deg(v) for v in t.vertices()) + alpha - 2
    dec = decompose(t, lam)
    assert [(frozenset(c), gi) for gi, c in group_components(t, dec)] == \
        group_components_reference(t, dec)


def test_big_small_star():
    bst = build_big_small(star(4), 2)
    kinds = sorted(bst.kind.values())
    assert kinds == ["big", "small", "small", "small"]
    assert leaf_fraction(bst) == Fraction(3, 4)


def test_big_small_single_node():
    bst = build_big_small(Tree(1, {1: None}), 3)
    assert leaf_fraction(bst) == Fraction(1)


def test_big_small_adjacency_and_leaf_fraction():
    for n in range(1, 8):
        for t in all_shapes(n):
            for alpha in (2, 3, 4):
                bst = build_big_small(t, alpha)
                for x in bst.nodes:
                    p = bst.parent_of[x]
                    if bst.kind[x] == "small" and p is not None:
                        assert bst.kind[p] == "big"
                assert leaf_fraction(bst) >= Fraction(alpha, alpha + 4)


@settings(max_examples=40, deadline=None)
@given(tree_strategy(60), st.integers(2, 5))
def test_big_small_random(args, alpha):
    n, seed = args
    t = random_tree(n, seed)
    bst = build_big_small(t, alpha)
    assert leaf_fraction(bst) >= Fraction(alpha, alpha + 4)
    for x in bst.nodes:
        p = bst.parent_of[x]
        if bst.kind[x] == "small" and p is not None:
            assert bst.kind[p] == "big"

"""Rooted trees with ordered children, preorder decomposition and Big-Small classification.

Vertices are integer ids. deg(v) counts children only; the parent edge is not
part of the degree. Payload sizes are measured in machine words: one word per
scalar (int, flag, sentinel); a Fraction costs two. Containers are free, they
only give the payload its shape.
"""

from fractions import Fraction
from math import ceil
from operator import countOf

from .errors import InputError

NEG_INF = float("-inf")


# words per scalar, by exact type; anything else goes through the
# isinstance chain in _word_count_fallback
_SCALAR_WORDS = {type(None): 1, bool: 1, int: 1, float: 1, str: 1,
                 Fraction: 2}


def word_count(obj):
    """Number of machine words a payload occupies."""
    cls = type(obj)
    if cls is tuple or cls is list:
        words = 0
        scalar = _SCALAR_WORDS.get
        for x in obj:
            # 0 marks a container or an unlisted type; an empty container
            # recounts to 0 either way
            words += scalar(type(x), 0) or word_count(x)
        return words
    words = _SCALAR_WORDS.get(cls)
    if words is not None:
        return words
    return _word_count_fallback(obj)


def _word_count_fallback(obj):
    """Subclasses of the payload types, and the TypeError for the rest."""
    if isinstance(obj, (bool, int, float)):
        return 1
    if isinstance(obj, Fraction):
        return 2
    if isinstance(obj, str):
        return 1
    if isinstance(obj, (tuple, list)):
        return sum(word_count(x) for x in obj)
    raise TypeError("unsupported payload element: %r" % (obj,))


class Tree:
    """Mutable rooted tree. parent maps vertex -> parent id (None for root);
    children keeps insertion order. attrs carries per-vertex input keys
    (ew, vw, bypass); it is None on a tree of shape only (see shape)."""

    __slots__ = ("root", "parent", "children", "attrs")

    def __init__(self, root, parent, attrs=None):
        """Copies parent and attrs (each attrs dict too) once. Children come
        from the parent map in its order: to give a vertex a child order,
        insert its children into the map in that order."""
        self.root = root
        self.parent = parent = dict(parent)
        self.children = children = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                kids = children.get(p)
                if kids is None:
                    raise InputError("unknown parent %r of vertex %r" % (p, v))
                kids.append(v)
        if attrs:
            get = attrs.get
            self.attrs = {v: dict(get(v, ())) for v in parent}
        else:
            self.attrs = {v: {} for v in parent}
        self.validate()

    @property
    def n(self):
        return len(self.parent)

    def deg(self, v):
        return len(self.children[v])

    def is_leaf(self, v):
        return not self.children[v]

    def vertices(self):
        return self.parent.keys()

    def validate(self):
        """One root, and every vertex reached once from it. The children
        are read off the parent map, so the walk meets only known vertices
        and cannot loop; it only counts."""
        parent, children, root = self.parent, self.children, self.root
        if root not in parent or parent[root] is not None:
            raise InputError("root %r missing or has a parent" % (root,))
        if countOf(parent.values(), None) != 1:
            roots = [v for v, p in parent.items() if p is None]
            raise InputError("expected exactly one root, found %r" % (roots,))
        seen = 0
        stack = [root]
        pop, extend = stack.pop, stack.extend
        while stack:
            seen += 1
            extend(children[pop()])
        if seen != len(parent):
            raise InputError("tree is disconnected or cyclic")

    def preorder(self):
        """Iterative preorder walk in child order."""
        stack = [self.root]
        while stack:
            v = stack.pop()
            yield v
            stack.extend(reversed(self.children[v]))

    def postorder(self):
        """Reverse-preorder walk: every vertex is seen after all descendants."""
        order = list(self.preorder())
        return reversed(order)

    def copy(self):
        t = self.shape()
        if self.attrs is not None:
            t.attrs = {v: dict(a) for v, a in self.attrs.items()}
        return t

    @classmethod
    def of_shape(cls, root, parent, children):
        """Tree of shape only over the given maps, kept as given and not
        validated: the caller vouches that they form a tree."""
        t = cls.__new__(cls)
        t.root, t.parent, t.children, t.attrs = root, parent, children, None
        return t

    def shape(self):
        """Copy of the parent and children maps, with no attrs."""
        return Tree.of_shape(self.root, dict(self.parent),
                             {v: list(cs) for v, cs in self.children.items()})

    def slice(self, members, root):
        """Standalone subtree of shape only over `members` rooted at `root`.
        Members must be closed under children (no dangling child edges)."""
        ms = set(members)
        for v in ms:
            for c in self.children[v]:
                if c not in ms:
                    raise InputError("slice is not closed below %r" % (v,))
        return Tree.of_shape(
            root, {v: (self.parent[v] if v != root else None) for v in members},
            {v: list(self.children[v]) for v in members})

    def remove_leaf(self, v):
        if self.children[v]:
            raise InputError("remove_leaf on internal vertex %r" % (v,))
        p = self.parent[v]
        if p is not None:
            self.children[p].remove(v)
        del self.parent[v]
        del self.children[v]
        if self.attrs is not None:
            self.attrs.pop(v, None)

    def remove_leaves(self, p, leaves):
        """Remove leaf children of p, with one pass over p's children."""
        gone = set(leaves)
        for v in leaves:
            if self.children[v]:
                raise InputError("remove_leaves on internal vertex %r" % (v,))
            if self.parent[v] != p:
                raise InputError("%r is not a child of %r" % (v, p))
        self.children[p] = [c for c in self.children[p] if c not in gone]
        attrs = self.attrs
        for v in leaves:
            del self.parent[v]
            del self.children[v]
            if attrs is not None:
                attrs.pop(v, None)

    def contract(self, members, survivor):
        """Contract the connected set `members` (a set or frozenset, used as
        given) into `survivor` (its topmost member). External children of
        removed members reattach to the survivor in the set's iteration
        order, then child order."""
        adopted = []
        for m in members:
            for c in self.children[m]:
                if c not in members:
                    adopted.append(c)
        kept = [c for c in self.children[survivor] if c not in members]
        # survivor keeps its own external children first, then adopts.
        new_children = kept + [c for c in adopted if self.parent[c] != survivor]
        attrs = self.attrs
        for m in members:
            if m == survivor:
                continue
            del self.parent[m]
            del self.children[m]
            if attrs is not None:
                attrs.pop(m, None)
        self.children[survivor] = new_children
        for c in new_children:
            self.parent[c] = survivor

    def __eq__(self, other):
        return (isinstance(other, Tree) and self.root == other.root
                and self.parent == other.parent
                and self.children == other.children
                and self.attrs == other.attrs)


# ---------------------------------------------------------------------------
# text format: line 1 "n root"; then one line per vertex in id order:
# "id parent|- key=value ..."

def parse_tree(text):
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
        raise InputError("expected %d vertex lines, found %d" % (n, len(lines) - 1))
    # attrs holds only the vertices with attributes; Tree gives the rest {}.
    # A line out of id order is reported only once every line has parsed.
    parent, attrs = {}, {}
    last, in_order = NEG_INF, True
    for ln in lines[1:]:
        parts = ln.split()
        width = len(parts)
        if width < 2:
            raise InputError("bad vertex line: %r" % ln)
        v, p = parts[0], parts[1]
        try:
            v = int(v)
        except ValueError:
            raise InputError("bad vertex id: %r" % parts[0]) from None
        try:
            p = None if p == "-" else int(p)
        except ValueError:
            raise InputError("bad parent id of vertex %d: %r"
                             % (v, parts[1])) from None
        if width > 2:
            kv = {}
            for tok in parts[2:]:
                k, eq, val = tok.partition("=")
                if not eq:
                    raise InputError("bad attribute %r on vertex %d" % (tok, v))
                if k in kv:
                    raise InputError("attribute %s repeated on vertex %d"
                                     % (k, v))
                try:
                    kv[k] = int(val)
                except ValueError:
                    raise InputError("attribute %s of vertex %d is not an "
                                     "integer" % (k, v)) from None
            attrs[v] = kv
        if v in parent:
            raise InputError("duplicate vertex id %d" % v)
        parent[v] = p
        if v < last:
            in_order = False
        last = v
    if not in_order:
        raise InputError("vertex lines must be in id order")
    if root not in parent:
        raise InputError("root %d has no vertex line" % root)
    tree = Tree(root, parent)
    tree.attrs.update(attrs)  # the parsed dicts are ours: no second copy
    return tree


def serialize_tree(tree):
    out = ["%d %d" % (tree.n, tree.root)]
    for v in sorted(tree.parent):
        p = tree.parent[v]
        toks = [str(v), "-" if p is None else str(p)]
        for k in sorted(tree.attrs[v]):
            toks.append("%s=%d" % (k, tree.attrs[v][k]))
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# preorder numbering and decomposition

def preorder_number(tree):
    """Ranks 1..n in preorder; parent before child, subtrees contiguous."""
    rank = {}
    for i, v in enumerate(tree.preorder(), start=1):
        rank[v] = i
    return rank


class Decomposition:
    """Contiguous preorder groups with per-group degree sum <= lam.

    boundaries[i] counts vertices in groups 1..i; order lists vertex ids in
    preorder, so group i is order[boundaries[i-1]:boundaries[i]].
    """

    __slots__ = ("boundaries", "lam", "order")

    def __init__(self, boundaries, lam, order):
        self.boundaries = tuple(boundaries)
        self.lam = lam
        self.order = tuple(order)

    @property
    def k(self):
        return len(self.boundaries) - 1

    def groups(self):
        b = self.boundaries
        return [list(self.order[b[i - 1]:b[i]]) for i in range(1, len(b))]


def decompose(tree, lam, order=None):
    """Greedy left-to-right packing over `order`, a preorder of tree's
    vertices (tree.preorder() by default), taken as it is. A group is closed
    once its degree sum reached lam, or when the next vertex would push it
    past lam."""
    if lam < 1:
        raise InputError("lambda must be positive")
    order = tuple(tree.preorder() if order is None else order)
    children = tree.children
    boundaries = [0]
    cur = 0
    for i, v in enumerate(order):
        d = len(children[v])
        if d > lam:
            raise InputError("degree of vertex %r exceeds lambda=%d" % (v, lam))
        if i > 0 and (cur >= lam or cur + d > lam):
            boundaries.append(i)
            cur = 0
        cur += d
    boundaries.append(len(order))
    dec = Decomposition(boundaries, lam, order)
    assert dec.k <= ceil(2 * tree.n / lam) or tree.n == 1
    return dec


def group_components(tree, dec):
    """Connected components of each group's induced forest, as
    (group_index, member tuple) in (group, top) order. dec.order must be a
    preorder, so a vertex meets its parent first: it joins the parent's
    component when the parent is in its group, and members come in
    dec.order, the top first."""
    parent = tree.parent
    out = []
    for gi, grp in enumerate(dec.groups(), start=1):
        comp_of = {}
        for v in grp:
            comp = comp_of.get(parent[v])
            if comp is None:
                comp = []
                out.append((gi, comp))
            comp.append(v)
            comp_of[v] = comp
    return [(gi, tuple(comp)) for gi, comp in out]


class DependencyTree:
    """Each node is one within-group component; edges follow source-tree edges
    across components. A node is dependent iff it has child components."""

    __slots__ = ("nodes", "parent_of", "group", "members", "dependent")

    def __init__(self, nodes, parent_of, group, members, dependent):
        self.nodes = nodes
        self.parent_of = parent_of
        self.group = group
        self.members = members
        self.dependent = dependent

    def dependents_per_group(self):
        counts = {}
        for cid in self.nodes:
            if self.dependent[cid]:
                g = self.group[cid]
                counts[g] = counts.get(g, 0) + 1
        return counts


def dependency_tree(tree, dec):
    comps = group_components(tree, dec)
    comp_of = {}
    for cid, (gi, members) in enumerate(comps):
        for v in members:
            comp_of[v] = cid
    parent_of, dependent = {}, {}
    group, members_of = {}, {}
    for cid, (gi, members) in enumerate(comps):
        group[cid] = gi
        members_of[cid] = members
        dependent[cid] = False
        p = tree.parent[members[0]]  # the top comes first
        parent_of[cid] = comp_of[p] if p is not None else None
    for cid, pc in parent_of.items():
        if pc is not None:
            dependent[pc] = True
    return DependencyTree(list(range(len(comps))), parent_of, group,
                          members_of, dependent)


# ---------------------------------------------------------------------------
# Big-Small classification

def low_degree_components(tree, alpha):
    """Maximal components over {v : deg(v) < alpha}, each as (member tuple,
    whether it is a leaf of the induced Big-Small tree: no big vertex below
    it). Components come in the order a preorder walk meets their tops;
    members come in the tree's key order, so the top first when the keys
    are in preorder."""
    if alpha < 2:
        raise InputError("alpha must be >= 2")
    parent, children = tree.parent, tree.children
    comp_of, leaf = {}, []
    walk = [tree.root]  # preorder: a vertex is met after its parent
    while walk:
        v = walk.pop()
        kids = children[v]
        walk.extend(reversed(kids))
        p = parent[v]
        if len(kids) < alpha:
            i = comp_of.get(p)
            if i is None:
                i = len(leaf)
                leaf.append(True)
            comp_of[v] = i
        elif p in comp_of:
            leaf[comp_of[p]] = False
    members = [[] for _ in leaf]
    for v in children:
        i = comp_of.get(v)
        if i is not None:
            members[i].append(v)
    return [(tuple(comp), is_leaf) for comp, is_leaf in zip(members, leaf)]


class BigSmallTree:
    """Minor with big vertices kept and each maximal low-degree component
    contracted to one node. Node ids: ('b', v) for big, ('s', i) for small."""

    __slots__ = ("alpha", "nodes", "parent_of", "kind", "members")

    def __init__(self, alpha, nodes, parent_of, kind, members):
        self.alpha = alpha
        self.nodes = nodes
        self.parent_of = parent_of
        self.kind = kind
        self.members = members

    def leaves(self):
        has_child = {x: False for x in self.nodes}
        for x in self.nodes:
            p = self.parent_of[x]
            if p is not None:
                has_child[p] = True
        return [x for x in self.nodes if not has_child[x]]


def build_big_small(tree, alpha):
    comps = low_degree_components(tree, alpha)
    node_of = {}
    members = {}
    nodes = []
    for i, (comp, _leaf) in enumerate(comps):
        nid = ("s", i)
        nodes.append(nid)
        members[nid] = comp
        for v in comp:
            node_of[v] = nid
    for v in tree.vertices():
        if tree.deg(v) >= alpha:
            nid = ("b", v)
            nodes.append(nid)
            members[nid] = (v,)
            node_of[v] = nid
    parent_of, kind = {}, {}
    for nid in nodes:
        kind[nid] = "small" if nid[0] == "s" else "big"
        top = next(v for v in members[nid]
                   if tree.parent[v] is None or node_of[tree.parent[v]] != nid)
        p = tree.parent[top]
        parent_of[nid] = node_of[p] if p is not None else None
    return BigSmallTree(alpha, nodes, parent_of, kind, members)


def leaf_fraction(bst):
    return Fraction(len(bst.leaves()), len(bst.nodes))

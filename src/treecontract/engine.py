"""Tree contraction over the round simulator.

Payload representation shared by every problem plugin: a vertex's payload is
a small residual tree encoded as nested tuples. A known node is
("k", vertex_id, edge_up, data, kids); an unresolved child slot is
("s", child_id, acc) where acc is an edge accumulated from vertices removed
between the child and this node (None = nothing pending). edge_up is the
problem's edge object toward the current parent (None at the tree root, and
everywhere in unary algebras). Plain pending children are not represented:
only the payload's root node may have them, and the host ships their ids
alongside each component, so a payload stays O(C_w) words no matter how many
children a vertex has. A live child u of v is a slot of v's payload iff
u's parent in the input tree is not v. Problem semantics live entirely in
an Algebra instance; the engine contracts each component in one pass over
its members' payload tuples, children first, and keeps the books. Nothing
it builds refers back to its parent, so a run leaves no reference cycles
and runs with the cyclic collector paused.

The host plans each contraction as a log.Record without its payloads, and
one machine builder carries out every plan: it reads the members' payloads,
which the table keys by vertex id, writes the survivor's new payload and
fills the payloads into the plan. That record is the host's log record.
A machine writes all of its records at once, as one LOG entry under
("LOG", stage, its first plan's survivor): k plans cost k + 1 writes. A
record holds the members' payloads, so the machine retires the key of
every member but the survivor: each payload is held once in the table.
"""

import gc
import math
from collections import namedtuple
from types import MappingProxyType

from .errors import InputError, LogIntegrityError, SimFault
# reconstruct is imported for the callers that read it from the engine
from .log import ContractionLog, Record, _compose, reconstruct  # noqa: F401
from .sim import Machine, Simulator
from .trees import (
    NEG_INF,
    Tree,
    decompose,
    group_components,
    low_degree_components,
    word_count,
)


class Algebra:
    """Problem plugin interface. data/edge/value objects must be built from
    ints, bools, strs, floats (only -inf), Fractions, None, and tuples, so
    word accounting and the log codec apply uniformly.

    Required: init_data, fresh_edge, node_value, through_edge, absorb,
    sibling_fold, finalize. Removing a one-child vertex needs either
    chain+compose (edge algebras) or merge_chain (unary lifts); returning
    NotImplemented from both leaves the vertex in the residual tree. absorb
    must not care in which order a vertex's children arrive.
    """

    name = "abstract"
    C_w = 16

    def init_data(self, tree, v):
        raise NotImplementedError

    def fresh_edge(self, tree, v):
        raise NotImplementedError

    def node_value(self, data):
        """Value of a vertex all of whose children have been absorbed."""
        raise NotImplementedError

    def through_edge(self, value, edge):
        """Contribution of a child subtree with the given value, seen through
        the child's upward edge."""
        raise NotImplementedError

    def absorb(self, data, contribution):
        raise NotImplementedError

    def chain(self, hi_edge, data, lo_edge):
        """Edge replacing a removed one-child vertex. lo_edge None = identity."""
        return NotImplemented

    def compose(self, hi_edge, lo_edge):
        """Edge concatenation with no vertex at the junction."""
        return NotImplemented

    def merge_chain(self, parent_data, mid_data):
        """Unary-lift alternative to chain: fold a one-child vertex's data
        into its known parent, reattaching the child below the parent. Only
        sound when every edge involved is the identity."""
        return NotImplemented

    def sibling_fold(self, contributions):
        """Fold fully contracted leaf siblings; returns (data, edge_up) for
        the one leaf that stands in for the batch."""
        raise NotImplementedError

    def finalize(self, data):
        return self.node_value(data)


def payload_fault(fault, who, words, budget):
    """Report to `fault` that the payload `who`, of `words` words, exceeds
    its budget of C_w per pending child slot plus C_w."""
    fault("%s: payload of %d words exceeds %d (non-conforming contractor)"
          % (who, words, budget))


# ---------------------------------------------------------------------------
# machine-local contraction

def _settle(plugin, data, kid, kept):
    """Apply the local rules to one finished kid of a node whose data is
    `data`: absorb a known leaf, remove a known node with one hole by chain
    (or, with identity edges, merge_chain into the parent), else keep it on
    `kept`. Returns the parent's data."""
    if kid[0] == "s":
        kept.append(kid)
        return data
    edge, kdata, holes = kid[2], kid[3], kid[4]
    if not holes:
        return plugin.absorb(data, plugin.through_edge(
            plugin.node_value(kdata), edge))
    if len(holes) == 1:
        hole = holes[0]
        # a known hole's index-2 field is its edge, a slot's its acc
        chained = plugin.chain(edge, kdata, hole[2])
        if chained is not NotImplemented:
            kept.append(hole[:2] + (chained,) + hole[3:])
            return data
        if edge is None and (hole[0] == "k" or hole[2] is None):
            merged = plugin.merge_chain(data, kdata)
            if merged is not NotImplemented:
                kept.append(hole)
                return merged
    kept.append(kid)
    return data


def _contract_payload(plugin, node, done, plain=(), outs=()):
    """Contract one payload in postorder: every known node settles each kid
    once, left to right. A slot of a member in `done` takes that member's
    finished node, edge composed with the slot's acc; the members in `plain`
    that no slot took settle after the root's own kids; `outs` become fresh
    slots at the end of the root's kids."""
    data = node[3]
    kept = []
    for kid in node[4]:
        if kid[0] == "k":
            kid = _contract_payload(plugin, kid, done)
        else:
            sub = done.pop(kid[1], None)
            if sub is not None:
                kid = ("k", sub[1], _compose(plugin, kid[2], sub[2]), sub[3],
                       sub[4])
        data = _settle(plugin, data, kid, kept)
    for m in plain:
        sub = done.pop(m, None)
        if sub is not None:
            data = _settle(plugin, data, sub, kept)
    kept.extend([("s", u, None) for u in outs])
    return ("k", node[1], node[2], data, tuple(kept))


def contract_component(plugin, members, parents, outs, payloads):
    """Pure form of one connected contraction; returns the survivor payload.
    payloads are the members' payloads in member order. Members are
    contracted children first (reverse component preorder), so each hangs
    under its parent already contracted; the component root survives and
    keeps its plain children off the payload."""
    plain = {}
    for m, pm in zip(members, parents):
        if pm is not None:
            plain.setdefault(pm, []).append(m)
    done = {}
    for i in range(len(members) - 1, 0, -1):
        m = members[i]
        done[m] = _contract_payload(plugin, payloads[i], done,
                                    plain.get(m, ()), outs[i])
    return _contract_payload(plugin, payloads[0], done,
                             plain.get(members[0], ()))


# ---------------------------------------------------------------------------
# machine builders

class _Books(namedtuple("_Books", "table fault c_w origin virtual log")):
    """What the host plans from besides the tree: a read-only view of the
    simulator's table (table), of which the host reads only the counts, so
    table[v][1] is the word count of v's payload while v is live (the
    machine that contracts v away retires the key); the simulator's fault
    hook (fault), which raises or records a budget or cap violation, and the
    plugin's C_w (c_w); the parent map of the input tree (origin), read and
    never written, by which a live child u of v is a pending slot of v's
    payload iff origin[u] != v; the vertices that stand in for a folded
    sibling batch (virtual); and the contraction log. Payloads themselves
    live only in the simulator's store."""

    __slots__ = ()


def _comp_spec(tree, members, books, stage, root_outs_known=True):
    """The plan of one connected contraction under `stage`: its Record, with
    no payloads yet."""
    mset = set(members)
    parent, children, origin = tree.parent, tree.children, books.origin
    parents, outs = [], []
    for i, m in enumerate(members):
        p = parent[m]
        parents.append(p if p in mset else None)
        kids = children[m]
        if not kids or (i == 0 and not root_outs_known):
            outs.append(())
            continue
        outs.append(tuple([u for u in kids
                           if origin[u] == m and u not in mset]))
    virtual = books.virtual
    return Record(stage, tuple(members), None,
                  tuple(sorted([m for m in members if m in virtual])),
                  tuple(parents), tuple(outs), root_outs_known)


def _plan_words(plan):
    """Words a machine holds for a plan besides the payloads it reads: 4 per
    member plus the outs for a component, the members plus 3 for a sibling
    batch."""
    if plan.kind == "sibling":
        return len(plan.members) + 3
    return 4 * len(plan.members) + sum(map(len, plan.outs))


def _estimate(table, plan):
    return _plan_words(plan) + sum([table[m][1] for m in plan.members])


def _machine(plugin, plans):
    """The machine that carries out `plans`, of one stage: for each, it reads
    the members' payloads, contracts the component or folds the sibling
    batch, writes the survivor's payload and retires the other members. It
    then writes its records, the plans with their payloads filled in, as one
    LOG entry under ("LOG", stage, first plan's survivor): their tuple, in
    plan order, counted as the sum of each record's read charges and header.
    Like every machine, it speaks only through the table: its body returns
    nothing."""

    def run(ctx):
        records, words = [], 0
        for plan in plans:
            members, survivor = plan.members, plan.members[0]
            read_before = ctx.read_words
            payloads = tuple([ctx.read(m) for m in members])
            words += ctx.read_words - read_before
            if plan.kind == "connected":
                payload = contract_component(plugin, members, plan.parents,
                                             plan.outs, payloads)
            else:
                for leaf, node in zip(members, payloads):
                    if node[4]:
                        raise SimFault("%s: sibling %r is not fully "
                                       "contracted" % (plan.label, leaf))
                data, edge = plugin.sibling_fold([plugin.through_edge(
                    plugin.node_value(node[3]), node[2]) for node in payloads])
                payload = ("k", survivor, edge, data, ())
            ctx.write(survivor, payload)
            ctx.retire(members[1:])
            rec = plan._replace(payloads=payloads)
            records.append(rec)
            words += rec.header_words()
        ctx.write(("LOG", plans[0].label, plans[0].members[0]),
                  tuple(records), words)

    return Machine(sum(map(_plan_words, plans)), run, plans[0].label)


def _pack(items, sizes, cap):
    """First-fit decreasing bin packing; returns lists of items. A max tree
    over the bins' free room (-inf for a bin not yet open) leads each item
    to the leftmost bin with room for it, in O(log n); an item that fits no
    open bin, one over cap included, opens the next bin, so a bin of more
    than one item holds at most cap."""
    order = sorted(range(len(items)), key=lambda i: -sizes[i])
    leaves = 1
    while leaves < len(items):
        leaves *= 2
    room = [NEG_INF] * (2 * leaves)
    bins = []
    for i in order:
        size = sizes[i]
        if room[1] >= size:
            node = 1
            while node < leaves:
                node *= 2
                if room[node] < size:
                    node += 1
            bins[node - leaves].append(items[i])
            room[node] -= size
        else:
            node = leaves + len(bins)
            bins.append([items[i]])
            room[node] = cap - size
        node //= 2
        while node:
            left, right = room[2 * node], room[2 * node + 1]
            room[node] = left if left >= right else right
            node //= 2
    return bins


def _apply_results(tree, books, bundles):
    """Apply one round to the host tree, from its bundles of plans, one per
    machine in machine order, and what their machines wrote to the table.
    Each survivor's payload count in the table is checked against the
    budget for its slots, its children by the origin rule once its component
    is contracted. Each machine's LOG entry, read once under its first
    plan's key, adds its records and their count to the log. Folded leaves
    go once the round's records are in, one pass per parent, the parent of
    their batch's survivor: no plan of a round contracts a batch's parent."""
    table, fault, c_w = books.table, books.fault, books.c_w
    origin, virtual, log = books.origin, books.virtual, books.log
    parent, children = tree.parent, tree.children
    folded = {}
    for plans in bundles:
        for plan in plans:
            members, survivor = plan.members, plan.members[0]
            if plan.kind == "connected":
                tree.contract(set(members), survivor)
            else:
                folded.setdefault(parent[survivor], []).extend(members[1:])
                virtual.add(survivor)
            slots = sum([origin[u] != survivor for u in children[survivor]])
            pwords, budget = table[survivor][1], c_w * (slots + 1)
            if pwords > budget:
                payload_fault(fault, "%s survivor %r" % (plan.label, survivor),
                              pwords, budget)
        log.extend(*table[("LOG", plans[0].label, plans[0].members[0])])
    for p, leaves in folded.items():
        tree.remove_leaves(p, leaves)


# ---------------------------------------------------------------------------
# algorithm unit generators

def degree_budget(cfg):
    """Largest per-group degree sum (and per-vertex degree) the bounded
    algorithm accepts: a group's payload traffic must fit one machine."""
    return max(2, cfg.S // (2 * cfg.C_w))


def sibling_batch(cfg):
    return max(2, math.ceil(cfg.n ** cfg.epsilon))


def _round(tree, plugin, cfg, books, plans, sizes):
    """One round that carries out `plans`, of one stage: _pack packs them by
    `sizes`, their _estimate, first-fit decreasing into machines of S words,
    and each machine writes one LOG entry. Once the round has run, the
    stream resumes and applies the machines' bundles from the table."""
    bundles = _pack(plans, sizes, cfg.S)
    yield ("round", [_machine(plugin, bundle) for bundle in bundles])
    _apply_results(tree, books, bundles)


def _rake(tree, plugin, cfg, books, stage):
    """One round under `stage` that contracts every parent with its leaf
    children, one plan per parent, packed by _estimate."""
    children = tree.children
    plans = []
    for p, kids in children.items():
        leaf_kids = [u for u in kids if not children[u]]
        if leaf_kids:
            plans.append(_comp_spec(tree, (p,) + tuple(leaf_kids), books,
                                    stage))
    yield from _round(tree, plugin, cfg, books, plans,
                      [_estimate(books.table, plan) for plan in plans])


def _final(tree, plugin, cfg, books, stage):
    """One round under `stage` that contracts the whole tree on one machine
    if its all-vertex plan fits S; returns whether the tree is one vertex.
    The plan is sized before it is built, and only built if it fits."""
    if tree.n == 1:
        return True
    # the all-vertex plan holds 4 words per vertex besides its payloads,
    # and no outs, as a whole tree has none: so it cannot fit while 4n > S,
    # and the sum below is its _estimate
    if 4 * tree.n > cfg.S:
        return False
    members, table = tuple(tree.vertices()), books.table
    words = 4 * tree.n + sum([table[v][1] for v in members])
    if words > cfg.S:
        return False
    yield from _round(tree, plugin, cfg, books,
                      [_comp_spec(tree, members, books, stage)], [words])
    return True


def _bounded_units(tree, plugin, cfg, books, prefix=""):
    """Unit stream of the bounded-degree contraction; books is kept current
    for every live vertex. Yields ("charge", label) and ("round", machines);
    a phase over the cap is reported to books.fault. Planning reads
    tree.vertices() as the preorder to decompose, so tree must be keyed in
    preorder. Each phase charges that numbering: a standalone run's first
    phase a preorder, every other phase a relabel, for the rounds
    sim.CHARGES gives each. A nested run (prefix set) is a fringe component,
    its top's whole subtree and so a contiguous run of the main tree's
    preorder, which the general run has charged: its ranks are the main
    tree's less its top's, so its first phase is a relabel too. A phase's
    compress plans, one per component of a group, go to _round like every
    other round's, so a machine may hold plans of several groups. The run
    ends in _final, tried at the top of each phase and again after its
    compress."""
    lam = degree_budget(cfg)
    children = tree.children
    for v, kids in children.items():
        if len(kids) > lam:
            raise InputError(
                "vertex %r has degree %d over the budget %d; use the general "
                "contraction or an expansion first" % (v, len(kids), lam))
    phase = 0
    while not (yield from _final(tree, plugin, cfg, books, prefix + "final")):
        phase += 1
        if phase > cfg.phase_cap:
            books.fault("%sphase %d exceeds the cap of %d"
                        % (prefix, phase, cfg.phase_cap))
        label = "%sphase %d" % (prefix, phase)
        if phase > 1 or prefix:
            yield ("charge", "relabel")
        else:
            yield ("charge", "preorder")
        dec = decompose(tree, lam, tree.vertices())
        k = dec.k
        plans = [_comp_spec(tree, comp, books, label + " compress")
                 for _gi, comp in group_components(tree, dec) if len(comp) > 1]
        yield from _round(tree, plugin, cfg, books, plans,
                          [_estimate(books.table, plan) for plan in plans])
        if (yield from _final(tree, plugin, cfg, books, prefix + "final")):
            break
        yield from _rake(tree, plugin, cfg, books, label + " rake")
        if tree.n > max(1, k):
            raise LogIntegrityError(
                "%s left %d vertices, over the group count %d"
                % (label, tree.n, k))


def _general_units(tree, plugin, cfg, books):
    """Unit stream of the general contraction: phases of compress, nested
    bounded runs and leaf levels, ended by _final, tried at the top of each
    phase. Each phase charges connectivity; phase 1 also numbers the tree
    in preorder in the same rounds, an independent computation on the same
    tree, and every nested run inherits that order, as contraction keeps
    its restriction a preorder. The direct compress
    round runs as the first stream beside the nested runs, so it shares
    their first compress round. Each leaf level is one round: a parent with
    at most alpha eligible leaves is raked with them, when that plan fits S
    or holds one leaf, and leaves the loop; the eligible leaves of every
    other parent fold in sibling batches of alpha. The eligible leaves are
    the leaves the loop starts with: a vertex that a rake turns into a leaf
    is not raked into its parent in the same phase, so the levels do not
    walk up a caterpillar's spine. Only levels that hold a sibling batch
    count toward the cap of inv_eps."""
    lam = degree_budget(cfg)
    alpha = sibling_batch(cfg)
    table, virtual, children = books.table, books.virtual, tree.children
    phase = 0
    while not (yield from _final(tree, plugin, cfg, books, "final")):
        phase += 1
        if phase > cfg.phase_cap:
            books.fault("phase %d exceeds the cap of %d"
                        % (phase, cfg.phase_cap))
        label = "phase %d" % phase
        n_before = tree.n
        yield ("charge", "connectivity, preorder" if phase == 1
               else "connectivity")
        direct, sizes, nested = [], [], []
        for members, is_fringe in low_degree_components(tree, lam + 1):
            if not is_fringe or len(members) < 2:
                continue
            # a fringe component is closed below, so its plan has no outs
            # and this sum is its _estimate
            words = 4 * len(members) + sum([table[m][1] for m in members])
            if words > cfg.S:
                nested.append(members)
                continue
            direct.append(_comp_spec(tree, members, books,
                                     label + " compress"))
            sizes.append(words)
        compress = _round(tree, plugin, cfg, books, direct, sizes)
        if nested:
            slices, streams = [], [compress]
            for members in nested:
                sub = tree.slice(members, members[0])
                slices.append((members, sub))
                streams.append(_bounded_units(sub, plugin, cfg, books,
                                              prefix=label + " "))
            yield from _merged(streams, cfg.machine_cap)
            for members, sub in slices:
                if sub.n != 1:
                    raise LogIntegrityError(
                        "nested run left %d vertices" % sub.n)
                tree.contract(set(members), members[0])
        else:
            yield from compress
        eligible = {v for v, kids in children.items() if not kids}
        level = sibling_levels = 0
        while True:
            level += 1
            stage = "%s rake L%d" % (label, level)
            plans, sizes, batched = [], [], False
            for p, kids in children.items():
                leaves = [u for u in kids if u in eligible]
                if not leaves:
                    continue
                if len(leaves) <= alpha:
                    rake = _comp_spec(tree, (p,) + tuple(leaves), books,
                                      stage, root_outs_known=False)
                    words = _estimate(table, rake)
                    if words <= cfg.S or len(leaves) == 1:
                        plans.append(rake)
                        sizes.append(words)
                        continue
                for i in range(0, len(leaves), alpha):
                    chunk = tuple(leaves[i:i + alpha])
                    if len(chunk) > 1:
                        batch = Record(
                            stage, chunk, None,
                            tuple(sorted([u for u in chunk if u in virtual])))
                        plans.append(batch)
                        sizes.append(_estimate(table, batch))
                        batched = True
            if not plans:
                break
            if batched:
                sibling_levels += 1
                if sibling_levels > cfg.inv_eps:
                    books.fault("%s sibling level %d exceeds %d"
                                % (label, sibling_levels, cfg.inv_eps))
            yield from _round(tree, plugin, cfg, books, plans, sizes)
        if tree.n >= n_before:
            raise LogIntegrityError("%s made no progress (%d vertices)"
                                    % (label, tree.n))


# ---------------------------------------------------------------------------
# scheduling: a unit stream is a one-way iterator of two unit kinds,
# ("charge", label) and ("round", machines). A stream resumes only once
# its round has run, and reads what the round's machines wrote from the
# table, their only output. _merged turns several streams into one, so that
# independent runs (a general phase's direct compress and its nested bounded
# runs, or whole runs side by side) share their rounds; _drive executes one
# stream and is the only engine code that advances the simulator. Budget and
# cap violations do not travel as units: the streams report them to the
# simulator's fault hook themselves.

def _merged(streams, cap):
    """One stream running `streams` side by side. While any stream is at a
    ("charge", label), each distinct label among them is charged once, in
    stream order, and those streams move on; the streams at a round wait.
    Once every stream is at a round, the rounds run: whole streams are
    packed in stream order into rounds of at most `cap` machines (a stream
    over the cap by itself gets a round of its own). A stream that finishes
    drops out; any other unit is a LogIntegrityError."""
    live = [[stream, None] for stream in streams]  # stream, its next unit
    while True:
        for entry in live:
            if entry[1] is None:
                entry[1] = unit = next(entry[0], None)
                if unit is None:
                    entry[0] = None
                elif unit[0] != "round" and unit[0] != "charge":
                    raise LogIntegrityError("unit %r inside a parallel step"
                                            % (unit[0],))
        live = [entry for entry in live if entry[0] is not None]
        if not live:
            return
        at_charge = [entry for entry in live if entry[1][0] == "charge"]
        if at_charge:
            for charge in dict.fromkeys([entry[1] for entry in at_charge]):
                yield charge
            for entry in at_charge:
                entry[1] = None
            continue
        bins, count = [], 0
        for entry in live:
            k = len(entry[1][1])
            if not bins or count + k > cap:
                bins.append([])
                count = 0
            bins[-1].append(entry)
            count += k
        for group in bins:
            yield ("round", [m for entry in group for m in entry[1][1]])
        for entry in live:
            entry[1] = None


def _drive(sim, units):
    """Execute a unit stream of rounds and charges on sim. A round with no
    machines runs no round."""
    for unit in units:
        if unit[0] == "charge":
            sim.charge(unit[1])
        elif unit[1]:
            sim.run_round(unit[1])


# ---------------------------------------------------------------------------
# public entry points

def run_simulator(plugin, cfg, n):
    """A fresh simulator for a run of plugin over a tree of n vertices: its
    config, the only place one is derived, is cfg with the plugin's C_w and
    n grown to at least n."""
    return Simulator(cfg.replaced(C_w=plugin.C_w, n=max(cfg.n, n)))


def _fresh_run(tree, plugin, sim):
    """Start a run on sim: the initial payloads, read from tree's attrs, are
    checked against the budget and stored with their counts. Returns the
    run's work tree, of tree's shape only and keyed in preorder, and its
    books. The run drops vertices from the work tree but reads no attrs and
    adds no keys, so its key order stays a preorder, the only vertex order
    that planning reads. One preorder walk builds both, and a payload over
    budget is reported as the walk meets it. sim must have the plugin's C_w
    and room for tree."""
    if sim.cfg.C_w != plugin.C_w or sim.cfg.n < tree.n:
        raise InputError("simulator for C_w=%d, n=%d cannot run %s (C_w=%d) "
                         "on %d vertices" % (sim.cfg.C_w, sim.cfg.n,
                                             plugin.name, plugin.C_w, tree.n))
    c_w, fault = plugin.C_w, sim.fault
    fresh_edge, init_data = plugin.fresh_edge, plugin.init_data
    tree_parent, tree_children = tree.parent, tree.children
    parent, children, entries = {}, {}, []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        kids = tree_children[v]
        parent[v] = tree_parent[v]
        children[v] = kids[:]
        stack += kids[::-1]
        edge, data = fresh_edge(tree, v), init_data(tree, v)
        # "k" and the vertex id are a word each, the empty kids tuple none;
        # two calls cost less than one on the whole payload, whose loop
        # would take the scalars off word_count's fast path
        words = 2 + word_count(edge) + word_count(data)
        if words > c_w:
            payload_fault(fault, "vertex %r" % (v,), words, c_w)
        entries.append((v, (("k", v, edge, data, ()), words)))
    sim.store(entries)
    books = _Books(MappingProxyType(sim.generation), fault, c_w, tree_parent,
                   set(), ContractionLog(tree.root, parent))
    return Tree.of_shape(tree.root, parent, children), books


def _contract(runs, sim, units, label):
    """Run the stream units(work, plugin, sim.cfg, books) of each
    (tree, plugin) run in `runs` side by side on sim, in shared rounds
    under one phase `label`, each on a fresh copy of its tree's shape keyed
    in preorder. The runs share the simulator's table, so their trees'
    vertex ids must be disjoint. Returns one (answer, ContractionLog) per
    run, the answer read at its root, and the metrics.

    The cyclic collector is paused meanwhile: the runs' working data are
    acyclic tuples that reference counting frees, so its passes would only
    rescan the growing logs. It is turned back on only if it was on. On exit
    every tracked object, the finished logs included, is handed to the
    oldest generation, so the young collections that follow do not traverse
    the logs again: by freeze then unfreeze, a list splice, when nothing is
    frozen, else by one collection of the young generations, which leaves
    frozen objects (a caller's, or those some interpreter builds freeze at
    startup) frozen."""
    if len(runs) > 1:
        seen = set()
        for tree, _plugin in runs:
            if not seen.isdisjoint(tree.parent):
                raise InputError("runs side by side share a vertex id")
            seen.update(tree.parent)
    cfg = sim.cfg
    was_on = gc.isenabled()
    gc.disable()
    try:
        started, streams = [], []
        for tree, plugin in runs:
            work, books = _fresh_run(tree, plugin, sim)
            started.append((work, plugin, books))
            if work.n > 1:
                streams.append(units(work, plugin, cfg, books))
        if streams:
            with sim.phase(label):
                _drive(sim, _merged(streams, cfg.machine_cap))
        out = []
        for work, plugin, books in started:
            payload = sim.generation[work.root][0]
            if payload[4]:
                raise LogIntegrityError(
                    "root payload still has pending children")
            log = books.log
            log.final_payload = payload
            if log.total_words > cfg.log_cap:
                sim.fault("contraction log of %d words exceeds %d"
                          % (log.total_words, cfg.log_cap))
            out.append((plugin.finalize(payload[3]), log))
        return out, sim.snapshot_metrics()
    finally:
        if gc.get_freeze_count():
            gc.collect(1)
        else:
            gc.freeze()
            gc.unfreeze()
        if was_on:
            gc.enable()


def contract_side_by_side(runs, sim, label):
    """General contraction of each (tree, plugin) run in `runs` on sim, the
    runs side by side in shared rounds under the phase `label`; their trees'
    vertex ids must be disjoint. Returns one (answer, ContractionLog) per
    run, and the metrics."""
    return _contract(runs, sim, _general_units, label)


def bounded_tree_contract(tree, plugin, cfg, sim=None):
    """Contract a tree whose degrees fit the decomposition budget; the answer
    is read at the root. Returns (answer, ContractionLog, metrics). With sim
    given, cfg is not read; else run_simulator sets one up."""
    ((answer, log),), metrics = _contract(
        [(tree, plugin)], sim or run_simulator(plugin, cfg, tree.n),
        _bounded_units, "contract")
    return answer, log, metrics


def tree_contract(tree, plugin, cfg, sim=None):
    """General contraction: per phase, contract the low-degree fringe of the
    degree-split structure (components too big for one machine run the
    bounded algorithm on a slice, side by side with their peers and with
    the components that fit), then rake every parent with its leaves, level
    by level: a parent with more than alpha leaves folds them in sibling
    batches first. With sim given, cfg is not read; else run_simulator sets
    one up."""
    ((answer, log),), metrics = _contract(
        [(tree, plugin)], sim or run_simulator(plugin, cfg, tree.n),
        _general_units, "contract")
    return answer, log, metrics


# ---------------------------------------------------------------------------
# unary lifting and the sequential reference

class LiftedAlgebra(Algebra):
    """General contractor built from a unary pair: c1 folds one child's value
    into its parent, r1 folds two sibling values. The pair must satisfy the
    compatibility law c1(c1(a, x), y) == c1(a, r1(x, y)), which also makes
    the engine's absorption order immaterial."""

    C_w = 8

    def __init__(self, c1, r1, init=None, name="lifted"):
        self.c1 = c1
        self.r1 = r1
        self.init = init
        self.name = name

    def init_data(self, tree, v):
        if self.init is not None:
            return self.init(tree, v)
        return tree.attrs[v]["val"]

    def fresh_edge(self, tree, v):
        return None

    def node_value(self, data):
        return data

    def through_edge(self, value, edge):
        if edge is not None:
            raise LogIntegrityError("unary lift saw an edge object")
        return value

    def absorb(self, data, contribution):
        return self.c1(data, contribution)

    def merge_chain(self, parent_data, mid_data):
        return self.c1(parent_data, mid_data)

    def sibling_fold(self, contributions):
        folded = contributions[0]
        for value in contributions[1:]:
            folded = self.r1(folded, value)
        return folded, None


def lift_unary(c1, r1, init=None, name="lifted"):
    return LiftedAlgebra(c1, r1, init, name)


def two_contraction_reference(tree, c1, r1, init=None):
    """Sequential rake/compress contraction used as a semantic oracle for
    unary contractor pairs. Phase count is asserted logarithmic."""
    work = tree.copy()
    vals = {v: (init(work, v) if init else work.attrs[v]["val"])
            for v in work.vertices()}
    cap = 2 * math.ceil(math.log2(work.n + 1)) + 1
    phases = 0
    while work.n > 1:
        phases += 1
        if phases > cap:
            raise LogIntegrityError("reference contraction exceeded %d phases"
                                    % cap)
        leaves = [v for v in work.vertices()
                  if work.is_leaf(v) and v != work.root]
        by_parent = {}
        for v in leaves:
            by_parent.setdefault(work.parent[v], []).append(v)
        for p, kids in by_parent.items():
            folded = vals[kids[0]]
            for u in kids[1:]:
                folded = r1(folded, vals[u])
            vals[p] = c1(vals[p], folded)
            for u in kids:
                work.remove_leaf(u)
                del vals[u]
        if work.n == 1:
            break
        depth = {}
        for v in work.preorder():
            p = work.parent[v]
            depth[v] = 0 if p is None else depth[p] + 1
        for comp, _is_fringe in low_degree_components(work, 2):
            if len(comp) == 1:
                continue
            members = sorted(comp, key=depth.__getitem__)
            top = members[0]
            for v in members[1:]:
                vals[top] = c1(vals[top], vals[v])
                del vals[v]
            work.contract(set(comp), top)
    return vals[work.root]

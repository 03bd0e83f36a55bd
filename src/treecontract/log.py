"""The contraction log: its records, its file format and its replay. A file
is LOG_MAGIC, then tagged values (None, bools, zigzag varint ints, -inf,
Fractions, strs and tuples), all written by the one encoder _enc_obj: the
header tuple, then each Record. reconstruct undoes the records
newest-first, as Miller and Reif unravel a contraction, with nothing but
the log and the Algebra."""

from collections import namedtuple
from fractions import Fraction

from .errors import InputError, LogIntegrityError, SimFault
from .trees import NEG_INF, word_count


def _compose(plugin, hi, lo):
    if hi is None:
        return lo
    if lo is None:
        return hi
    out = plugin.compose(hi, lo)
    if out is NotImplemented:
        raise SimFault("algebra %s cannot compose edges" % plugin.name)
    return out


# ---------------------------------------------------------------------------
# contraction log

class Record(namedtuple("Record", (
        "label", "members", "payloads", "virtual", "parents", "outs",
        "root_outs_known"), defaults=((), (), True))):
    """One contraction, as the machine builds it and the file stores it.
    members is survivor-first in component preorder; payloads are theirs in
    member order, as the machine read them; virtual is the sorted tuple of
    members that stood in for a folded sibling batch; parents give each
    member's attachment within the component, and outs (a tuple per member)
    its live children outside it (for the root only when root_outs_known).
    A sibling record, a folded batch of leaves, has neither."""

    __slots__ = ()

    @property
    def kind(self):
        return "connected" if self.parents else "sibling"

    def header_words(self):
        """Words of the record outside the payloads, from the fields' shape:
        label and root_outs_known are one word each, and so is every vertex
        id in members, virtual, parents and outs (a parent outside the
        component is None, also one word)."""
        return (2 + len(self.members) + len(self.parents) + len(self.virtual)
                + sum(map(len, self.outs)))


def _loaded_record(obj):
    """The decoded value obj as a Record. Raises ValueError when a field has
    the wrong type (members, payloads, virtual, parents, outs and each outs
    entry are tuples, root_outs_known a bool), members is empty, a length
    disagrees with members (one payload per member; one parent and one outs
    entry per member, or neither, a sibling record), a member repeats, a
    connected record's parents are not None for the survivor, members[0],
    and an earlier member for every other member, or an outs entry names
    one of the record's own members: the replay keeps one value and one
    edge per id, and values a component children first."""
    rec = Record._make(obj)
    tuples = (rec.members, rec.payloads, rec.virtual, rec.parents, rec.outs)
    if (any(type(f) is not tuple for f in tuples)
            or any(type(o) is not tuple for o in rec.outs)
            or type(rec.root_outs_known) is not bool):
        raise ValueError("record field of the wrong type")
    if not rec.members:
        raise ValueError("record of no members")
    n = len(rec.members)
    per_member = len(rec.parents) and n
    if (len(rec.payloads), len(rec.parents), len(rec.outs)) != (
            n, per_member, per_member):
        raise ValueError(
            "record of %d members has %d payloads, %d parents and %d outs"
            % (n, len(rec.payloads), len(rec.parents), len(rec.outs)))
    index = {m: i for i, m in enumerate(rec.members)}
    if len(index) != n:
        raise ValueError("record repeats a member")
    for i, p in enumerate(rec.parents):
        if i == 0 and p is not None:
            raise ValueError("survivor %r has the parent %r"
                             % (rec.members[0], p))
        if i and index.get(p, i) >= i:
            raise ValueError("member %r has the parent %r, not an earlier "
                             "member" % (rec.members[i], p))
    clash = [u for o in rec.outs for u in o if u in index]
    if clash:
        raise ValueError("outs name the record's own member %r" % (clash[0],))
    return rec


LOG_MAGIC = b"TCLOG2\n"


def _enc_uint(n, out):
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _zigzag(n):
    return n << 1 if n >= 0 else ((-n) << 1) | 1


_SMALL_TUPLE = [bytes((7, n)) for n in range(0x80)]

# The encodings of the ints 0..0x1FFF, the ids of trees below 8192 vertices,
# and their count. Each save fills the table and empties it after, so it
# costs nothing at import and holds no memory between saves. One read gives
# an _enc_obj call the table and its length together, so concurrent saves
# are safe; the bytes never depend on it.
_UINTS = ((), 0)

# Encodings of exact strs, made on first use: "k", "s" and the record
# labels fit; a run with more labels encodes the rest each time.
_STRS = {}
_STRS_MAX = 256


def _uint_table():
    """The encodings of 0..0x1FFF: the zigzag 2v takes one varint byte below
    64 and two from there, the second byte being v >> 6."""
    heads = [bytes((3, z)) for z in range(0x80, 0x100, 2)]
    return ([bytes((3, z)) for z in range(0, 0x80, 2)]
            + [head + bytes((hi,)) for hi in range(1, 0x80) for head in heads])


def _enc_obj(obj, out):
    """Append obj's encoding to out: a tag byte, then None (0), True (1),
    False (2), an int as a zigzag varint (3), -inf (4), a Fraction as the
    zigzag varint numerator and the varint denominator (5), a str as its
    UTF-8 length and bytes (6), a tuple as its length and items (7). The
    items of a tuple or Record are dispatched here by exact type; every
    other value, subclasses included, goes down one isinstance chain."""
    cls = type(obj)
    if cls is tuple or cls is Record:
        n = len(obj)
        if n < 0x80:
            out += _SMALL_TUPLE[n]
        else:
            out.append(7)
            _enc_uint(n, out)
        items = obj
    else:
        items = (obj,)
    uints, top = _UINTS
    for item in items:
        cls = type(item)
        if cls is int and 0 <= item < top:
            out += uints[item]
        elif cls is tuple:
            if item:
                _enc_obj(item, out)
            else:
                out += b"\x07\x00"
        elif cls is str and item in _STRS:
            out += _STRS[item]
        elif item is None:
            out.append(0)
        elif isinstance(item, float):
            if item != NEG_INF:
                raise InputError("only -inf floats are encodable")
            out.append(4)
        elif item is True:
            out.append(1)
        elif item is False:
            out.append(2)
        elif isinstance(item, int):
            out.append(3)
            _enc_uint(_zigzag(item), out)
        elif isinstance(item, Fraction):
            out.append(5)
            _enc_uint(_zigzag(item.numerator), out)
            _enc_uint(item.denominator, out)
        elif isinstance(item, str):
            raw = item.encode("utf-8")
            enc = bytearray((6,))
            _enc_uint(len(raw), enc)
            enc += raw
            out += enc
            if cls is str and len(_STRS) < _STRS_MAX:
                _STRS[item] = bytes(enc)
        elif isinstance(item, tuple):
            _enc_obj(tuple(item), out)
        else:
            raise InputError("unencodable object %r" % (item,))


def _truncated(pos):
    return InputError("contraction log truncated at offset %d" % pos)


def _dec_uint(buf, pos):
    n = shift = 0
    while True:
        if pos >= len(buf):
            raise _truncated(pos)
        b = buf[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        if not b & 0x80:
            return n, pos
        shift += 7


def _dec_obj(buf, pos):
    if pos >= len(buf):
        raise _truncated(pos)
    tag = buf[pos]
    pos += 1
    if tag == 0:
        return None, pos
    if tag == 1:
        return True, pos
    if tag == 2:
        return False, pos
    if tag == 3:
        z, pos = _dec_uint(buf, pos)
        return (-(z >> 1) if z & 1 else z >> 1), pos
    if tag == 4:
        return float("-inf"), pos
    if tag == 5:
        z, pos = _dec_uint(buf, pos)
        d, pos = _dec_uint(buf, pos)
        if not d:
            raise InputError("zero denominator at offset %d" % (pos - 1))
        return Fraction(-(z >> 1) if z & 1 else z >> 1, d), pos
    if tag == 6:
        k, pos = _dec_uint(buf, pos)
        if pos + k > len(buf):
            raise _truncated(len(buf))
        try:
            return buf[pos:pos + k].decode("utf-8"), pos + k
        except UnicodeDecodeError:
            raise InputError("bad string at offset %d" % pos) from None
    if tag == 7:
        k, pos = _dec_uint(buf, pos)
        items = []
        for _ in range(k):
            item, pos = _dec_obj(buf, pos)
            items.append(item)
        return tuple(items), pos
    raise InputError("bad tag %d at offset %d" % (tag, pos - 1))


class ContractionLog:
    """Append-only record list plus what reconstruction needs up front: the
    root, its final payload, and the original vertex set."""

    def __init__(self, root=None, vertices=()):
        self.root = root
        self.vertices = tuple(sorted(vertices))
        self.final_payload = None
        self.records = []
        self.total_words = 0

    def extend(self, records, words):
        """Add `records`, of `words` words together."""
        self.records += records
        self.total_words += words

    def save(self, path):
        """Write LOG_MAGIC, then _enc_obj of (root, vertices, final_payload,
        record count), then _enc_obj of each record."""
        global _UINTS
        out = bytearray(LOG_MAGIC)
        table = _uint_table()
        _UINTS = (table, len(table))
        try:
            _enc_obj((self.root, self.vertices, self.final_payload,
                      len(self.records)), out)
            for rec in self.records:
                _enc_obj(rec, out)
        finally:
            _UINTS = ((), 0)
        with open(path, "wb") as fh:
            fh.write(out)

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            buf = fh.read()
        if not buf.startswith(LOG_MAGIC):
            raise InputError("not a contraction log: bad header")
        pos = len(LOG_MAGIC)
        header, pos = _dec_obj(buf, pos)
        try:
            root, vertices, final_payload, count = header
            log = cls(root, vertices)
            log.final_payload = final_payload
            for _ in range(count):
                obj, pos = _dec_obj(buf, pos)
                log.extend((_loaded_record(obj),), word_count(obj))
        except (TypeError, ValueError) as exc:
            raise InputError("malformed contraction log: %s" % exc) from None
        if pos != len(buf):
            raise InputError("trailing bytes in log file")
        return log


# ---------------------------------------------------------------------------
# reconstruction

def _replay_data(plugin, node, values, edges, met):
    """Data of the residual node `node` with every kid absorbed in order: a
    known kid's value through its own edge, a slot child's through the slot's
    acc composed with the child's edge. Each slot id met is added to `met`."""
    data = node[3]
    for kid in node[4]:
        if kid[0] == "s":
            u = kid[1]
            met.add(u)
            if u not in edges:
                raise LogIntegrityError("missing edge for vertex %r" % (u,))
            edge = edges[u]
            if kid[2] is not None:
                edge = _compose(plugin, kid[2], edge)
            if u not in values:
                raise LogIntegrityError("missing value for vertex %r" % (u,))
            value = values[u]
        else:
            value = plugin.node_value(
                _replay_data(plugin, kid, values, edges, met))
            edge = kid[2]
        data = plugin.absorb(data, plugin.through_edge(value, edge))
    return data


def _resolve(out, m, value):
    if m in out:
        raise LogIntegrityError("vertex %r resolved twice" % (m,))
    out[m] = value


def reconstruct(log, plugin):
    """Per-vertex subtree values, by undoing the log newest-first.

    One table of values and one of upward edges hold each vertex's entries
    as of the record the replay has reached, so a record sees what its
    machine saw. A connected record writes its members' edges from their
    snapshots, then values them children first from one walk of each
    snapshot: its kids, the member's children in the component that no slot
    took, then its outs. The survivor's value is only checked against the
    stored one, and only when its outs are known: a leaf rake ships none.
    A sibling batch's survivor carries the batch aggregate until its
    sibling record restores its single value."""
    if log.final_payload is None:
        raise LogIntegrityError("log has no final payload")
    node_value, through_edge, absorb = (plugin.node_value,
                                        plugin.through_edge, plugin.absorb)
    values = {log.root: node_value(log.final_payload[3])}
    edges = {}
    out = {log.root: values[log.root]}
    for rec in reversed(log.records):
        members, virtual = rec.members, set(rec.virtual)
        if rec.kind == "sibling":
            for m, snap in zip(members, rec.payloads):
                if snap[4]:
                    raise LogIntegrityError(
                        "folded sibling %r had pending children" % (m,))
                values[m] = node_value(snap[3])
                edges[m] = snap[2]
                if m not in virtual:
                    _resolve(out, m, values[m])
            continue
        survivor, outs = members[0], rec.outs
        kids_of = {}
        for u, pu, snap in zip(members, rec.parents, rec.payloads):
            edges[u] = snap[2]
            if pu is not None:
                kids_of.setdefault(pu, []).append(u)
        # members[0] is the survivor, valued only when its outs are known
        for i in range(len(members) - 1, -1 if rec.root_outs_known else 0, -1):
            m, snap = members[i], rec.payloads[i]
            if snap[0] == "s":
                raise LogIntegrityError("value of a bare slot %r" % (snap[1],))
            if snap[4]:
                met = set()
                data = _replay_data(plugin, snap, values, edges, met)
            else:
                met, data = (), snap[3]
            for u in kids_of.get(m, ()):
                if u not in met:
                    data = absorb(data, through_edge(values[u], edges[u]))
            for u in outs[i]:
                if u not in values:
                    raise LogIntegrityError("missing value for vertex %r"
                                            % (u,))
                if u not in edges:
                    raise LogIntegrityError("missing edge for vertex %r"
                                            % (u,))
                data = absorb(data, through_edge(values[u], edges[u]))
            value = node_value(data)
            if m != survivor:
                values[m] = value
            elif values.get(m) != value:
                raise LogIntegrityError(
                    "undo mismatch at %r: stored %r, derived %r"
                    % (m, values.get(m), value))
        for m in members:
            if m != survivor and m not in virtual:
                _resolve(out, m, values[m])
    vertices = set(log.vertices)
    for what, ids in (("unresolved vertices", vertices - out.keys()),
                      ("phantom vertices resolved", out.keys() - vertices)):
        if ids:
            raise LogIntegrityError("%s: %r" % (what, sorted(ids)[:5]))
    return out

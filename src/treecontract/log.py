"""The contraction log: its records, its file format and its replay. A file
is LOG_MAGIC, then values whose first byte says what each is: an int below
2**7 is that byte, one below 2**14 takes two bytes and one below 2**20
three; a tuple of fewer than 16 items is one byte, then its items; None,
the bools and -inf are one byte each; and a str the save has written
before is a back-reference to it, a byte and its index. The one encoder
_enc_obj writes them all: the header tuple, then each Record. reconstruct
undoes the records newest-first, as Miller and Reif unravel a contraction,
with nothing but the log and the Algebra."""

from collections import namedtuple
from fractions import Fraction
from itertools import product

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
    and an earlier member for every other member, an outs entry names one
    of the record's own members, or a payload is not a known node
    (edge, data, kids) whose kids are known nodes or slots (acc, id): the
    replay keeps one value and one edge per id, values a component
    children first, and reads each node by its arity."""
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
    nodes = list(rec.payloads)
    for i, node in enumerate(nodes):
        if type(node) is tuple and len(node) == 3 and type(node[2]) is tuple:
            nodes += node[2]
        elif i < n:
            raise ValueError("payload %r is not (edge, data, kids)" % (node,))
        elif type(node) is not tuple or len(node) != 2:
            raise ValueError("payload node %r is neither (edge, data, kids) "
                             "nor (acc, id)" % (node,))
    return rec


LOG_MAGIC = b"TCLOG4\n"


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


def _int_bytes(n):
    """The encoding of the int n outside the table: up to 3 bytes below
    2**20, else E3 and its zigzag varint."""
    if 0 <= n < 0x4000:
        return bytes((n,)) if n < 0x80 else bytes((0x80 | n >> 8, n & 0xFF))
    if 0 <= n < 0x100000:
        return bytes((0xC0 | n >> 16, n >> 8 & 0xFF, n & 0xFF))
    out = bytearray((0xE3,))
    _enc_uint(_zigzag(n), out)
    return bytes(out)


# The encodings of 0..n for a log of n vertices, so of its tree's ids 1..n,
# and of no int past 0x3FFF, and their count. Each save fills the table and
# empties it after, so it costs nothing at import and holds no memory
# between saves. One read gives an _enc_obj call the table and its length
# together, so concurrent saves are safe; the bytes never depend on it.
_UINTS = ((), 0)


def _uint_table(top):
    """The encodings of 0..top - 1, top <= 0x4000: the int itself below
    0x80, then 0x80 | n >> 8 and n & 0xFF."""
    ones = [n.to_bytes(1, "big") for n in range(0x100)]
    pairs = product(ones[0x80:0x80 + (top + 0xFF >> 8)], ones)
    return (ones[:0x80] + list(map(b"".join, pairs))[0x80:])[:top]


def _enc_obj(obj, out, strs):
    """Append obj's encoding to out. Its first byte says what it is: an int
    0..0x7F itself; 0x80 | hi, then a byte, an int below 2**14; 0xC0 | hi,
    then 2 bytes, an int below 2**20; 0xD0 | k, then k items, a tuple of
    k < 16 items; E0 None, E1 True, E2 False, E4 -inf; E3 any other int as
    a zigzag varint; E5 a Fraction as the zigzag varint numerator and the
    varint denominator; E6 a str new to this save, its UTF-8 length as a
    varint and its bytes; E7 a longer tuple, its varint length and items;
    E8 a str met before in this save, its varint index in strs, the save's
    table of strs in order of first use, which maps each to those bytes.
    The items of a tuple or Record are dispatched here by exact type; every
    other value, subclasses included, goes down one isinstance chain."""
    cls = type(obj)
    if cls is tuple or cls is Record:
        n = len(obj)
        if n < 0x10:
            out.append(0xD0 | n)
        else:
            out.append(0xE7)
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
                _enc_obj(item, out, strs)
            else:
                out.append(0xD0)
        elif cls is str and item in strs:
            out += strs[item]
        elif item is None:
            out.append(0xE0)
        elif isinstance(item, float):
            if item != NEG_INF:
                raise InputError("only -inf floats are encodable")
            out.append(0xE4)
        elif item is True:
            out.append(0xE1)
        elif item is False:
            out.append(0xE2)
        elif isinstance(item, int):
            out += _int_bytes(item)
        elif isinstance(item, Fraction):
            out.append(0xE5)
            _enc_uint(_zigzag(item.numerator), out)
            _enc_uint(item.denominator, out)
        elif cls is str:
            raw = item.encode("utf-8")
            out.append(0xE6)
            _enc_uint(len(raw), out)
            out += raw
            ref = bytearray((0xE8,))
            _enc_uint(len(strs), ref)
            strs[item] = bytes(ref)
        elif isinstance(item, str):
            _enc_obj(str(item), out, strs)
        elif isinstance(item, tuple):
            _enc_obj(tuple(item), out, strs)
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


def _dec_obj(buf, pos, strs):
    """The value encoded at buf[pos:] and the offset after it. strs is the
    load's table of strs, in order of first use, which each E6 extends."""
    if pos >= len(buf):
        raise _truncated(pos)
    tag = buf[pos]
    pos += 1
    if tag < 0x80:
        return tag, pos
    if tag < 0xD0:
        # the tag's low bits, then 1 or 2 more bytes, big-endian
        k, mask = (1, 0x3FFF) if tag < 0xC0 else (2, 0xFFFFF)
        if pos + k > len(buf):
            raise _truncated(len(buf))
        return int.from_bytes(buf[pos - 1:pos + k], "big") & mask, pos + k
    if tag < 0xE0 or tag == 0xE7:
        k, pos = _dec_uint(buf, pos) if tag == 0xE7 else (tag & 0x0F, pos)
        items = []
        for _ in range(k):
            item, pos = _dec_obj(buf, pos, strs)
            items.append(item)
        return tuple(items), pos
    if tag == 0xE0:
        return None, pos
    if tag == 0xE1:
        return True, pos
    if tag == 0xE2:
        return False, pos
    if tag == 0xE3:
        z, pos = _dec_uint(buf, pos)
        return (-(z >> 1) if z & 1 else z >> 1), pos
    if tag == 0xE4:
        return float("-inf"), pos
    if tag == 0xE5:
        z, pos = _dec_uint(buf, pos)
        d, pos = _dec_uint(buf, pos)
        if not d:
            raise InputError("zero denominator at offset %d" % (pos - 1))
        return Fraction(-(z >> 1) if z & 1 else z >> 1, d), pos
    if tag == 0xE6:
        k, pos = _dec_uint(buf, pos)
        if pos + k > len(buf):
            raise _truncated(len(buf))
        try:
            strs.append(buf[pos:pos + k].decode("utf-8"))
        except UnicodeDecodeError:
            raise InputError("bad string at offset %d" % pos) from None
        return strs[-1], pos + k
    if tag == 0xE8:
        i, after = _dec_uint(buf, pos)
        if i >= len(strs):
            raise InputError("string index %d of %d at offset %d"
                             % (i, len(strs), pos - 1))
        return strs[i], after
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
        out, strs = bytearray(LOG_MAGIC), {}
        table = _uint_table(min(len(self.vertices) + 1, 0x4000))
        _UINTS = (table, len(table))
        try:
            _enc_obj((self.root, self.vertices, self.final_payload,
                      len(self.records)), out, strs)
            for rec in self.records:
                _enc_obj(rec, out, strs)
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
        pos, strs = len(LOG_MAGIC), []
        header, pos = _dec_obj(buf, pos, strs)
        try:
            root, vertices, final_payload, count = header
            log = cls(root, vertices)
            log.final_payload = final_payload
            for _ in range(count):
                obj, pos = _dec_obj(buf, pos, strs)
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
    data = node[1]
    for kid in node[2]:
        if len(kid) == 2:
            acc, u = kid
            met.add(u)
            if u not in edges:
                raise LogIntegrityError("missing edge for vertex %r" % (u,))
            edge = edges[u]
            if acc is not None:
                edge = _compose(plugin, acc, edge)
            if u not in values:
                raise LogIntegrityError("missing value for vertex %r" % (u,))
            value = values[u]
        else:
            value = plugin.node_value(
                _replay_data(plugin, kid, values, edges, met))
            edge = kid[0]
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
    values = {log.root: node_value(log.final_payload[1])}
    edges = {}
    out = {log.root: values[log.root]}
    for rec in reversed(log.records):
        members, virtual = rec.members, set(rec.virtual)
        if rec.kind == "sibling":
            for m, snap in zip(members, rec.payloads):
                if snap[2]:
                    raise LogIntegrityError(
                        "folded sibling %r had pending children" % (m,))
                values[m] = node_value(snap[1])
                edges[m] = snap[0]
                if m not in virtual:
                    _resolve(out, m, values[m])
            continue
        survivor, outs = members[0], rec.outs
        kids_of = {}
        for u, pu, snap in zip(members, rec.parents, rec.payloads):
            edges[u] = snap[0]
            if pu is not None:
                kids_of.setdefault(pu, []).append(u)
        # members[0] is the survivor, valued only when its outs are known
        for i in range(len(members) - 1, -1 if rec.root_outs_known else 0, -1):
            m, snap = members[i], rec.payloads[i]
            if len(snap) == 2:
                raise LogIntegrityError("value of a bare slot %r" % (snap[1],))
            if snap[2]:
                met = set()
                data = _replay_data(plugin, snap, values, edges, met)
            else:
                met, data = (), snap[1]
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

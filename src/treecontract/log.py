"""The contraction log: its records, its file format (LOG_MAGIC, then tagged
values: None, bools, zigzag varint ints, -inf, Fractions, strs and tuples)
and its replay. reconstruct undoes the records newest-first, as Miller and
Reif unravel a contraction, with nothing but the log and the Algebra."""

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
        "label", "kind", "survivor", "members", "payloads", "virtual",
        "parent_out", "parents", "outs", "root_outs_known"),
        defaults=((), (), True))):
    """One contraction, as the machine builds it and the file stores it.
    members is survivor-first in component preorder; payloads are theirs in
    member order, as the machine read them; virtual is the sorted tuple of
    members that stood in for a folded sibling batch; parents give each
    member's attachment within the component, and outs (a tuple per member)
    its live children outside it (for the root only when root_outs_known).
    A sibling record has neither, and parent_out is the batch's parent."""

    __slots__ = ()

    def header_words(self):
        """Words of the record outside the payloads, from the fields' shape:
        label, kind, survivor, parent_out and root_outs_known are one word
        each, and so is every vertex id in members, virtual, parents and
        outs (a parent outside the component is None, also one word)."""
        return (5 + len(self.members) + len(self.parents) + len(self.virtual)
                + sum(map(len, self.outs)))


def _loaded_record(obj):
    """The decoded value obj as a Record. Raises ValueError when a field has
    the wrong type (members, payloads, virtual, parents, outs and each outs
    entry are tuples, root_outs_known a bool), the kind is neither
    "connected" nor "sibling", the survivor is not the first member, a
    length disagrees with members (one payload per member, and for a
    connected record one parent and one outs entry per member; a sibling
    record has neither), a member repeats, or an outs entry names one of the
    record's own members: the replay keeps one value and one edge per id."""
    rec = Record._make(obj)
    tuples = (rec.members, rec.payloads, rec.virtual, rec.parents, rec.outs)
    if (any(type(f) is not tuple for f in tuples)
            or any(type(o) is not tuple for o in rec.outs)
            or type(rec.root_outs_known) is not bool):
        raise ValueError("record field of the wrong type")
    if rec.kind not in ("connected", "sibling"):
        raise ValueError("record of unknown kind %r" % (rec.kind,))
    if not rec.members or rec.survivor != rec.members[0]:
        raise ValueError("survivor %r is not the first member"
                         % (rec.survivor,))
    n = len(rec.members)
    per_member = 0 if rec.kind == "sibling" else n
    if (len(rec.payloads), len(rec.parents), len(rec.outs)) != (
            n, per_member, per_member):
        raise ValueError(
            "record of %d members has %d payloads, %d parents and %d outs"
            % (n, len(rec.payloads), len(rec.parents), len(rec.outs)))
    own = set(rec.members)
    if len(own) != n:
        raise ValueError("record repeats a member")
    clash = [u for o in rec.outs for u in o if u in own]
    if clash:
        raise ValueError("outs name the record's own member %r" % (clash[0],))
    return rec


LOG_MAGIC = b"TCLOG1\n"


def _enc_uint(n, out):
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


# encodings by exact type, built once: the ints whose zigzag fits one varint
# byte, and the headers of tuples below 128 items
_SMALL_INT = [bytes((3, z)) for z in range(0x80)]
_SMALL_TUPLE = [bytes((7, n)) for n in range(0x80)]


def _enc_obj(obj, out):
    """Append obj's encoding to out: tuples with their int, None and -inf
    items, and ints, None and -inf, here by exact type; everything else in
    _enc_other."""
    cls = type(obj)
    if cls is tuple:
        n = len(obj)
        if n < 0x80:
            out += _SMALL_TUPLE[n]
        else:
            out.append(7)
            _enc_uint(n, out)
        for item in obj:
            cls = type(item)
            if cls is int:
                z = item << 1 if item >= 0 else ((-item) << 1) | 1
                if z < 0x80:
                    out += _SMALL_INT[z]
                else:
                    out.append(3)
                    _enc_uint(z, out)
            elif item is None:
                out.append(0)
            elif cls is float and item == NEG_INF:
                out.append(4)
            else:
                _enc_obj(item, out)
    elif cls is int:
        out += _int_bytes(obj)
    elif obj is None:
        out.append(0)
    elif cls is float and obj == NEG_INF:
        out.append(4)
    else:
        _enc_other(obj, out)


def _varint_head(tag, n):
    """The tag byte, then n as a varint."""
    raw = bytearray((tag,))
    _enc_uint(n, raw)
    return bytes(raw)


def _int_bytes(v):
    """Encoding of the int v. The ids of trees below 8192 vertices take the
    two-byte varint, made here in one step."""
    z = v << 1 if v >= 0 else ((-v) << 1) | 1
    if z < 0x80:
        return _SMALL_INT[z]
    if z < 0x4000:
        return bytes((3, z & 0x7F | 0x80, z >> 7))
    return _varint_head(3, z)


class _ScalarBytes(dict):
    """Encodings of exact ints and strs, each made on first use. Index it
    only with an exact int or str (True == 1 would find 1's bytes). One
    lives for one save, so it holds no more than that log's ids and labels."""

    __slots__ = ()

    def __missing__(self, key):
        if type(key) is int:
            raw = _int_bytes(key)
        else:
            raw = bytearray()
            _enc_obj(key, raw)
            raw = bytes(raw)
        self[key] = raw
        return raw


def _enc_item(x, out, enc):
    """Append x's encoding, through enc when x is an exact int or str."""
    cls = type(x)
    if cls is int or cls is str:
        out += enc[x]
    elif x is None:
        out.append(0)
    else:
        _enc_obj(x, out)


def _enc_items(seq, out, enc):
    """Append the encoding of tuple(seq), int items through enc."""
    n = len(seq)
    out += _SMALL_TUPLE[n] if n < 0x80 else _varint_head(7, n)
    for x in seq:
        if type(x) is int:
            out += enc[x]
        elif x is None:
            out.append(0)
        else:
            _enc_obj(x, out)


# a residual-tree node's tuple header and its one-char tag, "k" or "s"
_K_HEAD = _SMALL_TUPLE[5] + b"\x06\x01k"
_S_HEAD = _SMALL_TUPLE[3] + b"\x06\x01s"


def _enc_rnode(node, out, enc):
    """Append _enc_obj(node)'s bytes, reading node as a residual-tree node:
    a fixed head, the vertex id through enc, then edge and data (or acc)
    through _enc_obj, then the kids. A node of any other shape or item type
    goes to _enc_obj whole."""
    if type(node) is tuple:
        n = len(node)
        if n == 5:
            tag, vid, edge, data, kids = node
            if (type(vid) is int and type(kids) is tuple
                    and type(tag) is str and tag == "k"):
                out += _K_HEAD
                out += enc[vid]
                if edge is None:
                    out.append(0)
                else:
                    _enc_obj(edge, out)
                if type(data) is int:
                    out += enc[data]
                else:
                    _enc_obj(data, out)
                n = len(kids)
                out += _SMALL_TUPLE[n] if n < 0x80 else _varint_head(7, n)
                for kid in kids:
                    _enc_rnode(kid, out, enc)
                return
        elif n == 3:
            tag, vid, acc = node
            if type(vid) is int and type(tag) is str and tag == "s":
                out += _S_HEAD
                out += enc[vid]
                if acc is None:
                    out.append(0)
                else:
                    _enc_obj(acc, out)
                return
    _enc_obj(node, out)


def _enc_record(rec, out, enc):
    """Append _enc_obj(rec)'s bytes field by field: the ids and labels
    through enc, the payloads as residual-tree nodes."""
    out += _SMALL_TUPLE[10]
    _enc_item(rec.label, out, enc)
    _enc_item(rec.kind, out, enc)
    _enc_item(rec.survivor, out, enc)
    _enc_items(rec.members, out, enc)
    payloads = rec.payloads
    n = len(payloads)
    out += _SMALL_TUPLE[n] if n < 0x80 else _varint_head(7, n)
    for p in payloads:
        _enc_rnode(p, out, enc)
    _enc_items(rec.virtual, out, enc)
    _enc_item(rec.parent_out, out, enc)
    _enc_items(rec.parents, out, enc)
    outs = rec.outs
    n = len(outs)
    out += _SMALL_TUPLE[n] if n < 0x80 else _varint_head(7, n)
    for o in outs:
        if o == ():
            out += _SMALL_TUPLE[0]
        else:
            _enc_items(o, out, enc)
    _enc_item(rec.root_outs_known, out, enc)


def _enc_other(obj, out):
    """Every type outside _enc_obj's dispatch, subclasses included."""
    if obj is True:
        out.append(1)
    elif obj is False:
        out.append(2)
    elif isinstance(obj, int):
        out.append(3)
        _enc_uint(obj << 1 if obj >= 0 else ((-obj) << 1) | 1, out)
    elif isinstance(obj, float):
        if obj != NEG_INF:
            raise InputError("only -inf floats are encodable")
        out.append(4)
    elif isinstance(obj, Fraction):
        out.append(5)
        n = obj.numerator
        _enc_uint(n << 1 if n >= 0 else ((-n) << 1) | 1, out)
        _enc_uint(obj.denominator, out)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(6)
        _enc_uint(len(raw), out)
        out.extend(raw)
    elif isinstance(obj, tuple):
        out.append(7)
        _enc_uint(len(obj), out)
        for item in obj:
            _enc_obj(item, out)
    else:
        raise InputError("unencodable object %r" % (obj,))


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

    def append(self, rec, words):
        """Add a record of `words` words."""
        self.records.append(rec)
        self.total_words += words

    def save(self, path):
        """Write LOG_MAGIC, then _enc_obj of (root, vertices, final_payload,
        record count), then _enc_obj of each record: the same bytes, written
        by shape with the ids and labels encoded once."""
        out = bytearray(LOG_MAGIC)
        # the ids in the records are the vertices: one pass over them costs
        # less than a cache miss apiece
        enc = _ScalarBytes({v: _int_bytes(v) for v in self.vertices
                            if type(v) is int})
        out += _SMALL_TUPLE[4]
        _enc_item(self.root, out, enc)
        _enc_items(self.vertices, out, enc)
        _enc_rnode(self.final_payload, out, enc)
        _enc_item(len(self.records), out, enc)
        for rec in self.records:
            _enc_record(rec, out, enc)
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
                log.append(_loaded_record(obj), word_count(obj))
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
    stored one; a fold survivor carries its batch aggregate until its own
    fold record restores its single value."""
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
        survivor, outs = rec.survivor, rec.outs
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

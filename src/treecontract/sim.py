"""Round-accurate simulator of the adaptive MPC machine model.

Machines run one round at a time against a frozen previous hash-table
generation; their writes materialize the next generation at round end, and a
machine may retire keys whose values it has consumed, which the next
generation then drops. So the table (and its peak, total_words) holds only
what a later round can still read. All budgets are counted in machine words
(word_count in trees.py). A value's words are counted once, when it is
written, and kept beside it: the generation maps each key to the pair
(value, words), a read is charged the pair's count, and the round-end merge
reuses the writer's count for the new value and the stored count for the
value it replaces. A writer that already
holds the count passes it to the write: the engine counts a machine's LOG
entry, the tuple of its contraction records, as the sum over its records of
the words their payload reads were charged plus each record's header. The
table is the machines' only output. It is the only holder of
payloads and their counts; the host reads counts and records from a
read-only view of it and copies neither.
Cited external subroutines are not run but charged as round blocks, by the
rules in CHARGES; the metrics report their sum as charged_rounds.
"""

import math
from contextlib import contextmanager

from .errors import InputError, SimFault
from .trees import word_count


# The constants the model's asymptotic bounds hide.
C_S = 16  # local space: S = max(4, ceil(C_S * n^epsilon)) words per machine
C_Q = 4  # reads and writes per machine-round: C_Q * S words each
C_P = 4  # outer phase loop: ceil(C_P / epsilon) phases
TOTAL_BUDGET_FACTOR = 64  # machines per round and log words: this times n

# label -> its rounds as a rule of (cfg, k), k the caller's level count
CHARGES = {
    **dict.fromkeys(("connectivity", "connectivity, preorder", "preorder",
                     "depth", "bypass"), lambda cfg, k: cfg.inv_eps),
    **dict.fromkeys(("relabel", "greedy edges", "match pointers",
                     "modulus draw", "insertions", "paren scan",
                     "paren deletions", "operator scan"), lambda cfg, k: 1),
    **dict.fromkeys(("paren merge", "segmentation"), lambda cfg, k: k),
    "set extraction": lambda cfg, k: max(1, k),
}


class SimConfig:
    """The five values a caller sets, and the bounds a run is held to,
    derived once from them and the constants above. A payload is held to
    C_w*(deg+1) words. seed is carried for callers that key their own draws
    by it; nothing in this package reads it."""

    __slots__ = ("epsilon", "n", "C_w", "seed", "strict", "S", "io_cap",
                 "inv_eps", "phase_cap", "machine_cap", "log_cap")

    def __init__(self, epsilon, n, C_w=8, seed=0, strict=True):
        if not 0 < epsilon < 1:
            raise InputError("epsilon must lie in (0,1)")
        if n < 1:
            raise InputError("n must be positive")
        if not 0 < C_w <= 16:
            raise InputError("C_w must lie in (0,16]")
        self.epsilon = epsilon
        self.n = n
        self.C_w = C_w
        self.seed = seed
        self.strict = strict
        self.S = max(4, math.ceil(C_S * n ** epsilon))
        self.io_cap = C_Q * self.S
        self.inv_eps = math.ceil(1 / epsilon)
        self.phase_cap = math.ceil(C_P / epsilon)
        self.machine_cap = math.ceil(TOTAL_BUDGET_FACTOR * n / self.S)
        self.log_cap = TOTAL_BUDGET_FACTOR * n

    def replaced(self, **kw):
        args = {"epsilon": self.epsilon, "n": self.n, "C_w": self.C_w,
                "seed": self.seed, "strict": self.strict}
        args.update(kw)
        return SimConfig(**args)


class Machine:
    """One machine-program for one round: a declared input size in words and
    a body run against the round context."""

    __slots__ = ("input_words", "run", "label")

    def __init__(self, input_words, run, label=""):
        self.input_words = input_words
        self.run = run
        self.label = label


class _Ctx:
    """Per-machine round context: adaptive reads from the frozen previous
    generation, writes and retires buffered for the round-end merge. A read
    is charged the count stored with its key's value; a write counts its
    value once and keeps the (value, words) pair for the merge; a retired
    key stays readable until the round ends and is gone from the next
    generation. The context closes as its machine's body returns: a later
    read, write or retire through it is a fault."""

    __slots__ = ("_table", "read_ops", "read_words", "writes", "write_words",
                 "retired", "_closed")

    def __init__(self, table):
        self._table = table
        self.read_ops = 0
        self.read_words = 0
        self.writes = {}  # key -> (value, its word count)
        self.write_words = 0
        self.retired = []
        self._closed = False

    def read(self, key):
        if self._closed:
            raise SimFault("read after round end (generation frozen)")
        self.read_ops += 1
        entry = self._table.get(key)
        if entry is None:
            raise SimFault("read of missing key %r" % (key,))
        self.read_words += entry[1]
        return entry[0]

    def write(self, key, value, words=None):
        """Buffer a write with the value's word count. A writer that already
        holds that count passes it as words."""
        if self._closed:
            raise SimFault("write after round end (generation frozen)")
        if key in self.writes and self.writes[key][0] != value:
            raise SimFault("conflicting writes to key %r" % (key,))
        if words is None:
            words = word_count(value)
        self.writes[key] = (value, words)
        self.write_words += 1 + words

    def retire(self, keys):
        """Drop keys, whose values this machine has consumed, from the next
        generation. A retire is not a write: it costs no write budget and
        counts as no DHT write."""
        if self._closed:
            raise SimFault("retire after round end (generation frozen)")
        self.retired += keys


class Simulator:
    """Owns the generation sequence, the round/phase ledger, and the budget
    checks. generation maps each key to (value, words), words being the
    value's word count. strict=True turns any violation into a SimFault
    naming the machine and round; otherwise violations are recorded and the
    run proceeds."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.rounds = 0
        self.charged_rounds = 0
        self.generation = {}
        self._gen_words = 0
        self.peak_machine_words = 0
        self.total_words = 0
        self.dht_reads = 0
        self.dht_writes = 0
        self.violations = []
        self.phases = []
        self._phase = None

    # -- faults ------------------------------------------------------------

    def fault(self, msg):
        self.violations.append(msg)
        if self.cfg.strict:
            raise SimFault(msg)

    # -- generation ----------------------------------------------------------

    def store(self, entries, retired=()):
        """Drop the retired keys, which must be present, from the current
        generation, then put (key, (value, words)) entries into it as they
        are, where words is the value's word count; keep the generation's
        size and its peak (total_words) current, the peak taken once both
        are applied. An entry costs one word for its key plus its value's
        words. The host seeds payloads through here; run_round merges each
        round's retires and writes through here."""
        table = self.generation
        size = self._gen_words
        for key in retired:
            size -= 1 + table.pop(key)[1]
        for key, entry in entries:
            old = table.get(key)
            if old is not None:
                size -= 1 + old[1]
            table[key] = entry
            size += 1 + entry[1]
        self._gen_words = size
        self.total_words = max(self.total_words, size)

    # -- rounds ------------------------------------------------------------

    def _advance(self, k):
        self.rounds += k
        if self._phase is not None:
            self._phase["rounds"] += k

    def run_round(self, machines):
        """Execute machine-programs one after another against the frozen
        current generation, refereeing each as its body returns and its
        context closes; merge their retires and writes into it once every
        machine has run. A retire of a key that is missing, already retired
        this round or written this round is a fault, and is not applied.
        A body's return value is dropped: its writes are its only output."""
        self._advance(1)
        if len(machines) > self.cfg.machine_cap:
            self.fault("round %d: %d machines exceed cap %d"
                       % (self.rounds, len(machines), self.cfg.machine_cap))
        table = self.generation
        merged, retired = {}, {}  # retired: key -> index of its machine
        cap, space = self.cfg.io_cap, self.cfg.S
        for i, m in enumerate(machines):
            ctx = _Ctx(table)
            m.run(ctx)
            ctx._closed = True
            if m.input_words > space:
                self.fault("%s: input %d words exceeds local space %d"
                           % (self._machine_name(i, m), m.input_words, space))
            if ctx.read_words > cap:
                self.fault("%s: read %d words exceeds budget %d"
                           % (self._machine_name(i, m), ctx.read_words, cap))
            if ctx.write_words > cap:
                self.fault("%s: write %d words exceeds budget %d"
                           % (self._machine_name(i, m), ctx.write_words, cap))
            self.peak_machine_words = max(self.peak_machine_words,
                                          m.input_words + ctx.read_words)
            self.dht_reads += ctx.read_ops
            self.dht_writes += len(ctx.writes)
            for key, entry in ctx.writes.items():
                if key in merged and merged[key][0] != entry[0]:
                    self.fault("%s: conflicting write to key %r"
                               % (self._machine_name(i, m), key))
                merged[key] = entry
            for key in ctx.retired:
                if key in retired:
                    self.fault("%s: key %r retired twice"
                               % (self._machine_name(i, m), key))
                elif key not in table:
                    self.fault("%s: retire of missing key %r"
                               % (self._machine_name(i, m), key))
                else:
                    retired[key] = i
        for key in [key for key in retired if key in merged]:
            i = retired.pop(key)
            self.fault("%s: retire of key %r written this round"
                       % (self._machine_name(i, machines[i]), key))
        self.store(merged.items(), retired)

    def _machine_name(self, i, m):
        """How a fault names machine i of the current round."""
        return "round %d machine %d%s" % (
            self.rounds, i, " (%s)" % m.label if m.label else "")

    def charge(self, label, levels=0):
        """Book `label` for the rounds its CHARGES rule gives, if any; an
        unknown label goes on to charge_subroutine, which refuses it."""
        rounds = CHARGES[label](self.cfg, levels) if label in CHARGES else 1
        if rounds:
            self.charge_subroutine(label, rounds)

    def charge_subroutine(self, name, rounds):
        """Advance the clock for a cited external subroutine."""
        if rounds < 1:
            raise InputError("charged rounds must be >= 1")
        if name not in CHARGES:
            raise SimFault("no charge rule for %r" % (name,))
        self._advance(rounds)
        self.charged_rounds += rounds
        if self._phase is None:
            self.phases.append({"label": name, "rounds": rounds})

    @contextmanager
    def phase(self, label):
        """Book the rounds and charges advanced meanwhile to one phase entry
        `label`; phases do not nest."""
        self._phase = entry = {"label": label, "rounds": 0}
        self.phases.append(entry)
        try:
            yield entry
        finally:
            self._phase = None

    # -- reporting ----------------------------------------------------------

    def snapshot_metrics(self):
        return {
            "rounds": self.rounds,
            "charged_rounds": self.charged_rounds,
            "phases": [dict(p) for p in self.phases],
            "peak_machine_words": self.peak_machine_words,
            "total_words": self.total_words,
            "dht_reads": self.dht_reads,
            "dht_writes": self.dht_writes,
            "violations": list(self.violations),
        }

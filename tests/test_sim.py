"""Simulator accounting: rounds, budgets, freeze semantics, determinism."""

import json
from fractions import Fraction

import pytest

import treecontract.sim as simmod
from treecontract.errors import InputError, SimFault
from treecontract import oracles
from treecontract.oracles import broom, random_tree, star
from treecontract.problems import REGISTRY
from treecontract.sim import Machine, SimConfig, Simulator
from treecontract.trees import word_count


def cfg(**kw):
    kw.setdefault("epsilon", 0.5)
    kw.setdefault("n", 16)
    return SimConfig(**kw)


@pytest.fixture
def tiny_space(monkeypatch):
    """The local-space constant set to 1, so S floors at 4 words and the
    read and write cap is C_Q * S = 16 words."""
    monkeypatch.setattr(simmod, "C_S", 1)


def seeded(config, values):
    """A simulator whose store holds values (key -> value), each counted
    with word_count."""
    sim = Simulator(config)
    sim.store((k, (v, word_count(v))) for k, v in values.items())
    return sim


def noop(ctx):
    return None


class TestConfig:
    def test_epsilon_range(self):
        with pytest.raises(InputError):
            SimConfig(epsilon=0.0, n=4)
        with pytest.raises(InputError):
            SimConfig(epsilon=1.0, n=4)
        with pytest.raises(InputError):
            SimConfig(epsilon=0.5, n=0)

    def test_local_space(self, monkeypatch):
        # S = ceil(C_S * n^eps), floored at 4 words.
        assert cfg(n=16).S == 64
        monkeypatch.setattr(simmod, "C_S", 1)
        assert cfg(n=16).S == 4
        assert cfg(n=1).S == 4

    def test_derived_counts(self):
        assert cfg(epsilon=0.5).inv_eps == 2
        assert cfg(epsilon=0.25).inv_eps == 4
        assert cfg(epsilon=1 / 3).inv_eps == 3
        assert cfg(epsilon=0.5).phase_cap == 8
        c = cfg(n=16)
        assert c.machine_cap == (64 * 16 + c.S - 1) // c.S
        assert c.io_cap == 4 * c.S
        assert c.log_cap == 64 * 16

    def test_word_budget_cap(self):
        with pytest.raises(InputError):
            cfg(C_w=17)
        assert cfg(C_w=16).C_w == 16

    # each name is a keyword that once set one of the model's hidden
    # constants; only C_w is still set by callers
    @pytest.mark.parametrize("name", ["C_s", "C_q", "C_w", "C_p",
                                      "total_budget_factor"])
    def test_constants_must_be_positive(self, name):
        if name == "C_w":
            for bad in (0, -1):
                with pytest.raises(InputError, match="^C_w must lie in"):
                    cfg(C_w=bad)
            # positive fractions stay valid
            assert cfg(C_w=0.25).C_w == 0.25
        else:
            assert getattr(simmod, name.upper()) > 0
            with pytest.raises(TypeError):
                cfg(**{name: 1})

    def test_hidden_constants(self):
        assert (simmod.C_S, simmod.C_Q, simmod.C_P,
                simmod.TOTAL_BUDGET_FACTOR) == (16, 4, 4, 64)
        assert not [k for k, v in vars(SimConfig).items()
                    if isinstance(v, property)]

    def test_replaced(self):
        c = cfg(seed=9, strict=False)
        d = c.replaced(C_w=16, n=64)
        assert d.C_w == 16 and d.seed == 9 and c.C_w == 8
        assert d.strict is False and d.S == 128 and c.S == 64


class TestRounds:
    def test_empty_round_advances(self):
        sim = Simulator(cfg())
        assert sim.run_round([]) is None
        assert sim.rounds == 1
        assert sim.generation == {}

    def test_copy_ten_keys(self):
        init = {("k", i): i * i for i in range(10)}
        sim = seeded(cfg(), init)

        def copy(ctx):
            for i in range(10):
                ctx.write(("c", i), ctx.read(("k", i)))

        sim.run_round([Machine(10, copy, label="copy")])
        m = sim.snapshot_metrics()
        assert m["dht_reads"] == 10
        assert m["dht_writes"] == 10
        assert m["peak_machine_words"] == 10 + 10
        assert sim.generation[("c", 7)] == (49, 1)
        # previous-generation entries carry forward unless overwritten
        assert sim.generation[("k", 7)] == (49, 1)

    def test_pointer_chase_is_one_round(self):
        # adaptive chain: each key read depends on the previous value
        init = {1: 2, 2: 3, 3: 4, 4: 5, 5: 99}
        sim = seeded(cfg(), init)

        def chase(ctx):
            k = 1
            for _ in range(5):
                k = ctx.read(k)
            ctx.write("end", k)

        sim.run_round([Machine(1, chase)])
        m = sim.snapshot_metrics()
        assert sim.rounds == 1
        assert m["dht_reads"] == 5
        assert m["violations"] == []
        assert sim.generation["end"] == (99, 1)

    def test_results_in_machine_order(self):
        # bodies run in machine order; what they return is dropped
        sim = Simulator(cfg())
        seen = []
        ms = [Machine(0, lambda ctx, i=i: seen.append(i) or i)
              for i in range(5)]
        assert sim.run_round(ms) is None
        assert seen == [0, 1, 2, 3, 4]

    def test_missing_key(self):
        sim = Simulator(cfg())

        def bad(ctx):
            ctx.read("nope")

        with pytest.raises(SimFault):
            sim.run_round([Machine(0, bad)])


class TestCharges:
    def test_charge_arithmetic(self):
        sim = Simulator(cfg(epsilon=0.5))
        sim.charge_subroutine("preorder", sim.cfg.inv_eps)
        assert sim.rounds == 2
        sim4 = Simulator(cfg(epsilon=0.25))
        sim4.charge_subroutine("connectivity", sim4.cfg.inv_eps)
        assert sim4.rounds == 4
        sim4.charge_subroutine("relabel", 1)
        assert sim4.rounds == 5

    def test_the_table_sets_the_rounds(self):
        sim = Simulator(cfg(epsilon=0.25))
        sim.charge("connectivity")
        assert sim.rounds == 4
        sim.charge("relabel", 7)
        assert sim.rounds == 5
        sim.charge("paren merge", 3)
        assert sim.rounds == 8
        # a rule that gives 0 rounds books nothing
        sim.charge("segmentation")
        assert sim.rounds == 8
        sim.charge("set extraction")
        assert sim.rounds == sim.charged_rounds == 9
        assert [p["label"] for p in sim.phases] == [
            "connectivity", "relabel", "paren merge", "set extraction"]

    def test_an_unknown_label_is_a_fault(self):
        # a program defect, so relaxed mode raises it too, and no round
        # is booked
        sim = Simulator(cfg(strict=False))
        with pytest.raises(SimFault, match="no charge rule for 'anything'"):
            sim.charge("anything")
        with pytest.raises(SimFault, match="no charge rule for 'tail'"):
            sim.charge_subroutine("tail", 1)
        assert sim.rounds == sim.charged_rounds == 0
        assert sim.phases == [] and sim.violations == []

    def test_charge_requires_positive(self):
        sim = Simulator(cfg())
        with pytest.raises(InputError):
            sim.charge_subroutine("zero", 0)

    def test_phase_attribution(self):
        sim = Simulator(cfg())
        with sim.phase("contract"):
            sim.run_round([])
            sim.charge_subroutine("preorder", 2)
        sim.charge_subroutine("modulus draw", 1)
        assert sim.snapshot_metrics()["phases"] == [
            {"label": "contract", "rounds": 3},
            {"label": "modulus draw", "rounds": 1},
        ]
        assert sim.rounds == 4


class TestFreeze:
    def test_read_after_round_faults(self):
        sim = seeded(cfg(), {"a": 1})
        leak = []

        def grab(ctx):
            leak.append(ctx)
            return ctx.read("a")

        sim.run_round([Machine(1, grab)])
        with pytest.raises(SimFault):
            leak[0].read("a")
        with pytest.raises(SimFault):
            leak[0].write("b", 2)

    def test_a_context_closes_as_its_body_returns(self):
        sim = Simulator(cfg())
        leak = []

        def writes_through_the_first(ctx):
            leak[0].write("b", 2)

        with pytest.raises(SimFault, match="^write after round end"):
            sim.run_round([Machine(0, leak.append),
                           Machine(0, writes_through_the_first)])
        assert "b" not in sim.generation

    def test_round_reads_frozen_previous_generation(self):
        # a write this round must not be visible to reads this round
        sim = seeded(cfg(), {"x": 1})

        seen = []

        def writer(ctx):
            ctx.write("x", 2)

        def reader(ctx):
            seen.append(ctx.read("x"))

        sim.run_round([Machine(0, writer), Machine(1, reader)])
        assert seen == [1]
        assert sim.generation["x"] == (2, 1)


class TestWriteConflicts:
    def test_conflicting_writes_fault(self):
        sim = Simulator(cfg())

        def w1(ctx):
            ctx.write("k", 1)

        def w2(ctx):
            ctx.write("k", 2)

        with pytest.raises(SimFault):
            sim.run_round([Machine(0, w1), Machine(0, w2)])

    def test_equal_duplicate_writes_commute(self):
        sim = Simulator(cfg())

        def w(ctx):
            ctx.write("k", 7)

        sim.run_round([Machine(0, w), Machine(0, w)])
        assert sim.generation["k"] == (7, 1)
        assert sim.snapshot_metrics()["violations"] == []

    def test_conflict_within_one_machine(self):
        sim = Simulator(cfg())

        def w(ctx):
            ctx.write("k", 1)
            ctx.write("k", 2)

        with pytest.raises(SimFault):
            sim.run_round([Machine(0, w)])


class TestBudgets:
    @pytest.mark.usefixtures("tiny_space")
    def test_input_exceeds_local_space(self):
        c = cfg(n=1)  # S = 4
        with pytest.raises(SimFault, match="local space"):
            Simulator(c).run_round([Machine(5, noop)])

    @pytest.mark.usefixtures("tiny_space")
    def test_read_budget(self):
        c = cfg(n=1)  # S=4, read cap C_Q*S = 16 words
        init = {i: 0 for i in range(17)}

        def hog(ctx):
            for i in range(17):
                ctx.read(i)

        with pytest.raises(SimFault, match="read"):
            seeded(c, init).run_round([Machine(0, hog)])

    @pytest.mark.usefixtures("tiny_space")
    def test_write_budget(self):
        c = cfg(n=1)  # write cap 16 words; an int entry costs 2

        def hog(ctx):
            for i in range(9):
                ctx.write(i, 0)

        with pytest.raises(SimFault, match="write"):
            Simulator(c).run_round([Machine(0, hog)])

    @pytest.mark.usefixtures("tiny_space")
    def test_relaxed_mode_records_and_proceeds(self):
        c = cfg(n=1, strict=False)
        sim = Simulator(c)
        sim.run_round([Machine(5, noop)])
        v = sim.snapshot_metrics()["violations"]
        assert len(v) == 1 and "machine 0" in v[0] and "round 1" in v[0]
        assert sim.rounds == 1

    @pytest.mark.usefixtures("tiny_space")
    def test_fault_messages_name_round_machine_and_label(self):
        c = cfg(n=1, strict=False)  # S = 4, read and write cap 16
        sim = seeded(c, {i: 0 for i in range(17)})
        sim.run_round([Machine(0, noop)])

        def hog(ctx):
            for i in range(17):
                ctx.read(i)
            for i in range(9):
                ctx.write(i, 0)

        def write_one(ctx):
            ctx.write("k", 1)

        def write_two(ctx):
            ctx.write("k", 2)

        sim.run_round([Machine(5, noop), Machine(0, hog, "phase 1 rake"),
                       Machine(0, write_one), Machine(0, write_two, "fold")])
        assert sim.violations == [
            "round 2 machine 0: input 5 words exceeds local space 4",
            "round 2 machine 1 (phase 1 rake): read 17 words exceeds "
            "budget 16",
            "round 2 machine 1 (phase 1 rake): write 18 words exceeds "
            "budget 16",
            "round 2 machine 3 (fold): conflicting write to key 'k'"]

    def test_machine_cap(self):
        c = cfg(n=1)  # S=16, cap = ceil(64/16) = 4
        assert c.machine_cap == 4
        sim = Simulator(c)
        sim.run_round([Machine(0, noop) for _ in range(4)])
        with pytest.raises(SimFault, match="cap"):
            sim.run_round([Machine(0, noop) for _ in range(5)])

    def test_total_words_tracks_peak_generation(self):
        sim = seeded(cfg(), {"a": 1, "b": 2})

        def w(ctx):
            ctx.write("c", 3)

        sim.run_round([Machine(0, w)])
        # three int entries at 2 words each
        assert sim.snapshot_metrics()["total_words"] == 6

    def test_ledger_follows_overwrites(self):
        sim = seeded(cfg(), {"a": (1, 2, 3)})  # 4 words
        counts = []

        def shrink(ctx):
            ctx.write("a", 7)
            counts.append(ctx.writes["a"][1])

        def grow(ctx):
            ctx.write("b", (1, 2, Fraction(1, 3)))
            counts.append(ctx.writes["b"][1])

        def read_b(ctx):
            return ctx.read("b")

        sim.run_round([Machine(0, shrink)])  # generation: 2 words
        sim.run_round([Machine(0, grow)])  # generation: 2 + 5 words
        sim.run_round([Machine(1, read_b)])
        m = sim.snapshot_metrics()
        assert counts == [1, 4]
        assert m["total_words"] == 7
        assert m["peak_machine_words"] == 1 + 4

    def test_generation_holds_each_value_with_its_count(self):
        sim = seeded(cfg(), {"a": (1, 2, 3)})
        assert sim.generation == {"a": ((1, 2, 3), 3)}
        ctxs = []

        def write(ctx):
            ctxs.append(ctx)
            ctx.write("a", 7)
            ctx.write("b", (1, Fraction(1, 3)))

        sim.run_round([Machine(0, write)])
        assert sim.generation == {"a": (7, 1), "b": ((1, Fraction(1, 3)), 3)}
        # the merge stores the very pairs the write built
        for key, entry in ctxs[0].writes.items():
            assert sim.generation[key] is entry
        assert not hasattr(sim, "words") and not hasattr(sim, "_words")

    def test_write_takes_a_count_the_writer_holds(self):
        sim = Simulator(cfg())
        counts = []

        def write(ctx):
            ctx.write("a", (1, 2, 3), 3)
            ctx.write("b", 5)
            counts.extend([ctx.writes[key][1] for key in ("a", "b")])

        def read(ctx):
            ctx.read("a")
            counts.append(ctx.read_words)

        sim.run_round([Machine(0, write)])
        assert counts == [3, 1]
        sim.run_round([Machine(0, read)])
        assert counts == [3, 1, 3]
        assert sim.snapshot_metrics()["total_words"] == (1 + 3) + (1 + 1)


class TestRetire:
    def test_retired_key_is_readable_only_in_its_own_round(self):
        sim = seeded(cfg(), {"a": 1, "b": 2})
        seen = []

        def consume(ctx):
            ctx.retire(["a"])
            seen.append(ctx.read("a"))

        def reader(ctx):
            seen.append(ctx.read("a"))

        sim.run_round([Machine(0, consume), Machine(0, reader)])
        assert seen == [1, 1]
        assert "a" not in sim.generation
        with pytest.raises(SimFault, match="read of missing key 'a'"):
            sim.run_round([Machine(0, reader)])

    @pytest.mark.parametrize("bodies, message", [
        ([lambda ctx: ctx.retire(["x"])],
         "round 1 machine 0: retire of missing key 'x'"),
        ([lambda ctx: ctx.retire(["a", "a"])],
         "round 1 machine 0: key 'a' retired twice"),
        ([lambda ctx: ctx.retire(["a"]), lambda ctx: ctx.retire(["a"])],
         "round 1 machine 1: key 'a' retired twice"),
        ([lambda ctx: ctx.retire(["a"]), lambda ctx: ctx.write("a", 5)],
         "round 1 machine 0: retire of key 'a' written this round"),
    ])
    def test_bad_retires_go_to_the_fault_hook(self, bodies, message):
        with pytest.raises(SimFault, match="^%s$" % message):
            seeded(cfg(), {"a": 1}).run_round([Machine(0, b) for b in bodies])
        sim = seeded(cfg(strict=False), {"a": 1})
        sim.run_round([Machine(0, b) for b in bodies])
        assert sim.violations == [message]
        # a faulted retire is not applied; the one good retire is
        assert sim.generation == ({} if "twice" in message
                                  else {"a": (5, 1)} if "written" in message
                                  else {"a": (1, 1)})

    def test_retire_after_round_end_raises(self):
        sim = seeded(cfg(), {"a": 1})
        leak = []
        sim.run_round([Machine(0, leak.append)])
        with pytest.raises(SimFault, match="retire after round end"):
            leak[0].retire(["a"])
        assert sim.generation == {"a": (1, 1)}

    def test_a_retire_is_not_a_write(self):
        sim = seeded(cfg(), {i: i for i in range(5)})
        seen = []

        def consume(ctx):
            ctx.write("sum", sum(ctx.read(i) for i in range(5)))
            ctx.retire(list(range(5)))
            seen.append(ctx.write_words)

        sim.run_round([Machine(0, consume)])
        assert seen == [2]
        m = sim.snapshot_metrics()
        assert m["dht_writes"] == 1 and m["dht_reads"] == 5
        assert sim.generation == {"sum": (10, 1)}

    def test_peak_counts_retires_before_writes(self):
        sim = seeded(cfg(), {"a": (1, 2, 3, 4, 5, 6, 7, 8)})  # 9 words
        assert sim.total_words == 9

        def replace(ctx):
            ctx.write("b", tuple(ctx.read("a")[:7]))  # 8 words
            ctx.retire(["a"])

        sim.run_round([Machine(0, replace)])
        assert sim.total_words == 9
        assert sim._gen_words == 8


class TestDeterminism:
    @staticmethod
    def _workload():
        sim = seeded(cfg(seed=42), {("seed", i): i for i in range(8)})

        def make(i):
            def run(ctx):
                v = ctx.read(("seed", i))
                ctx.write(("out", i), v * 3 + 1)
                return v

            return Machine(1, run)

        for _ in range(3):
            sim.run_round([make(i) for i in range(8)])
        return sim

    def test_identical_reruns(self):
        a, b = self._workload(), self._workload()
        assert a.snapshot_metrics() == b.snapshot_metrics()
        assert a.generation == b.generation


# the charge policy as stated in README, "Charges": rounds per label, from
# the run's config and the caller's level count
RULES = {
    **dict.fromkeys(["connectivity", "connectivity, preorder", "preorder",
                     "depth", "bypass"], lambda c, levels: c.inv_eps),
    **dict.fromkeys(["relabel", "greedy edges", "match pointers",
                     "modulus draw", "insertions", "paren scan",
                     "paren deletions", "operator scan"],
                    lambda c, levels: 1),
    "paren merge": lambda c, levels: levels,
    "segmentation": lambda c, levels: levels,
    "set extraction": lambda c, levels: max(1, levels),
}


def _registry_solves():
    """Every registry problem: the single-tree ones on a random tree and a
    star, each at two epsilons, then eval on a parenthesized sum and iso on
    an isomorphic pair."""
    trees = {"random": oracles.with_vertex_weights(oracles.with_edge_weights(
        random_tree(300, 5), 5), 5), "star": star(300)}
    for problem in ("height", "sum", "mwm", "mwis", "mis", "matching"):
        for tree in trees.values():
            for epsilon in (0.5, 0.25):
                yield problem, [tree], None, epsilon
    yield "eval", [], "(1+2*3)+((4-5)*6)+(7/(8+9))+(2**3)", 0.5
    t = random_tree(200, 8)
    yield "iso", [t, oracles.relabeled_copy(t, 3)], None, 0.5


class TestChargeTable:
    def test_rules_cover_the_table(self):
        assert set(simmod.CHARGES) == set(RULES)
        for config in (cfg(epsilon=0.5), cfg(epsilon=0.25, n=5000)):
            for label, rule in RULES.items():
                for levels in (0, 1, 3):
                    assert simmod.CHARGES[label](config, levels) == \
                        rule(config, levels), label

    def test_every_solve_books_by_the_table(self, monkeypatch):
        charge = Simulator.charge
        charge_subroutine = Simulator.charge_subroutine
        calls, booked, inside = [], [], []

        def spied_charge(sim_, label, levels=0):
            calls.append((label, levels, sim_.cfg))
            inside.append(len(calls) - 1)
            try:
                return charge(sim_, label, levels)
            finally:
                inside.pop()

        def spied_subroutine(sim_, name, rounds):
            booked.append((name, rounds, inside[-1] if inside else None))
            return charge_subroutine(sim_, name, rounds)

        monkeypatch.setattr(Simulator, "charge", spied_charge)
        monkeypatch.setattr(Simulator, "charge_subroutine", spied_subroutine)
        for problem, trees, text, epsilon in _registry_solves():
            n = max([4, len(text or "")] + [t.n for t in trees])
            result = REGISTRY[problem]["solve"](
                trees, text, cfg(epsilon=epsilon, n=n), 1)
            _want, _got, equal = REGISTRY[problem]["check"](trees, text,
                                                            result)
            assert equal, problem
        assert booked
        for name, rounds, at in booked:
            # every booking comes from charge, for the label it was given
            assert at is not None, name
            label, levels, config = calls[at]
            assert name == label and name in simmod.CHARGES
            assert rounds == RULES[label](config, levels) >= 1
        # a charge that books nothing is one whose rule gives 0
        made = {at for _name, _rounds, at in booked}
        for at, (label, levels, config) in enumerate(calls):
            if at not in made:
                assert RULES[label](config, levels) == 0, label
        # the solves reach every label of the table
        assert {name for name, _rounds, _at in booked} == set(RULES)


class TestMetrics:
    def test_schema(self):
        sim = Simulator(cfg())
        sim.run_round([])
        m = json.loads(json.dumps(sim.snapshot_metrics()))
        assert set(m) == {
            "rounds",
            "charged_rounds",
            "phases",
            "peak_machine_words",
            "total_words",
            "dht_reads",
            "dht_writes",
            "violations",
        }
        assert isinstance(m["rounds"], int)
        assert isinstance(m["phases"], list)
        assert isinstance(m["violations"], list)

    @pytest.mark.parametrize("problem, make, text", [
        ("height", lambda: [random_tree(1 << 10, 1)], None),
        ("mis", lambda: [star(300)], None),
        ("matching", lambda: [broom(1 << 9)], None),
        ("eval", lambda: [], "((1+2)*(3-4))+(5*6)"),
        ("iso", lambda: [random_tree(1 << 9, 2), random_tree(1 << 9, 2)],
         None),
    ])
    def test_charged_rounds_are_the_rounds_not_run(self, monkeypatch,
                                                   problem, make, text):
        run_round, ran = Simulator.run_round, []

        def spied(sim_, machines):
            ran.append(len(machines))
            return run_round(sim_, machines)

        monkeypatch.setattr(Simulator, "run_round", spied)
        trees = make()
        n = max([4, len(text or "")] + [t.n for t in trees])
        result = REGISTRY[problem]["solve"](
            trees, text, cfg(epsilon=0.25, n=n), 1)
        m = result["metrics"]
        assert ran and m["charged_rounds"] > 0
        assert m["rounds"] - m["charged_rounds"] == len(ran)

    def test_snapshot_is_pure(self):
        sim = Simulator(cfg())
        sim.run_round([])
        assert sim.snapshot_metrics() == sim.snapshot_metrics()
        assert sim.rounds == 1

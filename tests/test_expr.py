"""Expression pipeline: insertions, chunked matching, tree build, evaluation."""

import math
import random
from fractions import Fraction

import pytest

from treecontract.errors import (ExprArithmeticError, InputError,
                                 LogIntegrityError)
from treecontract.oracles import eval_reference, random_expression
from treecontract.problems import exprs
from treecontract.problems.exprs import (EvalAlgebra, _charge_pipeline,
                                         _insert, _match_levels, _render,
                                         _simplify, evaluate_expression,
                                         subexpression_values, tokenize)
from treecontract.sim import SimConfig, Simulator

from reference import match_parens_reference, random_balanced_parens


# pipeline stages on their own, as only these tests call them
def inserted_form(s):
    """The precedence-explicit string the pipeline matches parentheses on."""
    return _render(_insert(tokenize(s)))[0]


def match_parens(s, cfg, sim=None):
    """Position involution over the parentheses of s; non-paren characters
    are opaque. Each merge level books one round on the ledger."""
    out, levels = _match_levels(s, cfg.epsilon)
    if sim is not None:
        sim.charge("paren scan")
        sim.charge("paren merge", levels)
    return out


def simplify_expression(s, cfg, sim=None):
    """Binary operator tree for the expression. Vertex attrs: op (None on
    number leaves), num, and pos, the operator's offset in the source."""
    tree, levels = _simplify(s, cfg)
    if sim is not None:
        _charge_pipeline(sim, levels)
    return tree


def unfolded_shape(s, monkeypatch):
    """The unfolded shape of s that the pipeline hands to _to_tree."""
    with monkeypatch.context() as patch:
        patch.setattr(exprs, "_to_tree", lambda shape: shape)
        return _simplify(s, cfg_for(s))[0]


def cfg_for(s, epsilon=0.5):
    return SimConfig(epsilon=epsilon, n=max(4, len(s)))


def value_of(s, epsilon=0.5):
    return evaluate_expression(s, cfg_for(s, epsilon))[0]


_FUZZ_LEAVES = ["0", "1", "2", "3", "(1-1)", "(2-2)", "2**0", "(1-1)**2"]


def _fuzz_term(rng, depth):
    """A random expression of at most `depth` operator levels whose leaves
    make zero divisors and zero powers common."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_FUZZ_LEAVES)
    return "(%s%s%s)" % (_fuzz_term(rng, depth - 1),
                         rng.choice(["+", "-", "*", "/", "**"]),
                         _fuzz_term(rng, depth - 1))


def _outcome(evaluate):
    """("value", v) or ("error", message) of an evaluation."""
    try:
        return ("value", evaluate())
    except ExprArithmeticError as exc:
        return ("error", str(exc))


class TestInsertions:
    def test_plus_gets_double_parens(self):
        assert inserted_form("1+2") == "((1))+((2))"

    def test_times_gets_single_parens(self):
        assert inserted_form("1*2") == "((1)*(2))"

    def test_power_gets_none(self):
        assert inserted_form("1**2") == "((1**2))"

    def test_source_parens_tripled(self):
        assert inserted_form("(1)") == "(((((1)))))"

    def test_each_level_single_precedence(self):
        s = inserted_form("2+5-(3+2×6)-9")
        depth = 0
        by_depth = {}
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif not ch.isdigit():
                cls = "+-" if ch in "+-" else ch
                by_depth.setdefault(depth, set()).add(cls)
        assert all(len(classes) == 1 for classes in by_depth.values())


class TestMatcher:
    def test_single_pair(self):
        assert match_parens("()", cfg_for("()")) == {0: 1, 1: 0}

    def test_empty_string_has_no_pairs_and_no_levels(self):
        assert _match_levels("", 0.5) == ({}, 0)

    def test_nested_and_siblings(self):
        s = "(()())"
        assert match_parens(s, cfg_for(s)) == match_parens_reference(s)

    def test_random_matches_stack_oracle(self):
        for seed in range(40):
            s = random_balanced_parens(seed, 60 + 7 * seed)
            for eps in (0.5, 0.25):
                assert match_parens(s, cfg_for(s, eps)) == match_parens_reference(s)

    def test_large_string(self):
        s = random_balanced_parens(7, 10000)
        cfg = SimConfig(epsilon=0.25, n=len(s))
        assert match_parens(s, cfg) == match_parens_reference(s)

    def test_involution_and_nesting(self):
        s = random_balanced_parens(3, 400)
        m = match_parens(s, cfg_for(s))
        assert all(m[m[i]] == i for i in m)
        for i, j in m.items():
            if i < j:
                inner = [k for k in m if i < k < j]
                assert all(i < m[k] < j for k in inner)

    def test_unbalanced(self):
        with pytest.raises(InputError):
            match_parens("(()", cfg_for("(()"))
        with pytest.raises(InputError):
            match_parens("())", cfg_for("())"))

    def test_merge_level_charges(self):
        s = random_balanced_parens(11, 256)
        cfg = SimConfig(epsilon=0.5, n=len(s))
        sim = Simulator(cfg)
        match_parens(s, cfg, sim)
        booked = {p["label"]: p["rounds"] for p in sim.snapshot_metrics()["phases"]}
        assert booked["paren scan"] == 1
        assert booked["paren merge"] <= math.ceil(1 / cfg.epsilon) + 1


class TestTreeBuild:
    def test_single_number_is_leaf(self):
        t = simplify_expression("3", cfg_for("3"))
        assert t.n == 1
        assert t.attrs[1] == {"op": None, "num": Fraction(3), "pos": 0}

    def test_precedence_shape(self):
        t = simplify_expression("1+2*3", cfg_for("1+2*3"))
        assert t.attrs[1]["op"] == "+"
        kids = t.children[1]
        assert t.attrs[kids[0]]["op"] is None
        assert t.attrs[kids[1]]["op"] == "*"

    def test_left_associativity_root(self):
        t = simplify_expression("9-2-3", cfg_for("9-2-3"))
        assert t.attrs[1]["op"] == "-"
        left = t.children[1][0]
        assert t.attrs[left]["op"] == "-"

    def test_malformed(self):
        for s in ["-5", "1+", "()", "1 2", "*", ""]:
            with pytest.raises(InputError):
                simplify_expression(s, cfg_for(s or "x"))

    def test_deep_sum_without_recursion(self):
        # 10^5 terms: a left spine far deeper than the recursion limit
        terms = 10 ** 5
        s = "+".join(["1"] * terms)
        t = simplify_expression(s, cfg_for(s))
        assert t.n == 2 * terms - 1
        spine = [1]
        while t.children[spine[-1]]:
            spine.append(t.children[spine[-1]][0])
        assert len(spine) == terms
        assert all(t.attrs[v]["op"] == "+" for v in spine[:-1])
        # preorder ids: each operator's left operand is the next id
        assert spine == list(range(1, terms + 1))
        assert t.attrs[spine[-1]]["pos"] == 0
        assert t.attrs[1]["pos"] == len(s) - 2

    def test_unfolding_past_the_cap_is_an_input_error(self):
        # 23 bytes that unfold to 2^25 - 1 vertices, refused before any
        # vertex is built
        s = "(((2**64)**64)**64)**64"
        with pytest.raises(InputError, match="^expression unfolds to more "
                           "than 1048576 vertices$"):
            simplify_expression(s, cfg_for(s))

    @pytest.mark.parametrize("s", ["7", "2**0", "2**1", "(1+2)**3*4",
                                   "2**(1+1)", "((1-2)**2)**3+5**7",
                                   "(2**3)**2**2"])
    def test_unfolded_size_is_the_built_size(self, s, monkeypatch):
        shape = unfolded_shape(s, monkeypatch)
        assert exprs._unfolded_size(shape) == exprs._to_tree(shape).n

    def test_the_largest_nested_power_is_under_the_cap(self, monkeypatch):
        shape = unfolded_shape("((2**64)**64)**64", monkeypatch)
        assert exprs._unfolded_size(shape) == 2 ** 19 - 1

    def test_the_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(exprs, "_UNFOLD_CAP", 9)
        assert simplify_expression("2**5", cfg_for("2**5")).n == 9
        with pytest.raises(InputError, match="more than 9 vertices"):
            simplify_expression("2**6", cfg_for("2**6"))


class TestEvaluate:
    def test_paper_string(self):
        assert value_of("2+5-(3+2×6)-9") == Fraction(-17)

    def test_single_number(self):
        assert value_of("7") == Fraction(7)

    def test_frozen_vectors(self):
        for s, want in [("2**3**2", 512), ("8/2/2", 2), ("100-10-1", 89),
                        ("10/4", Fraction(5, 2)), ("0**0", 1),
                        ("2**2**2**2", 65536), ("(1+2)*(3+4)", 21)]:
            assert value_of(s) == Fraction(want), s

    def test_matches_reference_on_corpus(self):
        for seed in range(150):
            s = random_expression(seed)
            got, _, _, metrics = evaluate_expression(s, cfg_for(s))
            assert got == eval_reference(s), s
            assert not metrics["violations"], s

    def test_low_epsilon(self):
        for seed in (3, 17, 40):
            s = random_expression(seed)
            assert value_of(s, epsilon=0.25) == eval_reference(s), s

    def test_unfolded_power_keeps_base_errors(self):
        with pytest.raises(ExprArithmeticError):
            value_of("(1/0)**0")

    def test_division_error_names_position(self):
        try:
            value_of("1/0")
        except ExprArithmeticError as got:
            try:
                eval_reference("1/0")
            except ExprArithmeticError as want:
                assert str(got) == str(want)

    @pytest.mark.parametrize("epsilon", [0.5, 0.25])
    def test_a_hidden_division_is_named_as_the_reference_names_it(
            self, epsilon):
        # a composed Mobius edge hides where 5/((1-1)+(1-1)) divides by 0
        s = "((9*2)-(6/(5/((1-1)+(1-1)))))"
        with pytest.raises(ExprArithmeticError,
                           match="^division by zero near position 12$"):
            value_of(s, epsilon)

    def test_a_contracted_value_that_differs_is_a_log_integrity_error(
            self, monkeypatch):
        contract = exprs.bounded_tree_contract

        def off_by_one(tree, plugin, cfg, sim):
            value, log, metrics = contract(tree, plugin, cfg, sim)
            return value + 1, log, metrics

        monkeypatch.setattr(exprs, "bounded_tree_contract", off_by_one)
        with pytest.raises(LogIntegrityError, match="stepwise"):
            value_of("(1+2)*(3+4)")

    @pytest.mark.parametrize("s", ["(1/0)**65", "(1/0)+2**65",
                                   "2**65+(1/0)", "(2**65)**0"])
    def test_a_bad_literal_exponent_is_met_in_the_reference_order(self, s):
        assert (_outcome(lambda: value_of(s))
                == _outcome(lambda: eval_reference(s)))

    def test_outcomes_match_the_reference_on_a_fuzz(self):
        # relaxed budgets: this compares values and error messages only
        for seed in range(300):
            s = _fuzz_term(random.Random(seed), 4)
            want = _outcome(lambda: eval_reference(s))
            for epsilon in (0.5, 0.25):
                cfg = SimConfig(epsilon=epsilon, n=max(4, len(s)),
                                strict=False)
                got = _outcome(lambda: evaluate_expression(s, cfg)[0])
                assert got == want, (s, epsilon)

    def test_exponent_errors(self):
        for s in ["2**65", "2**(0-1)", "4**(1/2)"]:
            with pytest.raises(ExprArithmeticError):
                value_of(s)
            with pytest.raises(ExprArithmeticError):
                eval_reference(s)

    @pytest.mark.parametrize("s", [
        "+".join(["(1+2)"] * 400),
        "+".join(["(1+2*3)"] * 150),
        "(((1-1)**2**((3+2)/(1**2**0)))+((((1-1)**2*0)*(2**0**0))/"
        "((2**0-(1-1)**2)-(2*2**0))))",
    ], ids=["400 (1+2)", "150 (1+2*3)", "fuzzed powers"])
    def test_fits_the_strict_payload_budget(self, s):
        # each faulted a survivor's budget, by 12, 5 and 1 words, while
        # every known payload node also held its vertex id and a tag
        got, _, _, metrics = evaluate_expression(s, cfg_for(s))
        assert got == eval_reference(s)
        assert not metrics["violations"]

    def test_residual_power_vertex(self):
        # non-literal exponents stay vertices and ride as residual payload
        for s in ["5*(2**(1+1))+1", "2**(1+1)*3", "1+2**(2*2)"]:
            got, _, _, metrics = evaluate_expression(s, cfg_for(s))
            assert got == eval_reference(s), s
            assert not metrics["violations"], s


class TestReconstruction:
    def _spell(self, tree, v):
        a = tree.attrs[v]
        if a["op"] is None:
            return str(a["num"])
        l, r = tree.children[v]
        return "(%s)%s(%s)" % (self._spell(tree, l), a["op"], self._spell(tree, r))

    def test_subexpression_values(self):
        s = "2+5-(3+2*6)-9"
        _, tree, log, _ = evaluate_expression(s, cfg_for(s))
        values = subexpression_values(log)
        assert set(values) == set(tree.vertices())
        for v in tree.vertices():
            assert values[v] == eval_reference(self._spell(tree, v)), v

    def test_random_subexpressions(self):
        s = random_expression(23, allow_pow=False)
        _, tree, log, _ = evaluate_expression(s, cfg_for(s))
        values = subexpression_values(log)
        for v in tree.vertices():
            assert values[v] == eval_reference(self._spell(tree, v)), v


class TestAlgebraUnits:
    def test_chain_builds_partial_application(self):
        alg = EvalAlgebra()
        # x + 7 seen through a fresh edge at child slot 1
        edge = alg.chain((1, None), (1, None, Fraction(7), 0), None)
        assert edge == (1, (1, Fraction(7), 0, 1))
        assert alg.through_edge(Fraction(5), edge) == (1, Fraction(12))

    def test_chain_respects_operand_side(self):
        alg = EvalAlgebra()
        # 7 - x : pending operand sits at slot 1
        edge = alg.chain((0, None), (2, Fraction(7), None, 0), None)
        assert alg.through_edge(Fraction(5), edge) == (0, Fraction(2))

    def test_power_refuses_chain(self):
        alg = EvalAlgebra()
        assert alg.chain((0, None), (5, None, Fraction(2), 0), None) is NotImplemented

    def test_compose_multiplies(self):
        alg = EvalAlgebra()
        top = (0, (1, Fraction(1), 0, 1))     # x + 1
        bot = (1, (Fraction(2), 0, 0, 1))     # 2x
        assert alg.through_edge(Fraction(3), alg.compose(top, bot)) == (0, Fraction(7))

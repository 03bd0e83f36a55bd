"""CLI: generation round-trips, solve/verify/bench flows, exit codes."""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from treecontract.cli import main
from treecontract.log import ContractionLog
from treecontract.errors import SimFault
from treecontract.problems import REGISTRY
from treecontract.trees import parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_path_roundtrip(self, tmp_path, capsys):
        dest = tmp_path / "p5.tree"
        code, _, _ = run(capsys, "gen", "--family", "path", "--n", "5",
                         "--out", str(dest))
        assert code == 0
        tree = parse_tree(dest.read_text())
        assert tree.n == 5 and tree.root == 1
        assert sum(1 for v in tree.vertices() if tree.parent[v]) == 4

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.tree", tmp_path / "b.tree"
        run(capsys, "gen", "--family", "random", "--n", "100", "--seed", "7",
            "--out", str(a))
        run(capsys, "gen", "--family", "random", "--n", "100", "--seed", "7",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_all_families_reparse(self, tmp_path, capsys):
        for fam in ["path", "star", "broom", "caterpillar", "random",
                    "complete-kary"]:
            dest = tmp_path / (fam + ".tree")
            code, _, _ = run(capsys, "gen", "--family", fam, "--n", "17",
                             "--seed", "3", "--out", str(dest),
                             "--edge-weights", "--vertex-weights")
            assert code == 0
            assert parse_tree(dest.read_text()).n == 17

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("family", ["path", "star", "broom",
                                        "caterpillar", "random",
                                        "complete-kary", "all-shapes"])
    def test_n_below_one_is_a_usage_error(self, tmp_path, capsys, family, n):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["gen", "--family", family, "--n", n, "--out", str(out)])
        err = capsys.readouterr().err
        assert exit_.value.code == 3
        assert "argument --n: not a positive integer: '%s'" % n in err
        assert not out.exists()

    def test_all_shapes_count(self, tmp_path, capsys):
        out = tmp_path / "shapes"
        code, text, _ = run(capsys, "gen", "--family", "all-shapes", "--n", "5",
                            "--out", str(out))
        assert code == 0 and "9 files" in text
        assert len(list(out.glob("*.tree"))) == 9


class TestSolve:
    def _write(self, tmp_path, text, name="t.tree"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_mwm_two_path(self, tmp_path, capsys):
        src = self._write(tmp_path, "2 1\n1 -\n2 1 ew=5\n")
        code, out, _ = run(capsys, "solve", "--problem", "mwm", "--input", src)
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "2 1 5"
        report = json.loads(lines[-1])
        assert report["value"] == 5
        assert report["metrics"]["rounds"] >= 1

    def test_eval_literal(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "eval",
                           "--input", "7")
        assert code == 0 and out.splitlines()[0] == "7"

    def test_eval_file(self, tmp_path, capsys):
        src = self._write(tmp_path, "2+5-(3+2*6)-9\n", "e.txt")
        code, out, _ = run(capsys, "solve", "--problem", "eval",
                           "--input", src)
        assert code == 0 and out.splitlines()[0] == "-17"

    def test_eval_long_sum(self, tmp_path, capsys):
        # 3000 terms parse into a left spine 2999 operators deep
        src = self._write(tmp_path, "+".join(["1"] * 3000) + "\n", "e.txt")
        code, out, err = run(capsys, "solve", "--problem", "eval",
                             "--input", src)
        assert code == 0, err
        assert out.splitlines()[0] == "3000"
        assert json.loads(out.splitlines()[-1])["metrics"]["violations"] == []

    def test_eval_relaxed_finishes_over_budget(self, tmp_path, capsys):
        # 400 parenthesized terms overflow the eval payload budget at
        # epsilon 1/2; --relaxed records that and still prints the value
        src = self._write(tmp_path, "+".join(["(1+2)"] * 400) + "\n",
                          "e.txt")
        code, out, err = run(capsys, "solve", "--problem", "eval",
                             "--relaxed", "--input", src)
        assert code == 0, err
        assert out.splitlines()[0] == "1200"

    def test_mis_star(self, tmp_path, capsys):
        lines = ["10 1", "1 -"] + ["%d 1" % v for v in range(2, 11)]
        src = self._write(tmp_path, "\n".join(lines) + "\n")
        code, out, _ = run(capsys, "solve", "--problem", "mis",
                           "--input", src)
        assert code == 0
        assert out.splitlines()[0] == " ".join(map(str, range(2, 11)))

    def test_report_and_log_sidecar(self, tmp_path, capsys):
        src = self._write(tmp_path, "3 1\n1 -\n2 1\n3 2\n")
        rep = tmp_path / "rep.jsonl"
        logp = tmp_path / "run.log"
        code, out, _ = run(capsys, "solve", "--problem", "height",
                           "--input", src, "--report", str(rep),
                           "--log", str(logp))
        assert code == 0
        assert out.strip() == "2"
        report = json.loads(rep.read_text())
        assert report["value"] == 2 and not report["metrics"]["violations"]
        log = ContractionLog.load(str(logp))
        assert log.root == 1 and set(log.vertices) == {1, 2, 3}

    def test_log_of_several_instances_is_an_input_error(self, tmp_path,
                                                         capsys):
        src = self._write(tmp_path, "3 1\n1 -\n2 1\n3 2\n")
        logp = tmp_path / "run.log"
        code, out, err = run(capsys, "solve", "--problem", "height",
                             "--input", src, "--input", src,
                             "--log", str(logp))
        assert code == 3 and out == "" and "--log" in err
        assert not logp.exists()

    def test_iso_verdict_codes(self, tmp_path, capsys):
        p = self._write(tmp_path, "3 1\n1 -\n2 1\n3 2\n", "p.tree")
        s = self._write(tmp_path, "3 1\n1 -\n2 1\n3 1\n", "s.tree")
        code, out, _ = run(capsys, "solve", "--problem", "iso",
                           "--input", p, "--input", s)
        assert code == 1 and out.splitlines()[0] == "not-isomorphic"
        code, out, _ = run(capsys, "solve", "--problem", "iso",
                           "--input", p, "--input", p)
        assert code == 0 and out.splitlines()[0] == "isomorphic"

    def test_iso_report_carries_metrics(self, tmp_path, capsys):
        p = self._write(tmp_path, "3 1\n1 -\n2 1\n3 2\n", "p.tree")
        q = self._write(tmp_path, "2 1\n1 -\n2 1\n", "q.tree")
        rep = tmp_path / "rep.jsonl"
        run(capsys, "solve", "--problem", "iso", "--input", p, "--input", p,
            "--report", str(rep))
        run(capsys, "solve", "--problem", "iso", "--input", p, "--input", q,
            "--report", str(rep))
        same, sizes = [json.loads(line) for line in rep.read_text().splitlines()]
        assert same["value"] == "isomorphic"
        assert same["metrics"]["rounds"] > 0
        assert not same["metrics"]["violations"]
        assert sizes["value"] == "not-isomorphic"
        assert sizes["metrics"]["rounds"] == 0

    def test_report_phases_name_iso_steps(self, tmp_path, capsys):
        p = self._write(tmp_path, "3 1\n1 -\n2 1\n3 2\n", "p.tree")
        rep = tmp_path / "rep.jsonl"
        run(capsys, "solve", "--problem", "iso", "--input", p, "--input", p,
            "--report", str(rep))
        run(capsys, "solve", "--problem", "height", "--input", p,
            "--report", str(rep))
        iso_report, height_report = [
            json.loads(line) for line in rep.read_text().splitlines()]
        phases = iso_report["metrics"]["phases"]
        assert [ph["label"] for ph in phases] == [
            "depth", "modulus draw", "iso polynomial"]
        assert sum(ph["rounds"] for ph in phases) == (
            iso_report["metrics"]["rounds"])
        # a single run keeps its one phase
        assert [ph["label"] for ph in height_report["metrics"]["phases"]] == [
            "contract"]


class TestVerify:
    def test_agreement_across_problems(self, tmp_path, capsys):
        tree = tmp_path / "t.tree"
        run(capsys, "gen", "--family", "random", "--n", "40", "--seed", "11",
            "--out", str(tree), "--edge-weights", "--vertex-weights")
        for problem in ["mwm", "mis", "matching", "mwis", "height", "sum"]:
            code, out, _ = run(capsys, "verify", "--problem", problem,
                               "--input", str(tree))
            line = json.loads(out.strip().splitlines()[-1])
            assert code == 0 and line["equal"], problem

    def test_multiple_inputs_one_line_each(self, tmp_path, capsys):
        files = []
        for i in range(3):
            dest = tmp_path / ("t%d.tree" % i)
            run(capsys, "gen", "--family", "random", "--n", str(20 + i),
                "--seed", str(i), "--out", str(dest))
            files.append(str(dest))
        argv = ["verify", "--problem", "mis"]
        for f in files:
            argv += ["--input", f]
        code, out, _ = run(capsys, *argv)
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert code == 0 and len(lines) == 3
        assert len({l["digest"] for l in lines}) == 3

    def test_report_appends_the_printed_lines(self, tmp_path, capsys):
        argv = ["verify", "--problem", "height"]
        for i in range(3):
            dest = tmp_path / ("t%d.tree" % i)
            run(capsys, "gen", "--family", "random", "--n", str(20 + i),
                "--seed", str(i), "--out", str(dest))
            argv += ["--input", str(dest)]
        rep = tmp_path / "rep.jsonl"
        rep.write_text('{"earlier": true}\n')
        code, out, _ = run(capsys, *argv, "--report", str(rep))
        lines = rep.read_text().splitlines()
        assert code == 0 and len(lines) == 4
        assert json.loads(lines[0]) == {"earlier": True}
        assert lines[1:] == out.strip().splitlines()
        assert all(json.loads(line)["equal"] for line in lines[1:])

    def test_eval_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "--problem", "eval",
                           "--input", "2+5-(3+2*6)-9")
        line = json.loads(out.strip())
        assert code == 0 and line["equal"] and line["engine"] == "-17"

    def test_mismatch_exits_one(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "t.tree"
        run(capsys, "gen", "--family", "path", "--n", "4", "--out", str(src))
        monkeypatch.setitem(REGISTRY["sum"], "check",
                            lambda trees, text, result: (0, result["value"], False))
        code, out, _ = run(capsys, "verify", "--problem", "sum",
                           "--input", str(src))
        assert code == 1
        assert json.loads(out.strip().splitlines()[-1])["equal"] is False


class TestBench:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "bench", "--problem", "height",
                         "--family", "path", "--family", "star",
                         "--n", "64", "--n", "128",
                         "--epsilon", "0.5", "--epsilon", "0.25",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "family,n,epsilon,rounds,peak_words"
        assert len(rows) == 1 + 2 * 2 * 2
        for row in rows[1:]:
            fam, n, eps, rounds, peak = row.split(",")
            assert fam in ("path", "star")
            assert int(rounds) >= 1 and int(peak) >= 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("family", ["path", "star", "broom",
                                        "caterpillar", "random",
                                        "complete-kary"])
    def test_n_below_one_is_a_usage_error(self, capsys, family, n):
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "--family", family, "--n", "8", "--n", n])
        out, err = capsys.readouterr()
        assert exit_.value.code == 3 and out == ""
        assert "argument --n: not a positive integer: '%s'" % n in err

    def test_pair_problem_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "--problem", "iso",
                           "--family", "path", "--n", "8")
        assert code == 3 and "single-tree" in err


class TestExitCodes:
    def test_bad_epsilon(self, tmp_path, capsys):
        src = tmp_path / "t.tree"
        run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(src))
        code, _, err = run(capsys, "solve", "--problem", "mwm",
                           "--input", str(src), "--epsilon", "2")
        assert code == 3 and "epsilon" in err

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--problem", "mwm", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["solve", "--problem", "nope"], "invalid choice: 'nope'"),
        (["solve", "--problem", "mwm", "--epsilon", "abc"],
         "invalid float value: 'abc'"),
        ([], "the following arguments are required: cmd"),
        (["verify", "--problem", "height", "--input", "t", "--log", "x"],
         "unrecognized arguments: --log x"),
    ])
    def test_malformed_argument(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 3 and out.out == ""
        assert out.err.startswith("usage: treecontract") and message in out.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--problem" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "solve", "--problem", "mwm",
                         "--input", "no-such-file.tree")
        assert code == 3

    def test_malformed_expression(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "eval",
                           "--input", "1+")
        assert code == 3

    @pytest.mark.parametrize("problem, inputs, message", [
        ("eval", ["1", "2"], "problem 'eval' takes exactly one expression "
                             "input"),
        ("iso", [None], "problem 'iso' takes inputs in groups of 2"),
        ("eval", ["(1$2)"], "unexpected character '$' at position 2"),
    ])
    def test_wrong_input_count_or_character(self, tmp_path, capsys, problem,
                                            inputs, message):
        tree = tmp_path / "t.tree"
        tree.write_text("2 1\n1 -\n2 1\n")
        argv = ["solve", "--problem", problem]
        for text in inputs:
            argv += ["--input", str(tree) if text is None else text]
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and err.strip() == "error: " + message

    @pytest.mark.parametrize("text, message", [
        ("1+2)", "unbalanced ')' at position 3"),
        ("(1+2", "unbalanced '(' at position 0"),
        ("((3)))", "unbalanced ')' at position 5"),
        ("1+(2*3", "unbalanced '(' at position 2"),
        ("12345+)", "unbalanced ')' at position 6"),
    ])
    def test_unbalanced_paren_names_input_position(self, capsys, text,
                                                   message):
        code, _, err = run(capsys, "solve", "--problem", "eval",
                           "--input", text)
        assert code == 3 and err.strip() == "error: " + message

    @pytest.mark.parametrize("text, message", [
        # a missing operator is named where the second operand starts
        ("1 2", "expected an operator near position 2"),
        ("1+2 3", "expected an operator near position 4"),
        ("12 + 3 4", "expected an operator near position 7"),
        ("2*(3 4)", "expected an operator near position 5"),
        ("(1)(2)", "expected an operator near position 3"),
        # a missing operand is named by the operator that lacks it
        ("(+)", "expected a number near position 1"),
        ("1+", "expected a number near position 1"),
        ("+1", "expected a number near position 0"),
        ("1*+2", "expected a number near position 1"),
        ("()", "expected a number near position 0"),
    ])
    def test_malformed_expression_names_input_position(self, capsys, text,
                                                       message):
        code, _, err = run(capsys, "solve", "--problem", "eval",
                           "--input", text)
        assert code == 3 and err.strip() == "error: " + message

    @pytest.mark.parametrize("text, message", [
        ("2+\u00b2", "unreadable number at position 2"),
        ("1+" + "9" * 5000, "unreadable number at position 2"),
    ], ids=["superscript two", "5000 digits"])
    def test_unreadable_number_names_input_position(self, capsys, text,
                                                    message):
        # a superscript two is a digit to str.isdigit but not to int(), and
        # 5000 digits are over Python's default limit for parsing an int
        code, out, err = run(capsys, "solve", "--problem", "eval",
                             "--input", text)
        assert code == 3 and out == ""
        assert err.strip() == "error: " + message

    def test_division_by_zero(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "eval",
                           "--input", "1/0")
        assert code == 3 and "division by zero" in err

    def test_a_pole_a_chain_cancels_is_an_error(self, capsys):
        # the composed edge over 1/(1/0) is the identity; the stepwise
        # evaluation divides by the 0
        code, out, err = run(capsys, "solve", "--problem", "eval",
                             "--input", "(2/(1/((1-1)+(1-1))))/2")
        assert code == 3 and out == ""
        assert err == "error: division by zero near position 5\n"

    @pytest.mark.parametrize("mode", [[], ["--relaxed"]])
    def test_a_pole_is_met_before_a_payload_fault(self, capsys, mode):
        # the 400 terms overflow the payload budget at epsilon 1/2 in
        # strict mode; the pole is met first, before any round runs
        text = "+".join(["(1+2)"] * 400) + "+((2/(1/((1-1)+(1-1))))/2)"
        code, out, err = run(capsys, "solve", "--problem", "eval",
                             "--input", text, *mode)
        assert code == 3 and out == ""
        assert err == "error: division by zero near position 2406\n"

    def test_non_integer_parent_id(self, tmp_path, capsys):
        src = tmp_path / "t.tree"
        src.write_text("2 1\n1 -\n2 x\n")
        code, out, err = run(capsys, "solve", "--problem", "height",
                             "--input", str(src))
        assert code == 3 and out == ""
        assert err == "error: bad parent id of vertex 2: 'x'\n"

    def test_repeated_attribute_key(self, tmp_path, capsys):
        src = tmp_path / "t.tree"
        src.write_text("2 1\n1 -\n2 1 ew=3 ew=4\n")
        code, out, err = run(capsys, "solve", "--problem", "mwm",
                             "--input", str(src))
        assert code == 3 and out == ""
        assert err == "error: attribute ew repeated on vertex 2\n"

    @pytest.mark.parametrize("problem,data", [
        ("height", b"2 1\n1 -\n2 1 \xff\n"),
        ("eval", b"1+\xfe2"),
    ], ids=["tree", "expression"])
    def test_non_utf8_input(self, tmp_path, capsys, problem, data):
        src = tmp_path / "input.bin"
        src.write_bytes(data)
        code, out, err = run(capsys, "solve", "--problem", problem,
                             "--input", str(src))
        assert code == 3 and out == ""
        assert err == "error: %s is not UTF-8 text\n" % src

    def test_sim_fault_maps_to_two(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "t.tree"
        run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(src))

        def boom(trees, text, cfg, seed):
            raise SimFault("forced")

        monkeypatch.setitem(REGISTRY["sum"], "solve", boom)
        code, _, err = run(capsys, "solve", "--problem", "sum",
                           "--input", str(src))
        assert code == 2 and "forced" in err

    def test_unexpected_exception_maps_to_two(self, tmp_path, capsys,
                                              monkeypatch):
        src = tmp_path / "t.tree"
        run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(src))

        def boom(trees, text, cfg, seed):
            raise RuntimeError("forced")

        monkeypatch.setitem(REGISTRY["sum"], "solve", boom)
        code, _, err = run(capsys, "solve", "--problem", "sum",
                           "--input", str(src))
        assert code == 2
        assert err == "internal error: RuntimeError: forced\n"


def _decimal(value):
    """str(value), past Python's default limit on int-to-str digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


class TestHugeAnswers:
    """An eval answer over Python's default limit of 4300 digits for an
    int-to-str conversion prints in full, and the limit is lifted only
    while the answer is formatted. The subprocesses run with the default
    limit, as any command-line run does."""

    EXPR = "((2**64)**64)**4"  # 2**16384, of 4933 digits
    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def cli(self, *argv):
        env = dict(os.environ, PYTHONPATH=self.SRC)
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        return subprocess.run(
            [sys.executable, "-m", "treecontract.cli", *argv], env=env,
            capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("mode", [[], ["--relaxed"]])
    def test_solve_prints_the_exact_answer(self, mode):
        done = self.cli("solve", "--problem", "eval", "--input", self.EXPR,
                        *mode)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == _decimal(2 ** 16384)
        assert json.loads(lines[-1])["value"] == lines[0]

    def test_verify_agrees(self):
        done = self.cli("verify", "--problem", "eval", "--input", self.EXPR)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout)
        assert line["equal"] and line["engine"] == line["oracle"]
        assert line["engine"] == _decimal(2 ** 16384)

    def test_the_limit_is_restored(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "solve", "--problem", "eval",
                           "--input", self.EXPR)
        assert code == 0 and len(out.splitlines()[0]) == 4933
        assert sys.get_int_max_str_digits() == limit


def test_eval_names_a_hidden_division_as_the_reference_does():
    # a composed Mobius edge hides which division divides by 0
    done = subprocess.run(
        [sys.executable, "-m", "treecontract.cli", "solve", "--problem",
         "eval", "--input", "((9*2)-(6/(5/((1-1)+(1-1)))))"],
        env=dict(os.environ, PYTHONPATH=TestHugeAnswers.SRC),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == "error: division by zero near position 12\n"


def _address_space_limit():
    """Caps the calling process's address space at 1.5 GB."""
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1536 << 20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def test_eval_unfolding_cap_under_a_memory_limit():
    # 23 bytes whose literal powers unfold to 2^25 - 1 vertices: an input
    # error before anything is built, not a MemoryError in a 1.5 GB process
    env = dict(os.environ, PYTHONPATH=TestHugeAnswers.SRC)
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "treecontract.cli", "solve", "--problem",
         "eval", "--input", "(((2**64)**64)**64)**64"], env=env,
        capture_output=True, text=True, timeout=60,
        preexec_fn=_address_space_limit)
    assert time.monotonic() - start < 20
    assert done.returncode == 3
    assert done.stderr == \
        "error: expression unfolds to more than 1048576 vertices\n"
    assert "Traceback" not in done.stderr and done.stdout == ""

"""Compare the command line's output bytes across Python interpreters.

    python3 tools/cross_python.py PYTHON [PYTHON ...]

Each PYTHON is an interpreter executable or an installation prefix (for
example a pyenv version directory), in which bin/python3 is used. Each
interpreter in turn, never two at once, runs `python -m treecontract.cli`
from this checkout's src/: it generates the input trees, then runs one
fixed set of solves, all eight problems, each saving its contraction log
with --log. The script compares every generated tree, every solve's exit
code, stdout and log bytes with the first interpreter's, prints one line
per interpreter and one per difference or failed solve, and exits 1 on any
difference or any solve that exits 2 or 3 (a fault or an error). Standard
library only.
"""

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N = 5000
# file name -> gen arguments
TREES = {
    "random.tree": ["--family", "random", "--seed", "1", "--edge-weights",
                    "--vertex-weights"],
    "broom.tree": ["--family", "broom", "--edge-weights"],
    "star.tree": ["--family", "star", "--vertex-weights"],
    "caterpillar.tree": ["--family", "caterpillar", "--vertex-weights"],
    "path.tree": ["--family", "path"],
}
EXPRESSION = "((3*4)-(7/(2+5)))*((9-1)/(4*2))+2**10-(6*(7-(8/(1+1))))"
# solve name -> (problem, inputs, epsilon); an input ending in .tree is a
# generated file, any other is passed as it is
SOLVES = {
    "mwm-random": ("mwm", ["random.tree"], "0.25"),
    "mwm-broom": ("mwm", ["broom.tree"], "0.5"),
    "mwis-caterpillar": ("mwis", ["caterpillar.tree"], "0.5"),
    "mwis-random": ("mwis", ["random.tree"], "0.25"),
    "mis-random": ("mis", ["random.tree"], "0.25"),
    "matching-broom": ("matching", ["broom.tree"], "0.5"),
    "matching-random": ("matching", ["random.tree"], "0.25"),
    "height-random": ("height", ["random.tree"], "0.25"),
    "height-star": ("height", ["star.tree"], "0.25"),
    "sum-path": ("sum", ["path.tree"], "0.25"),
    "sum-random": ("sum", ["random.tree"], "0.5"),
    "eval": ("eval", [EXPRESSION], "0.5"),
    "iso-same": ("iso", ["random.tree", "random.tree"], "0.5"),
    "iso-differ": ("iso", ["random.tree", "caterpillar.tree"], "0.25"),
}


def executable(path):
    """The interpreter at path, or bin/python3 under an install prefix."""
    if os.path.isdir(path):
        return os.path.join(path, "bin", "python3")
    return path


def run_all(python, work):
    """Every output of the fixed set under one interpreter: name -> bytes
    or (exit code, stdout, log bytes)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cli = [python, "-m", "treecontract.cli"]
    out = {}
    for name, args in TREES.items():
        path = os.path.join(work, name)
        subprocess.run(cli + ["gen", "--n", str(N), "--out", path] + args,
                       env=env, check=True, stdout=subprocess.DEVNULL)
        with open(path, "rb") as fh:
            out[name] = fh.read()
    for name, (problem, inputs, epsilon) in SOLVES.items():
        log = os.path.join(work, name + ".tclog")
        args = ["solve", "--problem", problem, "--epsilon", epsilon,
                "--log", log]
        for item in inputs:
            args += ["--input", os.path.join(work, item)
                     if item.endswith(".tree") else item]
        done = subprocess.run(cli + args, env=env, stdout=subprocess.PIPE)
        logged = b""
        if os.path.exists(log):
            with open(log, "rb") as fh:
                logged = fh.read()
        out[name] = (done.returncode, done.stdout, logged)
    return out


def differences(want, got):
    """Names of the outputs, and of their parts, where got differs."""
    bad = []
    for name, value in want.items():
        other = got.get(name)
        if isinstance(value, bytes):
            if other != value:
                bad.append(name)
            continue
        for part, a, b in zip(("exit code", "stdout", "log"), value, other):
            if a != b:
                bad.append("%s %s" % (name, part))
    return bad


def main(argv):
    if not argv:
        print("usage: python3 tools/cross_python.py PYTHON [PYTHON ...]",
              file=sys.stderr)
        return 2
    first, failed = None, False
    for path in argv:
        python = executable(path)
        version = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            stdout=subprocess.PIPE, check=True).stdout.decode().strip()
        with tempfile.TemporaryDirectory() as work:
            out = run_all(python, work)
        bad = ["%s exited %d" % (name, out[name][0]) for name in SOLVES
               if out[name][0] >= 2]
        if first is None:
            first = (version, out)
            logs = sum(1 for name in SOLVES if out[name][2])
            print("%s: %d trees, %d solves, %d logs"
                  % (version, len(TREES), len(SOLVES), logs))
        else:
            bad += differences(first[1], out)
            print("%s: %s" % (version, "differs from %s" % first[0] if bad
                              else "same bytes as %s" % first[0]))
        failed = failed or bool(bad)
        for item in bad:
            print("  %s" % item)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

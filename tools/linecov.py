"""Line coverage of src/treecontract over the tier-1 tests.

    python3 tools/linecov.py [PYTEST_ARG ...]

Runs pytest in this process, by default on the whole tier-1 suite, under a
sys.settrace tracer that follows only code under src/treecontract. Then it
prints each line inside a function (a def, a lambda or a comprehension)
that never ran, as `path:line: source`, one summary line per module with
such lines, and a total. The line a function starts on belongs to the code
around it, which is counted there. Lines that only a child process runs,
such as those of the command-line tests' subprocesses, are not seen. The
whole suite takes about 6 minutes under the tracer on a 2-vCPU host with
Python 3.11, about 4 times the plain run, so it is not part of tier-1.
Standard library and pytest only; exits with pytest's exit code.
"""

import inspect
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "treecontract") + os.sep
TIER1 = ["-q", "--continue-on-collection-errors"]


def function_lines(code):
    """The set of lines of every function code object nested in `code`,
    each function's first line left out."""
    lines = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_NEWLOCALS:
                lines.update([line for _start, _end, line in const.co_lines()
                              if line not in (None, const.co_firstlineno)])
            lines |= function_lines(const)
    return lines


def package_lines():
    """path -> (source lines, the sorted lines inside its functions), for
    every module of the package."""
    out = {}
    for folder, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                code = compile(source, path, "exec")
                out[path] = (source.splitlines(),
                             sorted(function_lines(code)))
    return out


def run(args):
    """Run pytest on args under the tracer; returns (exit code, the set of
    (path, line) that ran)."""
    ran = set()

    def local(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, _event, _arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return local
        return None

    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv):
    code, ran = run(argv or TIER1)
    total = missed = 0
    summary = []
    for path, (source, lines) in sorted(package_lines().items()):
        rel = os.path.relpath(path, ROOT)
        never = [line for line in lines if (path, line) not in ran]
        total += len(lines)
        missed += len(never)
        for line in never:
            print("%s:%d: %s" % (rel, line, source[line - 1].strip()))
        if never:
            summary.append("%s: %d of %d never ran"
                           % (rel, len(never), len(lines)))
    print("\n".join(summary))
    print("%d of %d lines inside functions never ran (%.1f%% ran)"
          % (missed, total, 100.0 * (total - missed) / max(1, total)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

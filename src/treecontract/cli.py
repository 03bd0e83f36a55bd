"""Command line: generate trees, solve under the simulator, verify against
the oracles, and sweep families for round/memory tables.

Exit codes: 0 success, 1 verification mismatch (or a not-isomorphic verdict),
2 simulation fault or any unexpected error, 3 input error (a malformed
argument included).
"""

import argparse
import csv
import hashlib
import json
import os
import sys

from .errors import ExprArithmeticError, InputError, LogIntegrityError, SimFault
from .oracles import (all_shapes, broom, caterpillar, complete_kary, path,
                      random_tree, star, with_edge_weights, with_vertex_weights)
from .problems import REGISTRY
from .sim import SimConfig
from .trees import parse_tree, serialize_tree

# one tree of each family from (n, seed, k); "all-shapes" is a family of
# many trees, which only gen writes
_MAKE_TREE = {
    "path": lambda n, seed, k: path(n),
    "star": lambda n, seed, k: star(n),
    "broom": lambda n, seed, k: broom(n),
    "caterpillar": lambda n, seed, k: caterpillar(n),
    "random": lambda n, seed, k: random_tree(n, seed),
    "complete-kary": lambda n, seed, k: complete_kary(n, k),
}
_FAMILIES = tuple(_MAKE_TREE) + ("all-shapes",)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise InputError("%s is not UTF-8 text" % path) from None


def _load_inputs(args, arity):
    paths = args.input or []
    if arity == 0:
        if len(paths) != 1:
            raise InputError("problem %r takes exactly one expression input"
                             % args.problem)
        raw = paths[0]
        if os.path.isfile(raw):
            raw = _read_text(raw).strip()
        return [([], raw, raw.encode())]
    if not paths or len(paths) % max(arity, 1):
        raise InputError("problem %r takes inputs in groups of %d"
                         % (args.problem, arity))
    instances = []
    for g in range(0, len(paths), arity):
        trees, blob = [], bytearray()
        for p in paths[g:g + arity]:
            text = _read_text(p)
            trees.append(parse_tree(text))
            blob.extend(text.encode())
        instances.append((trees, None, bytes(blob)))
    return instances


def _cfg_for(args, trees, text):
    n = max(4, len(text)) if text is not None else max(t.n for t in trees)
    return SimConfig(epsilon=args.epsilon, n=n, seed=args.seed,
                     strict=args.strict)


def _digest(blob):
    return hashlib.sha256(blob).hexdigest()[:16]


def _cmd_solve(args):
    entry = REGISTRY[args.problem]
    instances = _load_inputs(args, entry["arity"])
    if args.log and len(instances) > 1:
        raise InputError("--log saves the log of one input instance, not %d"
                         % len(instances))
    worst = 0
    for trees, text, _ in instances:
        cfg = _cfg_for(args, trees, text)
        result = entry["solve"](trees, text, cfg, args.seed)
        for line in result["lines"]:
            print(line)
        report = {"problem": args.problem, "n": cfg.n, "epsilon": args.epsilon,
                  "seed": args.seed, "value": result["value"],
                  "metrics": result.get("metrics")}
        if args.report:
            with open(args.report, "a") as fh:
                fh.write(json.dumps(report) + "\n")
        else:
            print(json.dumps(report))
        if args.log and result.get("log") is not None:
            result["log"].save(args.log)
        worst = max(worst, result.get("exit", 0))
    return worst


def _cmd_verify(args):
    entry = REGISTRY[args.problem]
    bad = 0
    for trees, text, blob in _load_inputs(args, entry["arity"]):
        cfg = _cfg_for(args, trees, text)
        result = entry["solve"](trees, text, cfg, args.seed)
        oracle, engine, equal = entry["check"](trees, text, result)
        line = {"problem": args.problem, "digest": _digest(blob),
                "oracle": oracle, "engine": engine, "equal": equal}
        out = json.dumps(line)
        if args.report:
            with open(args.report, "a") as fh:
                fh.write(out + "\n")
        print(out)
        bad += 0 if equal else 1
    return 1 if bad else 0


def _cmd_bench(args):
    entry = REGISTRY[args.problem]
    if entry["arity"] != 1:
        raise InputError("bench sweeps single-tree problems only")
    rows = [("family", "n", "epsilon", "rounds", "peak_words")]
    for family in args.family:
        for n in args.n:
            for eps in args.epsilon or [0.5]:
                tree = _MAKE_TREE[family](n, args.seed, args.k)
                cfg = SimConfig(epsilon=eps, n=tree.n, seed=args.seed,
                                strict=args.strict)
                result = entry["solve"]([tree], None, cfg, args.seed)
                m = result["metrics"]
                rows.append((family, n, eps, m["rounds"],
                             m["peak_machine_words"]))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        csv.writer(out).writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _weighted(tree, args):
    if args.edge_weights:
        tree = with_edge_weights(tree, args.seed)
    if args.vertex_weights:
        tree = with_vertex_weights(tree, args.seed)
    return tree


def _cmd_gen(args):
    if args.family == "all-shapes":
        os.makedirs(args.out, exist_ok=True)
        count = 0
        for i, tree in enumerate(all_shapes(args.n), start=1):
            dest = os.path.join(args.out, "shape-%03d.tree" % i)
            with open(dest, "w") as fh:
                fh.write(serialize_tree(_weighted(tree, args)))
            count += 1
        print("%d files in %s" % (count, args.out))
        return 0
    tree = _weighted(_MAKE_TREE[args.family](args.n, args.seed, args.k), args)
    text = serialize_tree(tree)
    if parse_tree(text) != tree:
        raise LogIntegrityError("generated tree does not round-trip")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _positive_int(text):
    """--n's type; argparse reports a bad value as a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("not a positive integer: %r" % text)
    return value


def _run_flags(sub):
    """The flags of every command that solves: seed and budget mode."""
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--relaxed", dest="strict", action="store_false")


def _common(sub):
    sub.add_argument("--epsilon", type=float, default=0.5)
    sub.add_argument("--report", metavar="PATH")
    _run_flags(sub)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as input errors: exit 3, not argparse's 2,
    which here means a simulation fault."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _build_parser():
    parser = _Parser(
        prog="treecontract",
        description="Tree contraction under a round-accurate AMPC simulator.")
    subs = parser.add_subparsers(dest="cmd", required=True)

    solve = subs.add_parser("solve", help="run a problem on inputs")
    solve.add_argument("--problem", required=True, choices=sorted(REGISTRY))
    solve.add_argument("--input", action="append",
                       help="tree file; twice for pair problems; an "
                            "expression file or literal for eval")
    solve.add_argument("--log", metavar="PATH")
    _common(solve)

    verify = subs.add_parser("verify", help="solve and compare with oracles")
    verify.add_argument("--problem", required=True, choices=sorted(REGISTRY))
    verify.add_argument("--input", action="append")
    _common(verify)

    bench = subs.add_parser("bench", help="family sweep to CSV")
    bench.add_argument("--problem", default="height",
                       choices=sorted(REGISTRY))
    bench.add_argument("--family", action="append", required=True,
                       choices=list(_MAKE_TREE))
    bench.add_argument("--n", action="append", type=_positive_int,
                       required=True)
    bench.add_argument("--epsilon", action="append", type=float)
    bench.add_argument("--k", type=int, default=2)
    bench.add_argument("--out", metavar="PATH")
    _run_flags(bench)

    gen = subs.add_parser("gen", help="write generated tree files")
    gen.add_argument("--family", required=True, choices=_FAMILIES)
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--edge-weights", action="store_true")
    gen.add_argument("--vertex-weights", action="store_true")
    gen.add_argument("--out", metavar="PATH")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cmd = {"solve": _cmd_solve, "verify": _cmd_verify,
               "bench": _cmd_bench, "gen": _cmd_gen}[args.cmd]
        return cmd(args)
    except (InputError, ExprArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (SimFault, LogIntegrityError) as exc:
        print("simulation fault: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a mismatch, so never borrow it
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

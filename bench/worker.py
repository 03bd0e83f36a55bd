"""One benchmark run of one workload, started by run.py in a pinned
environment. Prints one JSON line per solve (its fingerprint and median
time), then the result object as the last line of stdout, and writes the
full record to bench/out/.

Timed region of a solve: the solver call plus `ContractionLog.save`, as in
`treecontract solve --log`. Input generation, parsing, fingerprints and
oracle checks are outside it.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import treecontract
from treecontract import oracles, parse_tree
from treecontract.problems import REGISTRY, iso
from treecontract.sim import SimConfig
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_PER_PASS = 3
MIN_PASSES = 3
MODEL = ("rounds", "total_words", "dht_reads", "dht_writes",
         "peak_machine_words")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _config(solve, trees, seed):
    # as `treecontract solve` sizes it: n is the expression length or the
    # largest input tree
    n = max(4, len(solve.expr)) if solve.expr is not None else max(
        t.n for t in trees)
    return SimConfig(epsilon=solve.epsilon, n=n, seed=seed)


def _environment():
    head, commit = os.path.join(ROOT, ".git", "HEAD"), None
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "treecontract")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                src.update(fh.read())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "git_commit": commit,
            "src_sha256": src.hexdigest(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "pycache_prefix": sys.pycache_prefix,
            "TC_THREADS": os.environ.get("TC_THREADS")}


def setup_sample(texts):
    """Seconds a fresh interpreter takes to import the package and parse
    every input tree (setup_probe.py)."""
    probe = os.path.join(HERE, "setup_probe.py")
    done = subprocess.run([sys.executable, probe], input=texts,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """State of one run: inputs, the reference fingerprints taken on the
    first pass, and the outcome of every solve run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.solves = WORKLOADS[workload](seed)
        self.trees = [[parse_tree(t) for t in s.texts] for s in self.solves]
        self.configs = [_config(s, ts, seed)
                        for s, ts in zip(self.solves, self.trees)]
        os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
        self.log_paths = [os.path.join(OUT, "work", "%s-%d.log" % (workload, k))
                          for k in range(len(self.solves))]
        self.setup_texts = json.dumps([t for s in self.solves
                                       for t in s.texts])
        self.setup = []  # setup_sample() seconds
        self.reference = [None] * len(self.solves)
        self.checked = [None] * len(self.solves)
        self.outcomes = []  # (solve index, ran and reproduced the reference)
        self.wrong = set()  # solves whose checked answer is wrong

    def _solve(self, k, tracer):
        solve, trees, cfg = self.solves[k], self.trees[k], self.configs[k]
        if solve.problem == "iso":
            # called directly: the registry adapter drops iso's metrics
            verdict, detail = iso.tree_isomorphism(trees[0], trees[1], cfg,
                                                   seed=self.seed)
            word = "isomorphic" if verdict else "not-isomorphic"
            return {"value": word, "lines": [word],
                    "metrics": detail.get("metrics")}
        adapter = REGISTRY[solve.problem]["solve"]
        if tracer is not None:
            adapter = tracer.spanned(adapter, "problems.solver")
        result = adapter(trees, solve.expr, cfg, self.seed)
        result["log"].save(self.log_paths[k])
        return result

    def _fingerprint(self, k, result):
        metrics = result["metrics"]
        fp = {key: metrics[key] for key in MODEL}
        if result.get("log") is not None:
            with open(self.log_paths[k], "rb") as fh:
                data = fh.read()
            fp["log_bytes"] = len(data)
            fp["log_sha256"] = _sha256(data)
        else:
            fp["log_bytes"] = 0
            fp["log_sha256"] = None
        fp["answer_sha256"] = _sha256("\n".join(result["lines"]).encode())
        return fp

    def solve_pass(self, tracer=None, solve_ids=None):
        """Runs every solve once; returns the seconds of each. The first
        pass keeps its answers for the oracle check and its fingerprints as
        the reference that every later pass must reproduce; it is timed like
        the others, and the median absorbs its cold start."""
        seconds = []
        for k in range(len(self.solves)):
            if tracer is not None:
                tracer.solve_id = solve_ids[k]
            result = None  # free the previous solve's result before timing
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = self._solve(k, tracer)
                elapsed = time.perf_counter() - t0
                fp = self._fingerprint(k, result)
            except Exception:
                seconds.append(time.perf_counter() - t0)
                self._fail(k, "raised\n" + traceback.format_exc())
                continue
            seconds.append(elapsed)
            if self.reference[k] is None:
                self.reference[k] = fp
                result.pop("log", None)
                self.checked[k] = result
            elif fp != self.reference[k]:
                self._fail(k, "fingerprint %r differs from the first pass %r"
                           % (fp, self.reference[k]))
                continue
            self.outcomes.append((k, True))
        return seconds

    def _fail(self, k, why):
        self.outcomes.append((k, False))
        print("FAIL %s %s: %s" % (self.workload, self.solves[k].sid, why),
              file=sys.stderr)

    def check(self):
        """Oracle gate on the first pass's answers."""
        for k, solve in enumerate(self.solves):
            result = self.checked[k]
            if result is None:
                continue
            trees = self.trees[k]
            try:
                if solve.problem == "height":
                    want = oracles.height_table(trees[0])[trees[0].root]
                    got = result["value"]
                    ok = want == got
                elif solve.problem == "iso":
                    want = oracles.isomorphic_rooted(trees[0], trees[1])
                    got = result["value"]
                    ok = want and got == "isomorphic"
                else:
                    want, got, ok = REGISTRY[solve.problem]["check"](
                        trees, solve.expr, result)
            except Exception:
                ok, want, got = False, "raised", traceback.format_exc()
            if not ok:
                self.wrong.add(k)
                print("FAIL %s %s: oracle %r, engine %r"
                      % (self.workload, solve.sid, want, got), file=sys.stderr)

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        """Solve runs that raised, differed from the first pass, or
        reproduced an answer the oracle rejected."""
        return sum(1 for k, ok in self.outcomes if not ok or k in self.wrong)

    def model_metrics(self):
        fps = [fp for fp in self.reference if fp is not None]
        out = {key: sum(fp[key] for fp in fps) for key in MODEL + ("log_bytes",)}
        out["peak_machine_words"] = max(
            (fp["peak_machine_words"] for fp in fps), default=0)
        return out


def timed_passes(run, seconds, tracer=None):
    """Untraced pass totals and per-solve seconds, repeated until `seconds`
    have gone and MIN_PASSES ran; setup samples are taken between passes.
    With a tracer, each untraced pass is
    followed by a traced one, so that both see the host in the same state;
    the traced pass totals and per-layer metrics are returned too."""
    totals, per_solve, traced, layers = [], [], [], []
    setup_sample(run.setup_texts)  # warm-up: fills the bytecode cache
    deadline = time.perf_counter() + seconds
    while len(totals) < MIN_PASSES or time.perf_counter() < deadline:
        secs = run.solve_pass()
        totals.append(sum(secs))
        per_solve.append(secs)
        # spread over the run, so the median sees the host as the passes do
        run.setup.extend(setup_sample(run.setup_texts)
                         for _ in range(SETUP_PER_PASS))
        if tracer is not None:
            secs, metrics = traced_pass(run, tracer, len(traced) + 1)
            traced.append(sum(secs))
            layers.append(metrics)
    return totals, per_solve, traced, layers


def traced_pass(run, tracer, number):
    """One pass with the tracer swapped in, preceded by the parse of every
    input (untimed for the pass, traced for trees.parse_tree)."""
    ids = [10 * number + k for k in range(len(run.solves))]
    setup_id = 10 * number + 9
    tracer.labels[setup_id] = "pass%d/setup" % number
    for sid, solve in zip(ids, run.solves):
        tracer.labels[sid] = "pass%d/%s" % (number, solve.sid)
    before = dict(tracer.counts)
    tracer.install()
    try:
        tracer.solve_id = setup_id
        for solve in run.solves:
            for text in solve.texts:
                treecontract.parse_tree(text)  # the swapped binding
        secs = run.solve_pass(tracer, ids)
    finally:
        tracer.uninstall()
    return secs, tracer.layer_metrics(set(ids) | {setup_id}, before)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    run = Run(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    totals, per_solve, traced, layers = timed_passes(run, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.check()

    measured = dict(run.model_metrics(), wall_s=statistics.median(totals),
                    setup_s=statistics.median(run.setup),
                    peak_rss_mb=peak_rss_mb)
    if args.trace:
        measured = {name: statistics.median(m[name] for m in layers)
                    for name in layers[0]}
        measured["trace.overhead"] = (statistics.median(traced)
                                      / statistics.median(totals))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(measured):
        raise SystemExit("bench: metrics %r do not match BENCHMARK.json"
                         % sorted(set(measured) ^ {m["name"] for m in wanted}))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for k, solve in enumerate(run.solves):
        print(json.dumps({"solve": solve.sid, "problem": solve.problem,
                          "epsilon": solve.epsilon,
                          "median_s": statistics.median(p[k] for p in per_solve),
                          "fingerprint": run.reference[k]}))
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=_environment(), setup_samples=run.setup,
                  pass_seconds=totals, solves=[
                      {"solve": s.sid, "problem": s.problem,
                       "epsilon": s.epsilon, "fingerprint": run.reference[k],
                       "seconds": [p[k] for p in per_solve]}
                      for k, s in enumerate(run.solves)])
    if args.trace:
        record.update(traced_pass_seconds=traced, layers_by_pass=layers)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.tsv"
                                  % (args.workload, args.seed)))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)
    for path in run.log_paths:
        if os.path.exists(path):
            os.remove(path)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

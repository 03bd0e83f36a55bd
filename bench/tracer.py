"""Per-layer tracing from outside the program.

The tracer swaps public callables of treecontract for timing wrappers. A
module-level function is replaced by identity in every loaded treecontract
module, because `from .engine import tree_contract` binds the same function
under several module names; a method is replaced on its class. Each wrapped
call records a span (name, start, end, parent span, solve id) in flat arrays
that stay in memory until the run writes them out. Some layers are counted,
not timed, where a span per call would cost more than the call.
"""

import re
import sys
import time
from array import array

from treecontract import engine, sim, trees
from treecontract.problems import exprs, indep, iso, matching

# span name -> (owner, attribute); the owner is a module or a class
SPANNED = {
    "trees.parse_tree": (trees, "parse_tree"),
    "trees.Tree.copy": (trees.Tree, "copy"),
    "trees.Tree.contract": (trees.Tree, "contract"),
    "trees.Tree.remove_leaf": (trees.Tree, "remove_leaf"),
    "trees.decompose": (trees, "decompose"),
    "trees.group_components": (trees, "group_components"),
    "trees.low_degree_components": (trees, "low_degree_components"),
    "engine.tree_contract": (engine, "tree_contract"),
    "engine.bounded_tree_contract": (engine, "bounded_tree_contract"),
    "engine.reconstruct": (engine, "reconstruct"),
    "problems.exprs.evaluate_expression": (exprs, "evaluate_expression"),
    "problems.indep.bypass_expand": (indep, "bypass_expand"),
    "problems.matching.extract_matching": (matching, "extract_matching"),
    "problems.iso.tree_isomorphism": (iso, "tree_isomorphism"),
}

STAGES = ("compress", "rake", "sibling", "fold", "final", "other")
_SIBLING = re.compile(r" rake L\d+$")

COUNTERS = ("trees.word_count.calls", "trees.word_count.words",
            "sim.charged_rounds", "sim.table_entries",
            "engine.contract_component.calls", "engine.log.records")


def machine_stage(label):
    """Engine stage of a machine, from the label the engine gives it."""
    if label == "final":
        return "final"
    if _SIBLING.search(label):
        return "sibling"
    for stage in ("compress", "rake", "fold"):
        if label.endswith(stage):
            return stage
    return "other"


class Tracer:
    """Span recorder plus counters. install() swaps the wrappers in and
    uninstall() puts the originals back."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.solve = array("l")
        self.name = array("l")
        self._stack = []
        self.solve_id = -1
        self.labels = {}  # solve id -> label
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def spanned(self, fn, name):
        nid = self.name_id(name)
        opened, closed = self.open, self.close

        def wrapper(*args, **kwargs):
            i = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(i)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _swap(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _swap_everywhere(self, original, new):
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "treecontract" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, attr, new)

    def install(self):
        for name, (owner, attr) in SPANNED.items():
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                self._swap(owner, attr, self.spanned(original, name))
            else:
                self._swap_everywhere(original, self.spanned(original, name))
        self._swap_everywhere(trees.word_count,
                              self._counted_word_count(trees.word_count))
        self._swap_everywhere(engine.contract_component,
                              self._counted_calls(engine.contract_component))
        self._swap(sim.Simulator, "run_round",
                   self._traced_run_round(sim.Simulator.run_round))
        self._swap(sim.Simulator, "charge_subroutine",
                   self._counted_charge(sim.Simulator.charge_subroutine))
        self._swap(engine.ContractionLog, "save",
                   self._traced_save(engine.ContractionLog.save))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counted layers ------------------------------------------------------

    def _counted_word_count(self, word_count):
        """Counts top-level calls and the words they return; the recursion
        inside word_count also passes through the swapped global and is let
        through uncounted."""
        counts = self.counts
        nested = [False]

        def wrapper(obj):
            if nested[0]:
                return word_count(obj)
            nested[0] = True
            try:
                words = word_count(obj)
            finally:
                nested[0] = False
            counts["trees.word_count.calls"] += 1
            counts["trees.word_count.words"] += words
            return words

        return wrapper

    def _counted_calls(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["engine.contract_component.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_charge(self, charge):
        counts = self.counts

        def wrapper(simulator, name, rounds):
            counts["sim.charged_rounds"] += rounds
            return charge(simulator, name, rounds)

        return wrapper

    def _traced_run_round(self, run_round):
        """Spans the round, and each machine body inside it by stage."""
        counts = self.counts
        nid = self.name_id("sim.run_round")
        stage_name = {s: "engine.machine." + s for s in STAGES}

        def wrapper(simulator, machines):
            counts["sim.table_entries"] += len(simulator.generation)
            for m in machines:
                m.run = self.spanned(m.run, stage_name[machine_stage(m.label)])
            i = self.open(nid)
            try:
                return run_round(simulator, machines)
            finally:
                self.close(i)

        return wrapper

    def _traced_save(self, save):
        counts = self.counts
        timed = self.spanned(save, "engine.ContractionLog.save")

        def wrapper(log, path):
            counts["engine.log.records"] += len(log.records)
            return timed(log, path)

        return wrapper

    # -- reduction -----------------------------------------------------------

    def totals(self, solves):
        """{name: [count, inclusive seconds, self seconds]} over the spans of
        the given solve ids."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            if self.solve[i] not in solves:
                continue
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
        return out

    def layer_metrics(self, solves, counts_before):
        """Per-layer metrics of the given solve ids, with the counters taken
        as the difference from `counts_before`."""
        t = self.totals(solves)

        def get(name, col):
            return t.get(name, (0, 0.0, 0.0))[col]

        m = {name: self.counts[name] - counts_before[name] for name in COUNTERS}
        for name in ("trees.parse_tree", "trees.Tree.copy",
                     "trees.Tree.contract", "trees.Tree.remove_leaf",
                     "trees.decompose", "trees.group_components",
                     "trees.low_degree_components", "engine.reconstruct",
                     "engine.ContractionLog.save",
                     "problems.indep.bypass_expand",
                     "problems.matching.extract_matching"):
            m[name + ".s"] = get(name, 1)
        m["trees.Tree.contract.calls"] = get("trees.Tree.contract", 0)
        m["trees.Tree.remove_leaf.calls"] = get("trees.Tree.remove_leaf", 0)
        for stage in STAGES:
            m["engine.machine.%s.s" % stage] = get("engine.machine." + stage, 1)
        m["sim.machine.s"] = sum(get("engine.machine." + s, 1) for s in STAGES)
        m["sim.machines"] = sum(get("engine.machine." + s, 0) for s in STAGES)
        m["sim.run_round.calls"] = get("sim.run_round", 0)
        m["sim.run_round.self_s"] = get("sim.run_round", 2)
        m["engine.contract.self_s"] = (get("engine.tree_contract", 2)
                                       + get("engine.bounded_tree_contract", 2))
        m["problems.exprs.pipeline.s"] = get(
            "problems.exprs.evaluate_expression", 2)
        m["problems.iso.self_s"] = get("problems.iso.tree_isomorphism", 2)
        m["problems.solver.self_s"] = get("problems.solver", 2)
        m["trace.spans"] = sum(entry[0] for entry in t.values())
        return m

    def write(self, path):
        """Spans as tab-separated text, one per line."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\tsolve\tlabel\n")
            for i in range(len(self.start)):
                sid = self.solve[i]
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%s\n" % (
                    i, self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], sid, self.labels.get(sid, "")))

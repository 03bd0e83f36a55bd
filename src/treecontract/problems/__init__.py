"""Problem plugins and the name -> adapter registry the CLI dispatches on.

Each adapter normalizes a solver into: solve(trees, text, cfg, seed) -> dict
with `value` (JSON-safe answer), `lines` (stdout lines), optional
`structure` (the answer in the form check compares), `log`, `metrics`, and
`exit` (verdict-style exit code). check(trees, text, result) returns
(oracle_repr, engine_repr, equal) against the independent oracles.
"""

import sys

from .. import oracles
from ..engine import tree_contract
from . import exprs, indep, iso, lifted, matching


def _solve_mwm(trees, text, cfg, seed):
    value, edges, _, log, metrics = matching.mwm_solve(trees[0], cfg)
    return {"value": value, "lines": matching.format_matching(edges),
            "structure": sorted(edges), "log": log, "metrics": metrics}


def _check_mwm(trees, text, result):
    want, _ = oracles.brute_mwm(trees[0])
    got = result["value"]
    edges = [(c, p) for c, p, _ in result["structure"]]
    ok = (got == want and oracles.matching_is_valid(trees[0], edges)
          and oracles.matching_weight(trees[0], edges) == got)
    return want, got, ok


def _solve_mis(trees, text, cfg, seed):
    chosen, _, _, log, metrics = indep.mis_solve(trees[0], cfg)
    return {"value": len(chosen), "lines": [" ".join(map(str, chosen))],
            "structure": chosen, "log": log, "metrics": metrics}


def _check_mis(trees, text, result):
    want = sorted(oracles.greedy_mis(trees[0]))
    got = result["structure"]
    ok = (got == want and oracles.set_is_maximal_independent(trees[0], set(got)))
    return want, got, ok


def _solve_matching(trees, text, cfg, seed):
    edges, _, _, log, metrics = indep.maximal_matching_solve(trees[0], cfg)
    return {"value": len(edges),
            "lines": ["%d %d" % (c, p) for c, p in sorted(edges)],
            "structure": sorted(edges), "log": log, "metrics": metrics}


def _check_matching(trees, text, result):
    want = sorted(oracles.greedy_maximal_matching(trees[0]))
    got = result["structure"]
    ok = (got == want
          and oracles.matching_is_valid(trees[0], got)
          and oracles.matching_is_maximal(trees[0], got))
    return want, got, ok


def _solve_mwis(trees, text, cfg, seed):
    value, chosen, _, log, metrics = indep.mwis_solve(trees[0], cfg)
    return {"value": value, "lines": [" ".join(map(str, chosen))],
            "structure": chosen, "log": log, "metrics": metrics}


def _check_mwis(trees, text, result):
    want, wset = oracles.brute_mwis(trees[0])
    got = result["value"]
    ok = got == want and result["structure"] == sorted(wset)
    return want, got, ok


def _exact_str(value):
    """str(value) of an exact answer of any size. Python's limit on the
    digits of an int-to-str conversion is lifted for this call only, so the
    ints that inputs are parsed into keep the default guard."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _solve_eval(trees, text, cfg, seed):
    value, _, log, metrics = exprs.evaluate_expression(text, cfg)
    exact = _exact_str(value)
    return {"value": exact, "lines": [exact], "structure": value,
            "log": log, "metrics": metrics}


def _check_eval(trees, text, result):
    want = oracles.eval_reference(text)
    got = result["structure"]
    return _exact_str(want), _exact_str(got), got == want


def _solve_iso(trees, text, cfg, seed):
    verdict, detail = iso.tree_isomorphism(trees[0], trees[1], cfg, seed=seed)
    metrics = detail.pop("metrics")
    word = "isomorphic" if verdict else "not-isomorphic"
    return {"value": word, "lines": [word], "structure": detail,
            "metrics": metrics, "exit": 0 if verdict else 1}


def _check_iso(trees, text, result):
    want = oracles.isomorphic_rooted(trees[0], trees[1])
    got = result["value"] == "isomorphic"
    return ("isomorphic" if want else "not-isomorphic"), result["value"], got == want


def _solve_height(trees, text, cfg, seed):
    value, log, metrics = iso.height_run(trees[0], cfg)
    return {"value": value, "lines": [str(value)], "log": log,
            "metrics": metrics}


def _check_height(trees, text, result):
    want = oracles.height_table(trees[0])[trees[0].root]
    return want, result["value"], want == result["value"]


def _solve_sum(trees, text, cfg, seed):
    value, log, metrics = tree_contract(trees[0], lifted.sum_plugin(), cfg)
    return {"value": value, "lines": [str(value)], "log": log,
            "metrics": metrics}


def _check_sum(trees, text, result):
    want = sum(trees[0].attrs[v].get("val", 1) for v in trees[0].vertices())
    return want, result["value"], want == result["value"]


REGISTRY = {
    "mwm": {"arity": 1, "solve": _solve_mwm, "check": _check_mwm},
    "mis": {"arity": 1, "solve": _solve_mis, "check": _check_mis},
    "matching": {"arity": 1, "solve": _solve_matching, "check": _check_matching},
    "mwis": {"arity": 1, "solve": _solve_mwis, "check": _check_mwis},
    "eval": {"arity": 0, "solve": _solve_eval, "check": _check_eval},
    "iso": {"arity": 2, "solve": _solve_iso, "check": _check_iso},
    "height": {"arity": 1, "solve": _solve_height, "check": _check_height},
    "sum": {"arity": 1, "solve": _solve_sum, "check": _check_sum},
}

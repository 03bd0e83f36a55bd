"""Summarize bench/out/ results across seeds.

    python3 bench/collect.py [--out FILE]

For each workload and metric, prints the median, the quartile spread as a
share of the median (statistics.quantiles(values, n=4)) and the bound from
BENCHMARK.json, and flags any spread above a third of its bound. With
--out, writes the summary plus the traced per-layer medians as one JSON file.
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = []
    for path in sorted(glob.glob(os.path.join(HERE, "out", "*-trace*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        entry = {"why": w["why"], "seeds": sorted(r["seed"] for r in runs),
                 "all_correct": all(r["correct"] for r in runs + traced),
                 "end_to_end": {}, "per_layer": {}}
        if runs:
            entry["environment"] = runs[0]["environment"]
            entry["solves"] = {r["seed"]: [s["fingerprint"] for s in r["solves"]]
                               for r in runs}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) < 2:
                continue
            s = spread(values)
            entry["end_to_end"][metric] = {
                "median": statistics.median(values), "spread": s,
                "bound": bound, "unit": runs[0]["metrics"][metric]["unit"],
                "values": values}
            flag = "" if s < bound / 3 else "  <-- above bound/3"
            print("%-10s %-20s median %-14.6g spread %.4f bound %.2f%s"
                  % (name, metric, statistics.median(values), s, bound, flag))
        for metric in (traced[0]["metrics"] if traced else {}):
            values = [r["metrics"][metric]["value"] for r in traced]
            entry["per_layer"][metric] = {
                "median": statistics.median(values),
                "unit": traced[0]["metrics"][metric]["unit"]}
        summary[name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()

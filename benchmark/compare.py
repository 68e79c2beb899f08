#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py BASE_DIR NEW_DIR [--benchmark FILE]

Each directory holds the untraced result files ``nvmcp_bench --out DIR``
writes (``<workload>.seed<N>.json``). For every workload and end-to-end
metric the table shows each side's median and quartiles, the change of
the median (positive = better), and a verdict:

  unresolved  either side's spread, (Q3 - Q1) / median, is wider than the
              metric's bound
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better by more than BASE's spread, and NEW
              wins at least 9 of 10 runs paired by seed
  same        anything else

Runs that failed an operation or an output check are listed. Exit status
is 1 when a verdict is worse or a run failed, else 0. Standard library
only.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {seed: result}} of the untraced result files."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or doc.get("trace", True):
            continue  # traced results, layers and Chrome traces
        runs.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(metric, base, new):
    """Verdict and signed relative change (positive = better)."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b_med = statistics.median(base.values())
    n_med = statistics.median(new.values())
    change = sign * (n_med - b_med) / b_med if b_med else 0.0
    if max(spread(list(base.values())), spread(list(new.values()))) > bound:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) > 0)
    if seeds and change > spread(list(base.values())) and \
            wins >= 0.9 * len(seeds):
        return "better", change
    return "same", change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)

    status = 0
    for label, runs in (("BASE", base_runs), ("NEW", new_runs)):
        for workload, by_seed in sorted(runs.items()):
            for seed, doc in sorted(by_seed.items()):
                if doc["failed"] or not doc["correct"]:
                    print("%s %s seed %s: %d of %d operations failed%s"
                          % (label, workload, seed, doc["failed"],
                             doc["attempted"],
                             "" if doc["correct"] else ", output WRONG"))
                    status = 1

    header = "%-13s %-16s %-30s %-30s %8s  %s" % (
        "workload", "metric", "base median [Q1, Q3]",
        "new median [Q1, Q3]", "change", "verdict")
    print(header)
    print("-" * len(header))
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base_runs or name not in new_runs:
            print("%-13s (missing on %s)" % (
                name, "BASE" if name not in base_runs else "NEW"))
            continue
        for metric in bench["end_to_end"]:
            key = metric["name"]
            base = {s: d["metrics"][key]["value"]
                    for s, d in base_runs[name].items()}
            new = {s: d["metrics"][key]["value"]
                   for s, d in new_runs[name].items()}
            v, change = verdict(metric, base, new)
            if v == "worse":
                status = 1
            cells = []
            for side in (base, new):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append("%.5g [%.5g, %.5g]" % (med, q1, q3))
            print("%-13s %-16s %-30s %-30s %+7.1f%%  %s (bound %g%%)" % (
                name, key, cells[0], cells[1], 100 * change, v,
                100 * metric["bound"]))
    return status


if __name__ == "__main__":
    sys.exit(main())

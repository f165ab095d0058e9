#!/usr/bin/env python3
"""Report-only comparison of two benchmark result sets.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of run records written by perfbench/run.py
(.bench_build/results/ by default; copy it aside between commits). Runs
pair up by workload, trace mode and seed, in the order they were made.
For every workload and metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict; metrics and bounds come from the BENCHMARK.json beside
perfbench/:

  invalid     a run on either side failed a correctness gate
              ("correct": false); its numbers do not count

  improved    the change won at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the base
              runs' own quartile spread
  worse       the change failed a larger share of its operations than
              the base (failed / attempted, summed over runs), or its
              median is worse than the base median by more than the
              metric's bound (end-to-end metrics), or the base won 9/10
              of pairs beyond its spread (per-layer metrics)
  no worse    within the bound, and both sides' spreads are within it
  unresolved  a spread is wider than the bound, unless every run of the
              change reads better than every run of the base; per-layer
              metrics have no bound, so neither improved nor worse is
              unresolved for them

A failed_ratio row per workload gives both sides' failed / attempted.
It never fails a build: it reports, the reader decides.
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def load(directory):
    """Run records as ({(workload, trace): {seed: [metrics, ...]}},
    {(workload, trace): {"incorrect": n, "attempted": n, "failed": n}})."""
    runs, health = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["trace"])
        result = rec["result"]
        h = health.setdefault(key, {"incorrect": 0, "attempted": 0,
                                    "failed": 0})
        h["incorrect"] += result["correct"] is not True
        h["attempted"] += result["attempted"]
        h["failed"] += result["failed"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(key, {}).setdefault(rec["seed"], []).append(metrics)
    return runs, health


def failed_ratio(h):
    return h["failed"] / h["attempted"] if h["attempted"] else 0.0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, lower_better, bound):
    """Applies the rules in the module docstring to two value lists
    and their pairs; returns (verdict, win share)."""
    pairs = list(zip(base["paired"], new["paired"]))
    better = (lambda n, b: n < b) if lower_better else (lambda n, b: n > b)
    wins = sum(1 for b, n in pairs if better(n, b))
    losses = sum(1 for b, n in pairs if better(b, n))
    share = wins / len(pairs) if pairs else float("nan")
    bq1, bmed, bq3 = quartiles(base["all"])
    nq1, nmed, nq3 = quartiles(new["all"])
    spread = bq3 - bq1
    gain = (bmed - nmed) if lower_better else (nmed - bmed)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved", share
    if bound is None:
        if pairs and losses >= WIN_SHARE * len(pairs) and -gain > spread:
            return "worse", share
        return "unresolved", share
    rel = lambda lo, hi, mid: (hi - lo) / abs(mid) if mid else 0.0
    all_better = all(better(n, b) for n in new["all"] for b in base["all"])
    if max(rel(bq1, bq3, bmed), rel(nq1, nq3, nmed)) > bound and \
            not all_better:
        return "unresolved", share
    worse_by = -gain / abs(bmed) if bmed else 0.0
    return ("worse" if worse_by > bound else "no worse"), share


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    (base, base_health), (new, new_health) = load(args.base), load(args.new)
    header = "%-10s %-34s %-8s %26s %26s %7s %6s  %s" % (
        "workload", "metric", "unit", "base q1/median/q3",
        "new q1/median/q3", "runs", "won", "verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        bh, nh = base_health[key], new_health[key]
        invalid = bh["incorrect"] or nh["incorrect"]
        fails_more = failed_ratio(nh) > failed_ratio(bh)
        print("%-10s %-34s %-8s %26s %26s %7s %6s  %s" % (
            workload, "failed_ratio", "ratio",
            "%d/%d" % (bh["failed"], bh["attempted"]),
            "%d/%d" % (nh["failed"], nh["attempted"]), "", "",
            "invalid" if invalid else "worse" if fails_more else "no worse"))
        seeds = sorted(set(base[key]) & set(new[key]))
        names = sorted({m for runs in base[key].values() for r in runs
                        for m in r} & {m for runs in new[key].values()
                                       for r in runs for m in r})
        for name in names:
            if name not in spec:
                continue
            sides = []
            for runs in (base[key], new[key]):
                sides.append({
                    "all": [r[name] for rs in runs.values() for r in rs
                            if name in r],
                    "paired": [r[name] for s in seeds
                               for r in runs[s][:min(len(base[key][s]),
                                                     len(new[key][s]))]
                               if name in r],
                })
            m = spec[name]
            v, share = verdict(sides[0], sides[1], m["better"] == "lower",
                               m.get("bound"))
            if invalid:
                v = "invalid"
            elif fails_more:
                v = "worse"
            fmt = lambda q: "%8.4g/%8.4g/%8.4g" % q
            won = "-" if share != share else "%.0f%%" % (100 * share)
            print("%-10s %-34s %-8s %26s %26s %3d/%-3d %6s  %s" % (
                workload, name, m["unit"], fmt(quartiles(sides[0]["all"])),
                fmt(quartiles(sides[1]["all"])), len(sides[0]["all"]),
                len(sides[1]["all"]), won, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())

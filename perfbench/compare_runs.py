#!/usr/bin/env python3
"""Summarises or compares result sets written by perfbench/run.py --out.

    python3 perfbench/compare_runs.py RUNS.jsonl
    python3 perfbench/compare_runs.py BASE.jsonl NEW.jsonl

With one set: for every workload and end-to-end metric of the timed pass,
the median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json. A spread
under a third of the bound is "steady"; under the bound, "usable".

With two sets (BASE = parent commit, NEW = change): both sides' medians and
quartiles, the change of the median, and two verdicts.
  - bound: "REGRESSION" when NEW's median is worse than BASE's by more than
    the bound, else "ok".
  - verdict: runs are paired by workload and seed (in file order when a
    seed repeats). "better" needs NEW to win at least 9/10 of the pairs
    (ties count for neither side) and the medians to differ by more than
    BASE's interquartile range; "worse" is the mirror image; anything
    else is "unresolved".
Exits 1 when any bound is exceeded.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: [(seed, {metric: value})]} for the timed-pass records."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            provenance, result = record["provenance"], record["result"]
            if provenance.get("trace") or not result.get("correct"):
                continue
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.setdefault(provenance["workload"], []).append((provenance["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(base, new):
    """(base value dict, new value dict) pairs matched by seed, in order."""
    pending = {}
    for seed, values in base:
        pending.setdefault(seed, []).append(values)
    matched = []
    for seed, values in new:
        if pending.get(seed):
            matched.append((pending[seed].pop(0), values))
    return matched


def summarise(runs, metrics):
    print(f"{'workload':<12} {'metric':<12} {'n':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>8} {'bound':>6}  state")
    for workload in sorted(runs):
        for m in metrics:
            values = [v[m["name"]] for _, v in runs[workload] if m["name"] in v]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("inf")
            state = ("one run, no spread" if len(values) < 2 else
                     "steady" if spread < m["bound"] / 3 else
                     "usable" if spread <= m["bound"] else "TOO NOISY")
            print(f"{workload:<12} {m['name']:<12} {len(values):>3} {median:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} {m['bound']:>6.3f}  {state}")
    return 0


def compare(base_runs, new_runs, metrics):
    print(f"{'workload':<12} {'metric':<12} {'base median [Q1, Q3]':>36} "
          f"{'new median [Q1, Q3]':>36} {'change':>8} {'bound':>6} {'wins':>6}  bound / verdict")
    failed = 0
    for workload in sorted(set(base_runs) & set(new_runs)):
        matched = pairs(base_runs[workload], new_runs[workload])
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            base = [v[name] for _, v in base_runs[workload] if name in v]
            new = [v[name] for _, v in new_runs[workload] if name in v]
            if not base or not new:
                continue
            bq1, bmed, bq3 = quartiles(base)
            nq1, nmed, nq3 = quartiles(new)
            change = (nmed - bmed) / bmed if bmed else 0.0
            worse_by = change if lower else -change
            bound = "REGRESSION" if worse_by > m["bound"] else "ok"
            failed += bound != "ok"
            wins = losses = 0
            for b, n in matched:
                if name in b and name in n and b[name] != n[name]:
                    better = n[name] < b[name] if lower else n[name] > b[name]
                    wins += better
                    losses += not better
            gap_beyond_iqr = abs(nmed - bmed) > (bq3 - bq1)
            verdict = "unresolved"
            if matched and gap_beyond_iqr and wins >= 0.9 * len(matched):
                verdict = "better"
            elif matched and gap_beyond_iqr and losses >= 0.9 * len(matched):
                verdict = "worse"
            print(f"{workload:<12} {name:<12} "
                  f"{f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':>36} "
                  f"{f'{nmed:.6g} [{nq1:.6g}, {nq3:.6g}]':>36} "
                  f"{change:>+8.2%} {m['bound']:>6.3f} {f'{wins}/{len(matched)}':>6}  "
                  f"{bound} / {verdict}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    if args.new is None:
        return summarise(load(args.base), metrics)
    return compare(load(args.base), load(args.new), metrics)


if __name__ == "__main__":
    sys.exit(main())

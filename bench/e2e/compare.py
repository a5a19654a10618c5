#!/usr/bin/env python3
"""Summarise or A/B-compare end-to-end benchmark runs.

    python3 bench/e2e/compare.py RUNS.jsonl                 # one set
    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl  # A/B

Each input holds the lines `run.py --record` appends. Untraced runs carry
the end-to-end metrics; traced runs carry the per-layer ones, of which
only trace.overhead_frac is reported here.

One set: per workload x end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, (q3 - q1) /
median, against the metric's bound in BENCHMARK.json.

Two sets (>= 10 pairs alternating which side runs first, or any two sets
of the same code): runs are paired in file order per workload. For each
workload x metric it prints both sides' median and quartiles, the change's
wins over its pair, and a verdict:

  improved    the change wins >= 9/10 of the pairs (ties count for
              neither), over >= 10 pairs, and the medians differ by more
              than the parent's own quartile spread;
  unresolved  either side's spread is wider than the bound, and not every
              change run is better than every parent run;
  regressed   the change's median is worse than the parent's by more
              than the bound;
  no worse    otherwise.

It also compares fail_frac (failed / attempted) per workload: a change
with more failures than its parent claims no gain.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path):
    runs = defaultdict(list)     # workload -> untraced results
    traced = defaultdict(list)   # workload -> traced results
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                (traced if rec["trace"] else runs)[rec["workload"]].append(rec["result"])
    return runs, traced


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def fail_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def fmt(x):
    return f"{x:.4g}"


def verdict(parent, change, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > q3 - q1:
        return "improved", wins, len(pairs)
    if max(spread(parent), spread(change)) > bound:
        all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
        return ("no worse" if all_better else "unresolved"), wins, len(pairs)
    worse = sign * (p_med - c_med) / p_med if p_med else 0.0
    return ("regressed" if worse > bound else "no worse"), wins, len(pairs)


def summarise(runs, traced, metrics):
    print(f"{'workload':<12} {'metric':<15} {'n':>3} {'median [q1, q3]':<32}"
          f" {'spread':>7} {'bound':>6}  status")
    for workload in sorted(runs):
        for m in metrics:
            vals = values(runs[workload], m["name"])
            if not vals:
                continue
            s = spread(vals)
            status = ("steady" if s <= m["bound"] / 3 else
                      "within bound" if s <= m["bound"] else "NOISY")
            print(f"{workload:<12} {m['name']:<15} {len(vals):>3} {med_q(vals):<32}"
                  f" {s:>7.3f} {m['bound']:>6.2f}  {status}")
        print(f"{workload:<12} {'fail_frac':<15} {len(runs[workload]):>3}"
              f" {fmt(fail_frac(runs[workload]))}")
    for workload in sorted(traced):
        vals = values(traced[workload], "trace.overhead_frac")
        if vals:
            print(f"{workload:<12} trace.overhead_frac median {fmt(statistics.median(vals))}"
                  f" over {len(vals)} traced runs")


def med_q(vals):
    q1, q2, q3 = quartiles(vals)
    return f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"


def compare(a, b, metrics):
    (p_runs, p_traced), (c_runs, c_traced) = a, b
    print(f"{'workload':<12} {'metric':<15} {'parent median [q1, q3]':<32}"
          f" {'change median [q1, q3]':<32} {'delta':>7} {'wins':>6}  verdict")
    exit_code = 0
    for workload in sorted(set(p_runs) & set(c_runs)):
        for m in metrics:
            p = values(p_runs[workload], m["name"])
            c = values(c_runs[workload], m["name"])
            if not p or not c:
                continue
            v, wins, n = verdict(p, c, m["bound"], m["better"])
            p_med = statistics.median(p)
            delta = (statistics.median(c) - p_med) / p_med if p_med else 0.0
            exit_code |= v == "regressed"
            print(f"{workload:<12} {m['name']:<15} {med_q(p):<32} {med_q(c):<32}"
                  f" {delta:>+7.1%} {wins:>3}/{n:<2}  {v}")
        pf, cf = fail_frac(p_runs[workload]), fail_frac(c_runs[workload])
        flag = "MORE FAILURES: no gain counts" if cf > pf else "ok"
        print(f"{workload:<12} {'fail_frac':<15} {fmt(pf):<32} {fmt(cf):<32}"
              f" {'':>7} {'':>6}  {flag}")
    for workload in sorted(set(p_traced) | set(c_traced)):
        p = values(p_traced.get(workload, []), "trace.overhead_frac")
        c = values(c_traced.get(workload, []), "trace.overhead_frac")
        show = lambda v: fmt(statistics.median(v)) if v else "-"
        print(f"{workload:<12} trace.overhead_frac parent {show(p)} change {show(c)}")
    return exit_code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("runs", nargs="+", help="one set, or PARENT CHANGE")
    ap.add_argument("--bench", default=str(BENCHMARK), help="BENCHMARK.json to read bounds from")
    args = ap.parse_args()
    if len(args.runs) > 2:
        ap.error("give one set or two (parent, change)")
    metrics = json.loads(Path(args.bench).read_text())["end_to_end"]
    sets = [load(p) for p in args.runs]
    if len(sets) == 1:
        summarise(*sets[0], metrics)
        return 0
    return compare(sets[0], sets[1], metrics)


if __name__ == "__main__":
    sys.exit(main())

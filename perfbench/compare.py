#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

Usage:

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the result lines of several runs of one workload (the last
stdout line of `perfbench/run.py`, one per line; other lines are skipped).
Run i of BASE is paired with run i of HEAD, so give both the same seeds in
the same order. For each metric it prints both medians and quartile
spreads, the change of the median, how many pairs HEAD won, and a verdict:

  gain        HEAD won at least 9 in 10 pairs and the medians differ by
              more than BASE's own quartile spread
  regression  HEAD's median is worse than BASE's by more than the metric's
              bound in BENCHMARK.json (end-to-end metrics only)
  unresolved  BASE's own spread is wider than the bound, and not every HEAD
              run beats every BASE run
  noise       none of the above
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("{") and '"metrics"' in line and '"correct"' in line:
                runs.append(json.loads(line))
    if not runs:
        sys.exit(f"{path}: no result lines")
    return runs


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load_results(sys.argv[1]), load_results(sys.argv[2])
    spec = load_spec()
    if not all(r["correct"] for r in base + head):
        print("warning: some runs report correct = false")
    print(f"{'metric':28} {'base median':>14} {'spread':>7} {'head median':>14} "
          f"{'spread':>7} {'change':>8} {'wins':>6}  verdict")
    for name in base[0]["metrics"]:
        b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
        if not b or not h:
            continue
        m = spec.get(name, {})
        sign = -1.0 if m.get("better", "higher") == "lower" else 1.0
        mb, mh = statistics.median(b), statistics.median(h)
        change = (mh - mb) / abs(mb) if mb else 0.0
        pairs = list(zip(b, h))
        wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
        spread = quartile_spread(b)
        bound = m.get("bound")
        all_better = min(h) > max(b) if sign > 0 else max(h) < min(b)
        if pairs and wins >= 0.9 * len(pairs) and abs(change) > spread and sign * change > 0:
            verdict = "gain"
        elif bound is not None and -sign * change > bound:
            verdict = "regression"
        elif bound is not None and spread > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "noise"
        unit = base[0]["metrics"][name]["unit"]
        print(f"{name:28} {mb:14.6g} {spread:7.3f} {mh:14.6g} {quartile_spread(h):7.3f} "
              f"{change:+8.2%} {wins:3d}/{len(pairs):<2d}  {verdict}  [{unit}]")


if __name__ == "__main__":
    main()

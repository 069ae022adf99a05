#!/usr/bin/env python3
"""bench_e2e_check: compare a parent and a change series of benchmark runs.

    python3 bench/e2e/check.py <parent-dir> <change-dir> BENCHMARK.json

Each directory holds one file per run, named <workload>-<seed>.json, whose
last line is run.py's result object. Runs pair up by (workload, seed).
For every end-to-end metric and workload it prints both sides' medians and
quartiles, the share of pairs the change wins (ties count for neither) and
one verdict:

  improved    the change wins >= 9/10 of the pairs and the medians differ,
              in its favour, by more than the parent's interquartile range;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  no worse    otherwise.

A change whose runs fail more operations (failed / attempted) than the
parent's is flagged. Exit status: 1 if anything regressed or was flagged.
"""
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        workload, _, seed = path.stem.rpartition("-")
        lines = path.read_text().strip().splitlines()
        if not workload or not lines:
            sys.exit(f"check.py: cannot read run {path}")
        runs[(workload, seed)] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p25, p75 = quartiles(parent)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gain > p75 - p25:
        return wins, "improved"
    if better == "higher":
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if p_med and (p75 - p25) / abs(p_med) > bound and not dominates:
        return wins, "unresolved"
    if p_med and -gain / abs(p_med) > bound:
        return wins, "regressed"
    return wins, "no worse"


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    spec = json.loads(Path(sys.argv[3]).read_text())
    bad = False
    print(f"{'workload':14} {'metric':20} {'parent p50 [p25, p75]':>34} "
          f"{'change p50 [p25, p75]':>34} {'wins':>7}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        keys = sorted(k for k in parent if k[0] == w and k in change)
        if not keys:
            continue
        for m in spec["end_to_end"]:
            p = [parent[k]["metrics"][m["name"]]["value"] for k in keys]
            c = [change[k]["metrics"][m["name"]]["value"] for k in keys]
            wins, v = verdict(p, c, m["better"], m["bound"])
            bad |= v == "regressed"
            cols = []
            for vals in (p, c):
                lo, hi = quartiles(vals)
                cols.append(f"{statistics.median(vals):.6g} "
                            f"[{lo:.6g}, {hi:.6g}]")
            print(f"{w:14} {m['name']:20} {cols[0]:>34} {cols[1]:>34} "
                  f"{wins:>3}/{len(keys):<3}  {v}")

        def failed_frac(runs):
            attempted = sum(runs[k]["attempted"] for k in keys)
            return sum(runs[k]["failed"] for k in keys) / max(attempted, 1)

        if failed_frac(change) > failed_frac(parent):
            bad = True
            print(f"{w:14} FLAG: change fails {failed_frac(change):.4f} of "
                  f"its operations, parent {failed_frac(parent):.4f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

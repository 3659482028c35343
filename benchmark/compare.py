#!/usr/bin/env python3
"""Compares two sets of benchmark results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py A B [--layers]

A and B are results JSON files written by run.py, or directories holding
them; each file may hold several workloads and invocations. Runs whose
checks failed are skipped. Every run of one workload, in A and in B, must
have the same seed and run length. For every end-to-end metric and workload
the medians of A and B are compared in the metric's direction:

  regression   B is worse than A by more than the metric's bound
  unresolved   the interquartile spread of A's or B's runs (as a share of
               its median) exceeds the bound, so noise cannot be told from
               change, unless every run of B beats every run of A
  ok           otherwise

Exits 1 when any metric regressed, 2 when the runs cannot be compared, 0
otherwise. --layers also prints the per-layer medians, which have no bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Incomparable(Exception):
    pass


def load(path):
    """({(workload, metric): [values]}, {workload: (seed, seconds)}) over
    the correct runs in a file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values = defaultdict(list)
    settings = {}
    for file in files:
        doc = json.loads(file.read_text())
        for run in doc.get("runs", []):
            workload = run["workload"]
            setting = (run["seed"], run["seconds"])
            if not run["correct"]:
                print(f"compare.py: skipped a {workload} run in {file}: a "
                      "check failed", file=sys.stderr)
                continue
            if settings.setdefault(workload, setting) != setting:
                raise Incomparable(
                    f"{path} holds {workload} runs of (seed, seconds) "
                    f"{settings[workload]} and {setting}")
            for name, metric in run["metrics"].items():
                values[(workload, name)].append(metric["value"])
    return values, settings


def spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(a, b, better):
    """Share by which b is worse than a (negative when b is better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def compare(a, b, metrics, gated):
    rows = []
    regressions = 0
    workloads = sorted({w for w, _ in a} | {w for w, _ in b})
    for workload in workloads:
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            va, vb = a[key], b[key]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            change = worse_by(ma, mb, metric["better"])
            verdict = ""
            if gated:
                bound = metric["bound"]
                if metric["better"] == "higher":
                    b_dominates = min(vb) > max(va)
                else:
                    b_dominates = max(vb) < min(va)
                if max(sa, sb) > bound and not b_dominates:
                    verdict = "unresolved"
                elif change > bound:
                    verdict = "REGRESSION"
                    regressions += 1
                else:
                    verdict = "ok"
            rows.append((workload, metric["name"], ma, mb, change, sa, sb,
                         len(va), len(vb), verdict))
    return rows, regressions


def print_rows(rows, title):
    print(title)
    print(f"{'workload':15s} {'metric':32s} {'median A':>13s} {'median B':>13s}"
          f" {'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'nA':>3s}"
          f" {'nB':>3s}  verdict")
    for (workload, name, ma, mb, change, sa, sb, na, nb, verdict) in rows:
        print(f"{workload:15s} {name:32s} {ma:13.6g} {mb:13.6g} {change:+9.2%}"
              f" {sa:9.2%} {sb:9.2%} {na:3d} {nb:3d}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline results (file or dir)")
    parser.add_argument("b", type=Path, help="candidate results (file or dir)")
    parser.add_argument("--layers", action="store_true",
                        help="also print per-layer medians (no bounds)")
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text())
    try:
        a, settings_a = load(args.a)
        b, settings_b = load(args.b)
        for workload in settings_a.keys() & settings_b.keys():
            if settings_a[workload] != settings_b[workload]:
                raise Incomparable(
                    f"{workload} ran with (seed, seconds) "
                    f"{settings_a[workload]} in A but "
                    f"{settings_b[workload]} in B")
    except Incomparable as err:
        print(f"compare.py: {err}; compare one seed and run length at a time",
              file=sys.stderr)
        return 2
    rows, regressions = compare(a, b, spec["end_to_end"], gated=True)
    print_rows(rows, "end-to-end metrics (bound and direction from "
                     "BENCHMARK.json)")
    if args.layers:
        layer_rows, _ = compare(a, b, spec["per_layer"], gated=False)
        print()
        print_rows(layer_rows, "per-layer metrics (no bounds)")
    if not rows:
        print("no end-to-end metric is present in both A and B")
        return 1
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

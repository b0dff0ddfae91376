#!/usr/bin/env python3
"""Repeatability / regression check over two sets of benchmark results.

::

    python benchmarks/e2e/run.py --seed 1 --repeat 5      # set A (parent)
    python benchmarks/e2e/run.py --seed 2 --repeat 5      # set B (change)
    python benchmarks/e2e/compare.py A1.json ... -- B1.json ...

For every (end-to-end metric, workload) pair — one row per workload, never a
combined score — it prints each side's median and quartiles and applies the
rule of the choosing-metrics guide:

* the change's median may be worse than the parent's by at most the
  metric's bound, else the row is a **REGRESSION**;
* when the parent's own inter-quartile spread is wider than the bound the
  row is **unresolved** (not "unchanged"), unless every run of the change
  reads better than every run of the parent.

Exits non-zero when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from metrics import END_TO_END, WORKLOADS, Metric

__all__ = ["compare", "verdict"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: Metric, parent: list[float], change: list[float]) -> tuple[str, float, float]:
    """``(verdict, worsening, parent spread)``; shares of the parent median."""
    q1, _, q3 = quartiles(parent)
    base = statistics.median(parent)
    moved = statistics.median(change) - base
    if metric.better == "higher":
        moved = -moved
    if base:
        worsening, spread = moved / abs(base), (q3 - q1) / abs(base)
    else:   # a metric that is normally 0 (failed_ops_ratio): any rise is infinite
        worsening, spread = (float("inf") if moved > 0 else 0.0), 0.0
    if spread > metric.bound:
        all_better = (min(change) > max(parent) if metric.better == "higher"
                      else max(change) < min(parent))
        return ("ok" if all_better else "unresolved"), worsening, spread
    return ("REGRESSION" if worsening > metric.bound else "ok"), worsening, spread


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over a set of ``run.py`` result files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, entry in result["workloads"].items():
            for name, value in entry["end_to_end"].items():
                values.setdefault((workload, name), []).append(value)
    return values


def compare(parent_paths: list[str], change_paths: list[str]) -> int:
    parent, change = load(parent_paths), load(change_paths)
    regressions = 0
    print(f"{'workload':<11}{'metric':<28}{'parent q1/med/q3':>34}"
          f"{'change q1/med/q3':>34}{'worse':>8}{'spread':>8}  verdict")
    for metric in END_TO_END:
        for workload in WORKLOADS:
            key = (workload, metric.name)
            if key not in parent or key not in change:
                continue
            outcome, worsening, spread = verdict(metric, parent[key], change[key])
            regressions += outcome == "REGRESSION"
            sides = ["/".join(f"{q:.4g}" for q in quartiles(side[key]))
                     for side in (parent, change)]
            print(f"{workload:<11}{metric.name:<28}{sides[0]:>34}{sides[1]:>34}"
                  f"{100 * worsening:>7.1f}%{100 * spread:>7.1f}%  {outcome}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_paths, change_paths = argv[:split], argv[split + 1:]
    if not parent_paths or not change_paths:
        print("need at least one result file on each side of '--'", file=sys.stderr)
        return 2
    return compare(parent_paths, change_paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Telemetry capture cost — what a live hub adds to the wave hot path.

The telemetry layer follows the paper's probe discipline (Section 4.4.1)
for the runtime itself: while disabled, every instrumentation hook reduces
to a single ``telemetry is None`` check.  This benchmark *records* what
turning it on costs, by timing triggered-propagation waves through the
stock engine twice:

* ``disabled`` — telemetry detached (the shipped default); and
* ``enabled``  — a live telemetry hub capturing every wave event.

Rounds are interleaved (disabled, enabled, disabled, ...) so clock drift
and cache warmth hit both equally, and each configuration is scored by its
best round — the standard minimum-timing estimator for noise-prone boxes.
The number is informational: capturing events legitimately costs time.
Regressions of the *disabled* path are caught where they can be measured
against something real — the parent-vs-change run of ``benchmarks/e2e``
(the ``pipeline`` workload runs the same plan with telemetry off and on).

``build_workload`` / ``run_round`` are shared with ``bench_export.py`` and
``bench_fault_overhead.py``.

Usage::

    python benchmarks/bench_telemetry_overhead.py --output BENCH_telemetry.json

The module is a standalone script on purpose — it is not collected by the
tier-1 pytest run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

CHAIN_DEPTH = 16
WAVES_PER_ROUND = 1500
ROUNDS = 5

SRC = MetadataKey("bench.src")


class Owner:
    """Minimal registry owner (no query graph needed for pure waves)."""

    name = "bench"


def build_workload(policy=None):
    """One registry, an on-demand source and a CHAIN_DEPTH triggered chain.

    Every ``notify_changed(SRC)`` starts a wave that refreshes the whole
    chain (values strictly increase, so nothing is suppressed) — the
    hottest path the instrumentation touches.  ``policy`` attaches a
    failure policy (and hence a live circuit breaker) to every chain item.
    """
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock))
    owner = Owner()
    registry = MetadataRegistry(owner, system)
    state = {"value": 0}
    registry.define(MetadataDefinition(
        SRC, Mechanism.ON_DEMAND, compute=lambda ctx: state["value"],
    ))
    previous = SRC
    for i in range(CHAIN_DEPTH):
        key = MetadataKey(f"bench.t{i}")
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED,
            compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
            dependencies=[SelfDep(previous)], failure_policy=policy,
        ))
        previous = key
    subscription = registry.subscribe(previous)
    return registry, state, subscription


def run_round(registry, state, waves: int) -> float:
    """Time ``waves`` full propagation waves; returns seconds."""
    notify = registry.notify_changed
    t0 = time.perf_counter()
    for _ in range(waves):
        state["value"] += 1
        notify(SRC)
    return time.perf_counter() - t0


def measure() -> dict:
    workloads = {
        "disabled": build_workload(),
        "enabled": build_workload(),
    }
    # Large buffer so ring-drop accounting does not dominate the enabled
    # measurement.
    workloads["enabled"][0].system.enable_telemetry(capacity=65536)
    # Warmup: one short burst per engine so allocator and bytecode caches
    # are hot before the first timed round.
    for registry, state, _ in workloads.values():
        run_round(registry, state, 100)

    timings: dict[str, list[float]] = {name: [] for name in workloads}
    for _ in range(ROUNDS):
        for name, (registry, state, _) in workloads.items():
            timings[name].append(run_round(registry, state, WAVES_PER_ROUND))

    best = {name: min(rounds) for name, rounds in timings.items()}
    # Sanity: both engines did identical propagation work.
    stats = {name: wl[0].system.stats() for name, wl in workloads.items()}
    work_keys = ("waves", "refreshes", "suppressed", "errors")
    consistent = len({tuple(s[k] for k in work_keys) for s in stats.values()}) == 1

    return {
        "benchmark": "telemetry_overhead",
        "chain_depth": CHAIN_DEPTH,
        "waves_per_round": WAVES_PER_ROUND,
        "rounds": ROUNDS,
        "seconds_best": best,
        "seconds_all_rounds": timings,
        "waves_per_second_best": {
            name: WAVES_PER_ROUND / seconds for name, seconds in best.items()
        },
        "overhead_enabled_pct":
            100.0 * (best["enabled"] - best["disabled"]) / best["disabled"],
        "work_consistent": consistent,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_telemetry.json",
                        help="path of the JSON report (default: %(default)s)")
    args = parser.parse_args(argv)

    result = measure()
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")

    print(f"telemetry capture-cost benchmark "
          f"({CHAIN_DEPTH}-deep chain, {WAVES_PER_ROUND} waves/round, "
          f"best of {ROUNDS})")
    for name in ("disabled", "enabled"):
        print(f"  {name:<9} {result['seconds_best'][name] * 1e3:8.2f} ms  "
              f"({result['waves_per_second_best'][name]:,.0f} waves/s)")
    print(f"  enabled-capture overhead: {result['overhead_enabled_pct']:+.2f}% "
          f"of the disabled path (informational)")
    print(f"  report: {args.output}")
    if not result["work_consistent"]:
        print("FAIL: engines disagreed on propagation work", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

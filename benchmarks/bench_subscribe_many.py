#!/usr/bin/env python3
"""Batch subscription benchmark — ``subscribe_many`` vs a subscribe loop.

Installing a query that consumes dozens of metadata items is the paper's
subscription burst (Section 3.1): every item's transitive include closure
must be resolved under the registry's structure lock.  The per-key path
pays one graph write-lock acquisition (and, with telemetry on, one causal
span) per subscribe; :meth:`MetadataRegistry.subscribe_many` resolves the
whole batch under a single acquisition.

The workload is ``QUERIES`` triggered items sharing one ``DEPTH``-deep
dependency chain — the first subscription includes the closure, the rest
are reference-count bumps, so the measured difference is almost purely the
per-call locking/bookkeeping overhead that batching removes.  Expect a
modest, stable ratio (~1.2x), not a blockbuster: the benchmark exists to
*hold* that ground (a regression here means a per-key cost crept into the
batch path).

Both paths must agree on the resulting structure: same handler count, same
include counts, same subscription order.

Usage::

    python benchmarks/bench_subscribe_many.py --check \
        --output BENCH_subscribe_many.json

Standalone on purpose — not collected by tier-1 pytest
(``testpaths = ["tests"]``); ``benchmarks/runner.py`` folds its metrics
into ``BENCH_subscription.json``.
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

DEPTH = 50      # shared dependency chain under every query item
QUERIES = 200   # items subscribed per round
ROUNDS = 5      # best-of rounds (fresh registry each round)
GATE_MIN_SPEEDUP = 1.0  # batching must never be slower than the loop


class _Owner:
    name = "bench"


def build_registry():
    """Fresh registry: a DEPTH-deep shared chain + QUERIES query items."""
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock))
    registry = MetadataRegistry(_Owner(), system)
    base = MetadataKey("bench.base")
    registry.define(MetadataDefinition(base, Mechanism.STATIC, value=1))
    previous = base
    for i in range(DEPTH):
        key = MetadataKey(f"bench.c{i}")
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED,
            compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
            dependencies=[SelfDep(previous)],
        ))
        previous = key
    query_keys = []
    for i in range(QUERIES):
        key = MetadataKey(f"bench.q{i}")
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED,
            compute=lambda ctx, dep=previous: ctx.value(dep) * 2,
            dependencies=[SelfDep(previous)],
        ))
        query_keys.append(key)
    return registry, query_keys


def _structure_fingerprint(registry, subscriptions) -> dict:
    keys = registry.included_keys()
    return {
        "handler_count": len(keys),
        "include_counts": sorted(
            registry.handler(k).include_count for k in keys),
        "subscription_keys": [str(s.key) for s in subscriptions],
    }


def measure() -> dict:
    results: dict[str, dict] = {}
    for mode in ("loop", "batch"):
        best = float("inf")
        fingerprint = None
        for _ in range(ROUNDS):
            registry, query_keys = build_registry()
            t0 = time.perf_counter()
            if mode == "loop":
                subscriptions = [registry.subscribe(k) for k in query_keys]
            else:
                subscriptions = registry.subscribe_many(query_keys)
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
            fingerprint = _structure_fingerprint(registry, subscriptions)
        results[mode] = {
            "seconds_best": best,
            "subscribes_per_second": QUERIES / best,
            "fingerprint": fingerprint,
        }
    equivalent = (results["loop"]["fingerprint"]
                  == results["batch"]["fingerprint"])
    speedup = (results["loop"]["seconds_best"]
               / results["batch"]["seconds_best"])
    return {
        "benchmark": "subscribe_many",
        "depth": DEPTH,
        "queries": QUERIES,
        "rounds": ROUNDS,
        "results": results,
        "equivalent": equivalent,
        "metrics": {
            "subscribe_many_speedup": speedup,
            "batch_subscribes_per_second":
                results["batch"]["subscribes_per_second"],
        },
        "passed": equivalent and speedup >= GATE_MIN_SPEEDUP,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_subscribe_many.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when batching is slower than the "
                             "loop or the structures diverge")
    args = parser.parse_args(argv)

    result = measure()
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")

    print(f"subscribe_many benchmark ({QUERIES} query items over a "
          f"{DEPTH}-deep shared chain, best of {ROUNDS})")
    for mode, data in result["results"].items():
        print(f"  {mode:<6} {data['seconds_best'] * 1e3:8.2f} ms  "
              f"({data['subscribes_per_second']:,.0f} subscribes/s)")
    print(f"  speedup: {result['metrics']['subscribe_many_speedup']:.2f}x  "
          f"structures equivalent: {result['equivalent']}")
    print(f"  report: {args.output}")

    if args.check and not result["passed"]:
        reason = ("loop and batch subscription produced different structures"
                  if not result["equivalent"]
                  else "subscribe_many slower than the per-key loop")
        print(f"FAIL: {reason}", file=sys.stderr)
        return 1
    print("PASS" if result["passed"] else "(informational run, no --check)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

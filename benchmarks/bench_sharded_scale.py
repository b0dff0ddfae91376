#!/usr/bin/env python3
"""Sharded-graph scaling benchmark — the contention gate for ISSUE 10.

The single-shard runtime funnels every structural mutation (subscribe,
cancel) through one graph write lock.  Under multi-threaded churn the lock
becomes a convoy: every release wakes every waiter (the RW lock's
writer-preference handoff is a ``notify_all``), one proceeds, the rest go
back to sleep — overhead that grows with the number of waiters and throttles
the wave pipeline running between the structural operations.

This benchmark drives the identical churn workload at 1/2/4/8 shards:

* **Workload** — 8 worker threads, one registry each, placed round-robin
  across shards.  Each op is subscribe(chain tail) -> notify storms over the
  chain -> cancel.  Dependencies are node-local, so the workload isolates
  *structural* contention: with 8 shards every thread owns its shard's graph
  lock outright, with 1 shard all eight serialize on the same lock.
* **Throughput** — aggregate wave throughput (engine ``waves`` counter over
  wall time).  Gate: >= 3x single-shard at 8 shards.
* **Lock waits** — contended wait-seconds of the hottest graph-level lock
  (``LockStats.wait_seconds``).  Gate: >= 5x reduction at 8 shards.
* **Drainer** (recorded, not gated, not compared to a baseline) — one
  propagation engine orders every wave at every shard count.  4 threads
  fire waves down node-local chains whose compute sleeps (releasing the
  GIL) at 1 and at 4 shards; equal waves/s at both is the evidence that
  per-shard drainers would buy nothing: coalescing on the one drainer makes
  up for the lost overlap.

Cross-shard accounting (cached/uncached x traced/untraced agree, and the
shard count changes no counter or value) is a tier-1 test:
``tests/metadata/test_wave_poisoning.py::TestRandomDagProperty``.

Usage::

    python benchmarks/bench_sharded_scale.py --check --output BENCH_sharded_scale.json

Standalone on purpose (not collected by tier-1 pytest);
``benchmarks/runner.py`` folds the metrics into ``BENCH_sharded.json`` as
suite ``sharded``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

THREADS = 8
SHARD_COUNTS = (1, 2, 4, 8)
CHAIN = 3                 # triggered items behind each node's source
OPS_PER_THREAD = 40       # subscribe -> notify -> cancel cycles per round
NOTIFIES_PER_OP = 2       # waves fired while the chain is subscribed
ROUNDS = 3                # best-of rounds per shard count
#: Inclusion-time cost of each node's static setup item: the initial
#: computation samples node state (simulated as a short GIL-releasing I/O
#: read, like a real monitoring probe).  It runs *inside* the graph-lock
#: critical section, which is what makes the workload contention-bound:
#: with one shard, every thread's setup serializes behind one lock; with
#: per-shard locks the same reads overlap.
SETUP_SECONDS = 0.0015

DRAINER_THREADS = 4
DRAINER_SHARDS = (1, 4)
DRAINER_WAVES_PER_THREAD = 100
DRAINER_SLEEP_SECONDS = 0.0002  # per chain-item compute, GIL released

GATE_THROUGHPUT_8 = 3.0   # aggregate waves/s at 8 shards vs single shard
GATE_WAIT_REDUCTION = 5.0  # hottest graph-lock wait-seconds drop at 8 shards
WAIT_EPS = 1e-6           # a fully idle shard lock reports ~0 wait

SRC = MetadataKey("bench.src")


class _Node:
    """Registry owner whose name encodes its round-robin shard slot."""

    def __init__(self, index: int) -> None:
        self.name = f"node{index}"
        self.index = index


def _round_robin(owner, shards: int) -> int:
    return owner.index % shards


# ---------------------------------------------------------------------------
# Contention workload
# ---------------------------------------------------------------------------


def build_churn_system(shards: int):
    """One registry per thread, round-robin across ``shards`` shards.

    Returns ``(system, registries, tails, states, graph_locks)``; each
    registry holds a node-local SRC -> CHAIN triggered pipeline (no boundary
    edges — the workload isolates structural lock contention).
    """
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                            FineGrainedLockPolicy(), shards=shards,
                            placement=_round_robin)
    graph_locks = list(system.shard_locks)
    setup = MetadataKey("bench.setup")
    registries, tails, states = [], [], []
    for index in range(THREADS):
        registry = MetadataRegistry(_Node(index), system)
        state = {"v": 0}
        registry.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND,
            compute=lambda ctx, state=state: state["v"],
        ))
        # Static: computed once per inclusion, under the graph lock — the
        # contention-bound part of every subscribe.
        registry.define(MetadataDefinition(
            setup, Mechanism.STATIC,
            compute=lambda ctx: time.sleep(SETUP_SECONDS) or 1,
        ))
        previous = SRC
        for depth in range(CHAIN):
            key = MetadataKey(f"bench.c{depth}")
            deps = [SelfDep(previous)]
            if depth == CHAIN - 1:
                deps.append(SelfDep(setup))
            registry.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
                dependencies=deps,
            ))
            previous = key
        registries.append(registry)
        tails.append(previous)
        states.append(state)
    return system, registries, tails, states, graph_locks


def _churn_worker(registry, tail, state, start: threading.Barrier) -> None:
    start.wait()
    for _ in range(OPS_PER_THREAD):
        subscription = registry.subscribe(tail)
        for _ in range(NOTIFIES_PER_OP):
            state["v"] += 1
            registry.notify_changed(SRC)
        subscription.cancel()


def measure_shard_count(shards: int) -> dict:
    """Best-of-ROUNDS churn run at one shard count."""
    system, registries, tails, states, graph_locks = build_churn_system(shards)
    best_seconds = float("inf")
    for _ in range(ROUNDS):
        start = threading.Barrier(THREADS + 1)
        workers = [
            threading.Thread(
                target=_churn_worker,
                args=(registries[i], tails[i], states[i], start),
                name=f"churn-{i}")
            for i in range(THREADS)
        ]
        for worker in workers:
            worker.start()
        start.wait()
        t0 = time.perf_counter()
        for worker in workers:
            worker.join()
        best_seconds = min(best_seconds, time.perf_counter() - t0)
    stats = system.propagation.stats()
    waves_total = stats["waves"]
    waves_per_round = THREADS * OPS_PER_THREAD * NOTIFIES_PER_OP
    lock_waits = {lock.name: lock.stats.wait_seconds for lock in graph_locks}
    return {
        "shards": shards,
        "seconds_best": best_seconds,
        "waves_per_round": waves_per_round,
        "waves_per_second": waves_per_round / best_seconds,
        "waves_total": waves_total,
        "waves_exact": waves_total == waves_per_round * ROUNDS,
        "graph_lock_waits": lock_waits,
        "hottest_wait_seconds": max(lock_waits.values()),
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# Drainer workload (recorded only)
# ---------------------------------------------------------------------------


def measure_drainer(shards: int) -> dict:
    """Waves/s of ``DRAINER_THREADS`` writers on node-local sleeping chains."""
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                            FineGrainedLockPolicy(), shards=shards,
                            placement=_round_robin)
    registries, states, subscriptions = [], [], []
    for index in range(DRAINER_THREADS):
        registry = MetadataRegistry(_Node(index), system)
        state = {"v": 0}
        registry.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND,
            compute=lambda ctx, state=state: state["v"]))
        previous = SRC
        for depth in range(CHAIN):
            key = MetadataKey(f"bench.c{depth}")
            registry.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=previous: (
                    time.sleep(DRAINER_SLEEP_SECONDS) or ctx.value(dep) + 1),
                dependencies=[SelfDep(previous)]))
            previous = key
        subscriptions.append(registry.subscribe(previous))
        registries.append(registry)
        states.append(state)

    def writer(registry, state, start: threading.Barrier) -> None:
        start.wait()
        for _ in range(DRAINER_WAVES_PER_THREAD):
            state["v"] += 1
            registry.notify_changed(SRC)

    start = threading.Barrier(DRAINER_THREADS + 1)
    workers = [threading.Thread(target=writer, args=(registry, state, start),
                                name=f"drainer-{index}")
               for index, (registry, state)
               in enumerate(zip(registries, states))]
    for worker in workers:
        worker.start()
    start.wait()
    t0 = time.perf_counter()
    for worker in workers:
        worker.join()
    seconds = time.perf_counter() - t0
    stats = system.propagation.stats()
    for subscription in subscriptions:
        subscription.cancel()
    waves = DRAINER_THREADS * DRAINER_WAVES_PER_THREAD
    return {
        "shards": shards,
        "seconds": seconds,
        "waves_per_second": waves / seconds,
        "waves_exact": stats["waves"] == waves,
        "drains": stats["drains"],
        "refreshes": stats["refreshes"],
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def measure() -> dict:
    scaling = {shards: measure_shard_count(shards) for shards in SHARD_COUNTS}
    base = scaling[1]
    throughput_scaling = {
        shards: scaling[shards]["waves_per_second"] / base["waves_per_second"]
        for shards in SHARD_COUNTS
    }
    wait_reduction = base["hottest_wait_seconds"] / max(
        scaling[8]["hottest_wait_seconds"], WAIT_EPS)
    drainer = {shards: measure_drainer(shards) for shards in DRAINER_SHARDS}
    waves_exact = all(s["waves_exact"] for s in
                      (*scaling.values(), *drainer.values()))
    passed = (throughput_scaling[8] >= GATE_THROUGHPUT_8
              and wait_reduction >= GATE_WAIT_REDUCTION
              and waves_exact)
    return {
        "benchmark": "sharded_scale",
        "threads": THREADS,
        "ops_per_thread": OPS_PER_THREAD,
        "notifies_per_op": NOTIFIES_PER_OP,
        "rounds": ROUNDS,
        "gates": {"throughput_scaling_8": GATE_THROUGHPUT_8,
                  "wait_reduction_8": GATE_WAIT_REDUCTION},
        "scaling": {str(k): v for k, v in scaling.items()},
        "drainer": {str(k): v for k, v in drainer.items()},
        "waves_exact": waves_exact,
        "metrics": {
            "throughput_scaling_2": throughput_scaling[2],
            "throughput_scaling_4": throughput_scaling[4],
            "throughput_scaling_8": throughput_scaling[8],
            "wait_reduction_8": wait_reduction,
            "waves_per_second_8": scaling[8]["waves_per_second"],
            **{f"drainer_waves_per_second_{shards}": data["waves_per_second"]
               for shards, data in drainer.items()},
        },
        "passed": passed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_sharded_scale.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a scaling gate fails")
    args = parser.parse_args(argv)

    result = measure()
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")

    print(f"sharded scaling benchmark ({THREADS} threads, "
          f"{OPS_PER_THREAD} ops/thread, best of {ROUNDS})")
    for shards_str, data in result["scaling"].items():
        scale = result["metrics"].get(f"throughput_scaling_{shards_str}", 1.0)
        print(f"  {shards_str:>2} shard(s): "
              f"{data['waves_per_second']:>10,.0f} waves/s  "
              f"({scale:4.2f}x)   hottest graph-lock wait "
              f"{data['hottest_wait_seconds']*1e3:8.1f} ms")
    for shards_str, data in result["drainer"].items():
        print(f"  drainer, {shards_str} shard(s): "
              f"{data['waves_per_second']:>10,.0f} waves/s  "
              f"({data['drains']} drains, recorded only)")
    print(f"  wait reduction @8:  {result['metrics']['wait_reduction_8']:.1f}x "
          f"(gate >= {GATE_WAIT_REDUCTION}x)")
    print(f"  throughput @8:      {result['metrics']['throughput_scaling_8']:.2f}x "
          f"(gate >= {GATE_THROUGHPUT_8}x)")
    print(f"  report: {args.output}")

    if args.check and not result["passed"]:
        if not result["waves_exact"]:
            reason = "a round lost or duplicated waves"
        elif result["metrics"]["throughput_scaling_8"] < GATE_THROUGHPUT_8:
            reason = "8-shard wave throughput below the 3x gate"
        else:
            reason = "8-shard lock-wait reduction below the 5x gate"
        print(f"FAIL: {reason}", file=sys.stderr)
        return 1
    print("PASS" if result["passed"] else "(informational run, no --check)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

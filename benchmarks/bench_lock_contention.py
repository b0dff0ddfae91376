"""Graph-lock contention suite — the contention gate on one lock.

Every structural mutation (subscribe, cancel) takes the system's one graph
write lock.  An include links its closure under that lock and runs the new
handlers' initial computations after releasing it, so a slow initial
computation must not serialize unrelated subscribes.

* **Workload** — 1 and then 8 worker threads, one registry each.  Each op is
  subscribe(chain tail) -> notify storms over the chain -> cancel.  The
  chain's tail reads a static setup item whose initial computation samples
  node state (a short GIL-releasing read, like a real monitoring probe), so
  every subscribe pays ``SETUP_SECONDS`` of initial computation.
* **Throughput** — aggregate wave throughput (engine ``waves`` counter over
  wall time) at 8 threads against 1 thread.
* **Lock waits** — share of the threads' time spent waiting for the graph
  lock, ``wait_s / (threads x wall_s)``, at 8 threads.
* Every round's waves are counted exactly (``waves_exact``); that is
  ``passed``.  ``benchmarks/runner.py`` (suite ``contention``) gates the
  scaling and the wait share.
"""

from __future__ import annotations

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

THREAD_COUNTS = (1, 8)
CHAIN = 3                 # triggered items behind each node's source
OPS_PER_THREAD = 40       # subscribe -> notify -> cancel cycles per round
NOTIFIES_PER_OP = 2       # waves fired while the chain is subscribed
ROUNDS = 3                # best-of rounds per thread count
#: Initial-computation cost of each node's static setup item.
SETUP_SECONDS = 0.0015

SRC = MetadataKey("bench.src")


class _Node:
    def __init__(self, index: int) -> None:
        self.name = f"node{index}"


def build_churn_system(threads: int):
    """One registry per thread, each with a node-local SRC -> CHAIN
    triggered pipeline whose tail reads the static setup item.

    Returns ``(system, registries, tails, states)``.
    """
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                            FineGrainedLockPolicy())
    setup = MetadataKey("bench.setup")
    registries, tails, states = [], [], []
    for index in range(threads):
        registry = MetadataRegistry(_Node(index), system)
        state = {"v": 0}
        registry.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND,
            compute=lambda ctx, state=state: state["v"],
        ))
        # Static: computed once per inclusion.
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
    return system, registries, tails, states


def _churn_worker(registry, tail, state, start: threading.Barrier) -> None:
    start.wait()
    for _ in range(OPS_PER_THREAD):
        subscription = registry.subscribe(tail)
        for _ in range(NOTIFIES_PER_OP):
            state["v"] += 1
            registry.notify_changed(SRC)
        subscription.cancel()


def measure_threads(threads: int) -> dict:
    """Best-of-ROUNDS churn run with ``threads`` worker threads."""
    system, registries, tails, states = build_churn_system(threads)
    best_seconds = float("inf")
    wall_seconds = 0.0
    for _ in range(ROUNDS):
        start = threading.Barrier(threads + 1)
        workers = [
            threading.Thread(
                target=_churn_worker,
                args=(registries[i], tails[i], states[i], start),
                name=f"churn-{i}")
            for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        start.wait()
        t0 = time.perf_counter()
        for worker in workers:
            worker.join()
        seconds = time.perf_counter() - t0
        wall_seconds += seconds
        best_seconds = min(best_seconds, seconds)
    stats = system.propagation.stats()
    waves_per_round = threads * OPS_PER_THREAD * NOTIFIES_PER_OP
    wait_seconds = system.structure_lock.stats.wait_seconds
    return {
        "threads": threads,
        "seconds_best": best_seconds,
        "seconds_total": wall_seconds,
        "waves_per_round": waves_per_round,
        "waves_per_second": waves_per_round / best_seconds,
        "waves_total": stats["waves"],
        "waves_exact": stats["waves"] == waves_per_round * ROUNDS,
        "graph_lock_wait_seconds": wait_seconds,
        "graph_lock_wait_share": wait_seconds / (threads * wall_seconds),
        "stats": stats,
    }


def measure() -> dict:
    runs = {threads: measure_threads(threads) for threads in THREAD_COUNTS}
    scaling = runs[8]["waves_per_second"] / runs[1]["waves_per_second"]
    wait_share = runs[8]["graph_lock_wait_share"]
    waves_exact = all(run["waves_exact"] for run in runs.values())
    return {
        "benchmark": "lock_contention",
        "ops_per_thread": OPS_PER_THREAD,
        "notifies_per_op": NOTIFIES_PER_OP,
        "rounds": ROUNDS,
        "setup_seconds": SETUP_SECONDS,
        "runs": {str(k): v for k, v in runs.items()},
        "waves_exact": waves_exact,
        "metrics": {
            "throughput_scaling_8": scaling,
            "wait_share_8": wait_share,
            "waves_per_second_1": runs[1]["waves_per_second"],
            "waves_per_second_8": runs[8]["waves_per_second"],
        },
        "passed": waves_exact,
    }

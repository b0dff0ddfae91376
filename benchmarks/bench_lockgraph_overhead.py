"""Lock-observer overhead record — what recording lock order costs.

The deadlock sanitizer (``repro.analysis.lockgraph``) watches every
``ReentrantRWLock`` acquisition through a process-wide observer hook.
While **no** observer is installed (the shipped default) the hook is one
module-global ``is None`` check on the lock's fast path; with one installed
every acquisition takes the slow body and calls back.  This benchmark
records both by timing uncontended read/write lock-unlock pairs through:

* ``disabled``  — the stock :class:`ReentrantRWLock` with no observer
  installed (the shipped default); and
* ``recording`` — the same lock with a live
  :class:`~repro.analysis.lockgraph.LockOrderRecorder` (stack capture off).

Rounds are interleaved so clock drift and cache warmth hit both equally;
each configuration is scored by its best round.  ``benchmarks/runner.py``
(suite ``lockgraph``) records the numbers and gates only ``passed``: both
locks made the same acquisitions.  The absolute cost of the uncontended
path is covered end to end by ``benchmarks/e2e`` (three of its four
workloads run ``FineGrainedLockPolicy``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.lockgraph import LockOrderRecorder
from repro.common.rwlock import ReentrantRWLock

READ_PAIRS_PER_ROUND = 120_000
WRITE_PAIRS_PER_ROUND = 12_000
ROUNDS = 5


def run_round(lock: ReentrantRWLock, read_pairs: int, write_pairs: int) -> float:
    """Time uncontended read and write lock/unlock pairs; returns seconds."""
    acquire_read = lock.acquire_read
    release_read = lock.release_read
    acquire_write = lock.acquire_write
    release_write = lock.release_write
    t0 = time.perf_counter()
    for _ in range(read_pairs):
        acquire_read()
        release_read()
    for _ in range(write_pairs):
        acquire_write()
        release_write()
    return time.perf_counter() - t0


def measure() -> dict:
    locks = {
        "disabled": ReentrantRWLock("bench:disabled"),
        "recording": ReentrantRWLock("bench:recording"),
    }
    recorder = LockOrderRecorder(capture_stacks=False)

    # Warmup: a short burst per lock so caches are hot before timing.
    for lock in locks.values():
        run_round(lock, 2000, 200)

    timings: dict[str, list[float]] = {name: [] for name in locks}
    for _ in range(ROUNDS):
        for name, lock in locks.items():
            if name == "recording":
                with recorder.session(instrument_blocking=False):
                    seconds = run_round(
                        lock, READ_PAIRS_PER_ROUND, WRITE_PAIRS_PER_ROUND)
            else:
                seconds = run_round(
                    lock, READ_PAIRS_PER_ROUND, WRITE_PAIRS_PER_ROUND)
            timings[name].append(seconds)

    best = {name: min(rounds) for name, rounds in timings.items()}
    overhead_recording_pct = (
        100.0 * (best["recording"] - best["disabled"]) / best["disabled"])

    pairs = READ_PAIRS_PER_ROUND + WRITE_PAIRS_PER_ROUND
    # Sanity: every lock did identical acquisition work per round.
    counts = {
        name: lock.stats.read_acquired + lock.stats.write_acquired
        for name, lock in locks.items()
    }
    consistent = len(set(counts.values())) == 1

    return {
        "benchmark": "lockgraph_overhead",
        "read_pairs_per_round": READ_PAIRS_PER_ROUND,
        "write_pairs_per_round": WRITE_PAIRS_PER_ROUND,
        "rounds": ROUNDS,
        "seconds_best": best,
        "seconds_all_rounds": timings,
        "pairs_per_second_best": {
            name: pairs / seconds for name, seconds in best.items()
        },
        "overhead_recording_pct": overhead_recording_pct,
        "recorded_acquisitions": recorder.acquisitions,
        "work_consistent": consistent,
        "metrics": {"overhead_recording_pct": overhead_recording_pct},
        "passed": consistent,
    }

#!/usr/bin/env python3
"""Deadlock sanitizer demo — a deliberately mis-ordered pair of locks.

Two code paths of a little two-shard cache take the same two node-level
locks in *opposite* orders — the textbook AB/BA deadlock shape.  The demo
never actually deadlocks (the two paths run one after the other), which is
exactly the point: the runtime sanitizer records the **lock-order graph**
from real executions and reports the cycle as **LD001** even though the
fatal interleaving never happened, with both acquisition stacks per edge.

The second half is the static twin: a mis-wired registry whose compute
path, while holding its item-level ``_lock``, calls a helper that takes the
graph-level ``structure_lock`` — invisible inside either function alone, but
the static lock pass follows the call and reports **LK007** with the full
call chain.  The registry is kept as source text and linted in memory, so
this file itself stays clean under the repository's self-lint.

Run with::

    python examples/deadlock_demo.py
"""

from __future__ import annotations

import threading

from repro.analysis.lockcheck import lint_source
from repro.analysis.lockgraph import record_locks
from repro.analysis.report import render_text
from repro.common.rwlock import ReentrantRWLock


class MisorderedCache:
    """Two shard locks taken in opposite orders by the two rebalance paths."""

    def __init__(self) -> None:
        self.left = ReentrantRWLock("node:left")
        self.right = ReentrantRWLock("node:right")
        self.counters = {"left": 0, "right": 0}

    def rebalance_left_first(self) -> None:
        with self.left.write():
            with self.right.write():
                self.counters["left"] += 1

    def rebalance_right_first(self) -> None:
        with self.right.write():
            with self.left.write():
                self.counters["right"] += 1


#: A compute path that re-enters the graph level under its item lock.
MISWIRED_REGISTRY = """\
from repro.common.rwlock import ReentrantRWLock


class MiswiredRegistry:
    def __init__(self) -> None:
        self.structure_lock = ReentrantRWLock("graph")
        self._lock = ReentrantRWLock("item:demo")
        self.entries: dict[str, bool] = {}

    def _register_globally(self, key: str) -> None:
        with self.structure_lock.write():
            self.entries[key] = True

    def compute_under_item_lock(self, key: str) -> None:
        with self._lock.write():
            # One frame down this becomes a graph-lock acquisition — no
            # single function shows it; LK007 follows the call.
            self._register_globally(key)
"""


def main() -> None:
    print("== deadlock sanitizer walkthrough ==")

    # -- runtime half: record real executions, find the cycle --------------
    cache = MisorderedCache()
    with record_locks() as recorder:
        for name, path in (("rebalance-1", cache.rebalance_left_first),
                           ("rebalance-2", cache.rebalance_right_first)):
            worker = threading.Thread(name=name, target=path)
            worker.start()
            worker.join()
    runtime_findings = recorder.findings()
    print()
    print("== runtime lock-order recording "
          f"({recorder.acquisitions} acquisitions, no deadlock occurred) ==")
    print(render_text(runtime_findings, verbose=True))

    # -- static half: the lock pass over the mis-wired registry ------------
    static_findings = lint_source(MISWIRED_REGISTRY, "miswired_registry.py")
    print()
    print("== static lock pass over miswired_registry.py ==")
    print(render_text(static_findings, verbose=True))

    codes = sorted({f.code for f in runtime_findings}
                   | {f.code for f in static_findings})
    print()
    print(f"codes raised: {', '.join(codes)}")


if __name__ == "__main__":
    main()

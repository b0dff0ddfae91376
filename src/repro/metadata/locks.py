"""Lock policies for the three-level locking scheme of Section 4.2.

PIPES controls concurrent access with "three different types of reentrant
read-write locks ... at graph-, operator-, and metadata level", and only the
locks of *currently included* metadata items are ever touched (Section 4.3).

The policy object decides what those locks physically are:

* :class:`FineGrainedLockPolicy` — one :class:`ReentrantRWLock` per graph, per
  node and per metadata item (the paper's design).
* :class:`CoarseLockPolicy` — a single global lock shared by every level; the
  ablation baseline for the lock-granularity benchmark (experiment E9).
* :class:`NoOpLockPolicy` — no locking at all, for single-threaded
  deterministic simulation where locks would only add overhead.

All three expose the same interface, so executors and registries are agnostic
to the policy in use.

Lock hierarchy
--------------

Threads must acquire locks in the fixed order **graph → node → item**
(:data:`LOCK_HIERARCHY`) and must never wait for an earlier level while
holding a later one.  Two corollaries the runtime relies on:

* propagation waves and value reads never take the graph lock — they work on
  lock-free snapshots (``MetadataHandler.dependents()``, dict reads) so they
  can run while holding item locks;
* compute functions execute under their handler's item write lock and
  therefore must never subscribe, cancel subscriptions, define items, or do
  anything else that needs the graph lock.

See the "Concurrency model" section of docs/METADATA_GUIDE.md.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable

from repro.common.rwlock import LockStats, ReentrantRWLock

__all__ = [
    "LOCK_HIERARCHY",
    "LockPolicy",
    "FineGrainedLockPolicy",
    "CoarseLockPolicy",
    "NoOpLockPolicy",
    "NoOpLock",
]

#: Fixed acquisition order of the three locking levels (Section 4.2); a
#: thread may only request a lock whose level comes *after* every level it
#: already holds.
LOCK_HIERARCHY: tuple[str, ...] = ("graph", "node", "item")


class _NullGuard:
    """``with`` target that does nothing; every :class:`NoOpLock` shares one."""

    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass


_NULL_GUARD = _NullGuard()


class NoOpLock:
    """Lock-shaped object that does nothing; :class:`NoOpLockPolicy` hands
    out one shared instance for every level."""

    __slots__ = ()

    def read(self) -> _NullGuard:
        return _NULL_GUARD

    def write(self) -> _NullGuard:
        return _NULL_GUARD

    def acquire_read(self, timeout: float | None = None) -> bool:
        return True

    def release_read(self) -> None:
        pass

    def acquire_write(self, timeout: float | None = None) -> bool:
        return True

    def release_write(self) -> None:
        pass

    def held_by_current_thread(self) -> str | None:
        """Interface parity with :class:`ReentrantRWLock`; never held."""
        return None


class LockPolicy:
    """Interface of lock policies; also usable as a registry of created locks."""

    def graph_lock(self) -> Any:
        raise NotImplementedError

    def node_lock(self, owner: Any) -> Any:
        raise NotImplementedError

    def item_lock(self, handler: Any) -> Any:
        raise NotImplementedError

    def retire(self, lock: Any) -> None:
        """``lock`` left service — the registry calls this when the handler
        it guarded leaves (exclusion at refcount zero, or a failed include
        being rolled back).  A no-op unless the policy tracks its locks."""

    def aggregate_stats(self) -> LockStats:
        """Combined counters of every real lock this policy handed out,
        retired ones included."""
        return LockStats()

    def hot_locks(self, limit: int = 5) -> list[dict[str, Any]]:
        """Per-lock counters of the busiest live locks — ordered by
        cumulative wait time, then contended acquisitions — so hot spots are
        visible.  Empty for policies without per-lock accounting."""
        return []


class FineGrainedLockPolicy(LockPolicy):
    """One reentrant RW lock per graph, node and included item (the paper).

    The policy tracks the locks in service so it can report on them; a
    retired lock is forgotten and only its counters live on, folded into one
    running total, so a system that churns handlers does not accumulate
    their locks.
    """

    def __init__(self) -> None:
        # Readers (aggregate_stats, hot_locks) take no graph lock, so the
        # bookkeeping has its own (leaf) mutex.
        self._mutex = threading.Lock()
        self._locks: dict[ReentrantRWLock, None] = {}  # insertion-ordered set
        self._retired = LockStats()

    def _new(self, name: "str | Callable[[], str]") -> ReentrantRWLock:
        lock = ReentrantRWLock(name)
        with self._mutex:
            self._locks[lock] = None
        return lock

    def graph_lock(self) -> ReentrantRWLock:
        return self._new("graph")

    def node_lock(self, owner: Any) -> ReentrantRWLock:
        return self._new(f"node:{getattr(owner, 'name', owner)!s}")

    def item_lock(self, handler: Any) -> ReentrantRWLock:
        # Named from the key when a report first reads the name.
        return self._new(functools.partial("item:{!r}".format, handler.key))

    def retire(self, lock: ReentrantRWLock) -> None:
        with self._mutex:
            if lock in self._locks:
                del self._locks[lock]
                self._retired.add(lock.stats)

    def aggregate_stats(self) -> LockStats:
        with self._mutex:
            total = self._retired.snapshot()
            for lock in self._locks:
                total.add(lock.stats)
        return total

    def hot_locks(self, limit: int = 5) -> list[dict[str, Any]]:
        with self._mutex:
            used = [lock for lock in self._locks
                    if lock.stats.read_acquired or lock.stats.write_acquired]
        used.sort(key=lambda lock: (lock.stats.wait_seconds,
                                    lock.stats.contended,
                                    lock.stats.read_acquired
                                    + lock.stats.write_acquired),
                  reverse=True)
        return [{"name": lock.name, **lock.stats.to_dict()}
                for lock in used[:limit]]

    @property
    def lock_count(self) -> int:
        return len(self._locks)


class CoarseLockPolicy(LockPolicy):
    """A single global lock for every level — the scalability anti-pattern."""

    def __init__(self) -> None:
        self._lock = ReentrantRWLock("global")

    def graph_lock(self) -> ReentrantRWLock:
        return self._lock

    def node_lock(self, owner: Any) -> ReentrantRWLock:
        return self._lock

    def item_lock(self, handler: Any) -> ReentrantRWLock:
        return self._lock

    def aggregate_stats(self) -> LockStats:
        return self._lock.stats.snapshot()

    def hot_locks(self, limit: int = 5) -> list[dict[str, Any]]:
        stats = self._lock.stats
        if not (stats.read_acquired or stats.write_acquired):
            return []
        return [{"name": self._lock.name, **stats.to_dict()}]


_NO_LOCK = NoOpLock()


class NoOpLockPolicy(LockPolicy):
    """No locking; correct only for single-threaded execution.  Every graph,
    node and item shares one stateless :class:`NoOpLock`."""

    def graph_lock(self) -> NoOpLock:
        return _NO_LOCK

    def node_lock(self, owner: Any) -> NoOpLock:
        return _NO_LOCK

    def item_lock(self, handler: Any) -> NoOpLock:
        return _NO_LOCK

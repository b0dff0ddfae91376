"""Reentrant read-write locks.

Section 4.2 of the paper describes PIPES' locking scheme: "three different
types of reentrant read-write locks controlling access at graph-, operator-,
and metadata level".  Python's standard library offers no read-write lock, so
this module implements one from scratch with the semantics the paper needs:

* **Reentrant** for both readers and writers: a thread may nest read locks
  inside read locks and write locks inside write locks.
* **Downgrade allowed**: a thread holding the write lock may additionally take
  the read lock (the write lock already excludes everyone else); releasing
  the write lock first leaves the thread a plain reader.
* **Upgrade rejected**: a thread holding only a read lock must not request the
  write lock — granting it could deadlock two upgrading readers, so
  :class:`~repro.common.errors.LockUpgradeError` is raised instead.
* **Writer preference**: once a writer is waiting, new readers queue behind it
  so that metadata updates are not starved by a stream of monitoring reads.

One lock per *included* metadata item only scales if taking a free lock is
nearly free, so the module is organised around that case.

Fast path
---------

All state — the writer's thread ident and depth, a ``thread ident → read
depth`` dict, the waiter counts and the :class:`LockStats` counters — is
guarded by one plain ``threading.Lock``.  An acquisition that can be granted
at once (the lock is free, or the caller already holds it) is a single
round trip through that mutex; a release that nobody waits for is another.
``read()`` / ``write()`` hand out one reusable guard per lock instead of
building a context manager per call.

Slow path
---------

Everything else — a conflicting holder, a writer queued ahead of a new
reader, a timeout, a rejected upgrade — runs through one slow body per mode.
The ``threading.Condition`` waiters sleep on is built over the same mutex the
first time anybody has to wait, ``notify_all`` runs only while the waiter
count is non-zero, and ``timeout`` is an absolute monotonic deadline across
all wait rounds.  The lock counts acquisitions, contention events and the
wall-clock time spent in those waits, which the locking benchmark
(experiment E9) and ``describe_system()``'s hot-lock view report.

Observer
--------

A process-wide **acquisition observer** (see
:class:`repro.analysis.lockgraph.LockOrderRecorder`) can be installed with
:meth:`ReentrantRWLock.install_observer`; the deadlock sanitizer builds its
runtime lock-order graph from its callbacks.  While one is installed every
acquisition takes the slow body, which reports each successful
acquire/release *outside* the mutex, so an observer can never deadlock the
lock it is watching.  While none is installed (the shipped default) the hook
costs one module-global ``is None`` check per call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import LockUpgradeError

__all__ = ["ReentrantRWLock", "LockStats"]

#: Module-level mirror of :attr:`ReentrantRWLock.observer`, checked on the
#: hot path — a plain global load is measurably cheaper than an attribute
#: lookup, and the acquisition fast path is the most executed code in the
#: runtime.  Always kept in sync by install_observer/uninstall_observer.
_OBSERVER: Any = None

_get_ident = threading.get_ident
_monotonic = time.monotonic


@dataclass(slots=True)
class LockStats:
    """Counters describing how a lock was used.

    ``read_contended`` / ``write_contended`` count acquisitions that had to
    wait; they are what the lock-granularity benchmark compares.
    ``read_wait_seconds`` / ``write_wait_seconds`` accumulate the wall-clock
    time spent in those waits (timed-out attempts included — the time was
    spent either way), so a hot lock is visible not just by how *often* it
    contends but by how *long* it stalls its waiters.
    """

    read_acquired: int = 0
    write_acquired: int = 0
    read_contended: int = 0
    write_contended: int = 0
    read_wait_seconds: float = 0.0
    write_wait_seconds: float = 0.0

    def snapshot(self) -> "LockStats":
        """Return an independent copy of the current counters."""
        return LockStats(
            read_acquired=self.read_acquired,
            write_acquired=self.write_acquired,
            read_contended=self.read_contended,
            write_contended=self.write_contended,
            read_wait_seconds=self.read_wait_seconds,
            write_wait_seconds=self.write_wait_seconds,
        )

    def __add__(self, other: "LockStats") -> "LockStats":
        return LockStats(
            read_acquired=self.read_acquired + other.read_acquired,
            write_acquired=self.write_acquired + other.write_acquired,
            read_contended=self.read_contended + other.read_contended,
            write_contended=self.write_contended + other.write_contended,
            read_wait_seconds=self.read_wait_seconds + other.read_wait_seconds,
            write_wait_seconds=self.write_wait_seconds + other.write_wait_seconds,
        )

    def add(self, other: "LockStats") -> None:
        """Fold ``other``'s counters into these, in place."""
        self.read_acquired += other.read_acquired
        self.write_acquired += other.write_acquired
        self.read_contended += other.read_contended
        self.write_contended += other.write_contended
        self.read_wait_seconds += other.read_wait_seconds
        self.write_wait_seconds += other.write_wait_seconds

    def to_dict(self) -> dict[str, float]:
        """Plain-data view for ``describe_system()`` and JSON reports."""
        return {
            "read_acquired": self.read_acquired,
            "write_acquired": self.write_acquired,
            "read_contended": self.read_contended,
            "write_contended": self.write_contended,
            "read_wait_seconds": self.read_wait_seconds,
            "write_wait_seconds": self.write_wait_seconds,
        }

    @property
    def wait_seconds(self) -> float:
        """Total time waiters spent blocked on this lock (both sides)."""
        return self.read_wait_seconds + self.write_wait_seconds

    @property
    def contended(self) -> int:
        """Total contended acquisitions (both sides)."""
        return self.read_contended + self.write_contended


class _ReadGuard:
    """``with lock.read():`` — stateless (the depths live in the lock), so
    one instance per lock serves every thread and every nesting level."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "ReentrantRWLock") -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_read()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release_read()


class _WriteGuard:
    """``with lock.write():`` — the write-mode twin of :class:`_ReadGuard`."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "ReentrantRWLock") -> None:
        self._lock = lock

    def __enter__(self) -> None:
        self._lock.acquire_write()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self._lock.release_write()


class ReentrantRWLock:
    """A reentrant read-write lock with writer preference.

    Use the :meth:`read` and :meth:`write` context managers::

        lock = ReentrantRWLock("join-42")
        with lock.read():
            value = shared_state
        with lock.write():
            shared_state = new_value
    """

    __slots__ = ("_name", "stats", "_mutex", "_cond", "_writer", "_write_depth",
                 "_readers", "_waiters", "_waiting_writers", "_read_guard",
                 "_write_guard")

    #: Process-wide acquisition observer (installed by the deadlock
    #: sanitizer's :class:`~repro.analysis.lockgraph.LockOrderRecorder`).
    #: ``None`` — the default — keeps every hook a single identity check.
    observer: Any = None

    def __init__(self, name: "str | Callable[[], str]" = "") -> None:
        #: The name, or a callable that makes it the first time it is read
        #: (most locks are never named in a report).
        self._name = name
        self.stats = LockStats()
        self._mutex = threading.Lock()
        #: Built over ``_mutex`` by the first thread that has to wait.
        self._cond: threading.Condition | None = None
        self._writer: int | None = None
        self._write_depth = 0
        #: Read depth per thread ident.  While a writer holds the lock its
        #: own downgrade reads are the only possible entry; otherwise the
        #: keys are exactly the active readers.
        self._readers: dict[int, int] = {}
        self._waiters = 0  # threads asleep on _cond, readers and writers
        self._waiting_writers = 0
        # Built on first use: a node or graph lock rarely needs both.
        self._read_guard: _ReadGuard | None = None
        self._write_guard: _WriteGuard | None = None

    @property
    def name(self) -> str:
        name = self._name
        if not isinstance(name, str):
            name = self._name = name()
        return name

    # -- observer ----------------------------------------------------------

    @classmethod
    def install_observer(cls, observer: Any) -> None:
        """Install the process-wide acquisition observer.

        ``observer`` must provide ``on_acquire(lock, mode, nested, contended)``
        and ``on_release(lock, mode, released)``; both are invoked outside the
        lock's internal mutex.  Installing over an existing observer
        raises — nesting recorders would corrupt both lock-order graphs.
        """
        global _OBSERVER
        if cls.observer is not None and cls.observer is not observer:
            raise RuntimeError("a lock observer is already installed")
        cls.observer = observer
        _OBSERVER = observer

    @classmethod
    def uninstall_observer(cls) -> None:
        """Remove the process-wide acquisition observer (idempotent)."""
        global _OBSERVER
        cls.observer = None
        _OBSERVER = None

    # -- waiting -------------------------------------------------------------

    def _read_blocked(self) -> bool:
        return self._writer is not None or self._waiting_writers > 0

    def _write_blocked(self) -> bool:
        return self._writer is not None or bool(self._readers)

    def _wait_while(self, blocked: Callable[[], bool],
                    timeout: float | None) -> bool:
        """Sleep (mutex held) until ``blocked()`` turns false.

        ``timeout`` becomes one absolute monotonic deadline for all wait
        rounds, so spurious or irrelevant wake-ups cannot extend it.
        Returns ``False`` when the deadline expired with ``blocked()`` still
        true — the caller gives up.
        """
        cond = self._cond
        if cond is None:
            cond = self._cond = threading.Condition(self._mutex)
        deadline = None if timeout is None else _monotonic() + timeout
        self._waiters += 1
        try:
            while blocked():
                if deadline is None:
                    cond.wait()
                else:
                    remaining = deadline - _monotonic()
                    if remaining <= 0:
                        return False
                    cond.wait(remaining)
            return True
        finally:
            self._waiters -= 1

    # -- read lock ---------------------------------------------------------

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Acquire the read lock, blocking up to ``timeout`` seconds *total*.

        Returns ``True`` on success, ``False`` on timeout.  The timeout is an
        absolute monotonic deadline across all condition-wait rounds, so
        spurious or irrelevant wakeups cannot extend it.
        """
        if _OBSERVER is None:
            ident = _get_ident()
            with self._mutex:
                readers = self._readers
                depth = readers.get(ident, 0)
                # Reentrant read, downgrade while holding write, or a free
                # lock with no writer queued: granted on the spot.
                if depth or self._writer == ident or (
                        self._writer is None and not self._waiting_writers):
                    readers[ident] = depth + 1
                    self.stats.read_acquired += 1
                    return True
        return self._acquire_read_slow(timeout)

    def _acquire_read_slow(self, timeout: float | None) -> bool:
        observer = _OBSERVER
        ident = _get_ident()
        contended = False
        with self._mutex:
            readers = self._readers
            depth = readers.get(ident, 0)
            nested = depth > 0 or self._writer == ident
            if not nested and self._read_blocked():
                contended = True
                wait_start = _monotonic()
                granted = self._wait_while(self._read_blocked, timeout)
                self.stats.read_wait_seconds += _monotonic() - wait_start
                if not granted:
                    return False
                self.stats.read_contended += 1
            readers[ident] = depth + 1
            self.stats.read_acquired += 1
        if observer is not None:
            observer.on_acquire(self, "read", nested, contended)
        return True

    def release_read(self) -> None:
        """Release one level of the read lock held by the calling thread."""
        observer = _OBSERVER
        ident = _get_ident()
        released = False
        with self._mutex:
            readers = self._readers
            depth = readers.get(ident)
            if depth is None:
                raise RuntimeError(f"thread does not hold read lock {self.name!r}")
            if depth > 1:
                readers[ident] = depth - 1
            else:
                del readers[ident]
                if self._writer != ident:
                    released = True
                    if self._waiters and not readers:
                        self._cond.notify_all()  # type: ignore[union-attr]
        if observer is not None:
            observer.on_release(self, "read", released)

    # -- write lock ----------------------------------------------------------

    def acquire_write(self, timeout: float | None = None) -> bool:
        """Acquire the write lock, blocking up to ``timeout`` seconds *total*
        (an absolute monotonic deadline, as in :meth:`acquire_read`).

        Raises :class:`LockUpgradeError` if the calling thread holds only a
        read lock (upgrading is a deadlock hazard and therefore forbidden).
        """
        if _OBSERVER is None:
            ident = _get_ident()
            with self._mutex:
                writer = self._writer
                if writer == ident or (writer is None and not self._readers):
                    self._writer = ident
                    self._write_depth += 1
                    self.stats.write_acquired += 1
                    return True
        return self._acquire_write_slow(timeout)

    def _acquire_write_slow(self, timeout: float | None) -> bool:
        observer = _OBSERVER
        ident = _get_ident()
        contended = False
        with self._mutex:
            nested = self._writer == ident
            if not nested:
                if ident in self._readers:
                    raise LockUpgradeError(
                        f"thread holds read lock {self.name!r} and requested the "
                        "write lock; release the read lock first"
                    )
                if self._write_blocked():
                    contended = True
                    granted = False
                    wait_start = _monotonic()
                    self._waiting_writers += 1
                    try:
                        granted = self._wait_while(self._write_blocked, timeout)
                    finally:
                        self._waiting_writers -= 1
                        if not granted and self._waiters \
                                and not self._waiting_writers:
                            # Readers that queued behind this writer only
                            # (writer preference) wait for nothing once it
                            # gives up: wake them.
                            self._cond.notify_all()  # type: ignore[union-attr]
                    self.stats.write_wait_seconds += _monotonic() - wait_start
                    if not granted:
                        return False
                    self.stats.write_contended += 1
                self._writer = ident
            self._write_depth += 1
            self.stats.write_acquired += 1
        if observer is not None:
            observer.on_acquire(self, "write", nested, contended)
        return True

    def release_write(self) -> None:
        """Release one level of the write lock held by the calling thread."""
        observer = _OBSERVER
        ident = _get_ident()
        released = False
        with self._mutex:
            if self._writer != ident:
                raise RuntimeError(f"thread does not hold write lock {self.name!r}")
            depth = self._write_depth = self._write_depth - 1
            if not depth:
                self._writer = None
                # A downgrade read still held keeps the thread in the lock
                # as a plain reader.
                released = ident not in self._readers
                if self._waiters:
                    self._cond.notify_all()  # type: ignore[union-attr]
        if observer is not None:
            observer.on_release(self, "write", released)

    # -- context managers ----------------------------------------------------

    def read(self) -> _ReadGuard:
        """Context manager acquiring/releasing the read lock."""
        guard = self._read_guard
        if guard is None:
            guard = self._read_guard = _ReadGuard(self)
        return guard

    def write(self) -> _WriteGuard:
        """Context manager acquiring/releasing the write lock."""
        guard = self._write_guard
        if guard is None:
            guard = self._write_guard = _WriteGuard(self)
        return guard

    # -- introspection ---------------------------------------------------------

    def held_by_current_thread(self) -> str | None:
        """Return ``"read"``, ``"write"`` or ``None`` for the calling thread."""
        ident = _get_ident()
        with self._mutex:
            if self._writer == ident:
                return "write"
            return "read" if ident in self._readers else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReentrantRWLock({self.name!r}, readers={len(self._readers)}, "
            f"writer={self._writer})"
        )

"""Periodic update scheduling (Sections 3.2.2 and 4.3).

Periodic metadata handlers hand their refresh cadence to a scheduler.  Two
interchangeable implementations exist:

* :class:`VirtualTimeScheduler` — drives refreshes from a
  :class:`~repro.common.clock.VirtualClock` timer queue; fully deterministic,
  used by the simulation executor and all figure reproductions.
* :class:`ThreadedScheduler` — "distribute the periodic update tasks over a
  small pool of worker-threads"; with ``pool_size=1`` it is the paper's
  "for small query graphs ... a single thread is sufficient" configuration.

Both record per-task update counts and *lateness* (how far behind its deadline
each refresh ran), which the worker-pool benchmark (experiment E11) reports.

Neither refreshes tasks one by one.  What is due at one instant is a
**tick**, and a tick enters the propagation engine as *one* wave whose seeds
are refreshed inside the pass, each when the pass reaches it (Section 3.2.2's
fixed time window, Section 3.2.3's "in the right order"): concurrent
consumers see one consistent sample, an aggregate over k periodic inputs
recomputes once per tick, and a periodic item that reads another — even
through triggered items — is computed after it, exactly once.  See
:class:`PeriodicScheduler`.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import logging
import threading
import time
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.common.clock import Clock, Timer, VirtualClock
from repro.metadata.propagation import FAILED
from repro.telemetry.events import (
    HandlerRefresh,
    RetryScheduled,
    SchedulerCancel,
    key_of,
    node_of,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metadata.handler import PeriodicHandler
    from repro.telemetry.hub import Telemetry


__all__ = ["PeriodicTask", "PeriodicScheduler", "VirtualTimeScheduler", "ThreadedScheduler"]

#: A periodic refresh outliving the unregister backstop is a hung compute —
#: observable here instead of silently leaking past ``unregister``.
log = logging.getLogger(__name__)


def _reschedule_delay(handler: Any) -> Optional[float]:
    """Failure-policy re-arm delay, or ``None`` for the period grid.

    Schedulers accept any object with ``period`` and ``periodic_refresh``
    (tests register bare fakes), so the reliability hook is looked up
    leniently rather than demanded of every handler-shaped object.
    """
    method = getattr(handler, "reschedule_delay", None)
    return None if method is None else method()


class PeriodicTask:
    """Bookkeeping for one periodic handler registered with a scheduler.

    Under :class:`ThreadedScheduler` the counters (``fire_count``,
    ``total_lateness``, ``error_count``) and the in-flight markers are
    mutated only while the scheduler's condition lock is held, so readers
    using :meth:`ThreadedScheduler.task_snapshot` observe consistent values.
    """

    __slots__ = ("handler", "period", "cancelled", "fire_count", "total_lateness",
                 "error_count", "_deadline", "_seq", "_running", "_runner")

    def __init__(self, handler: "PeriodicHandler", period: float, seq: int) -> None:
        self.handler = handler
        self.period = period
        self.cancelled = False
        self.fire_count = 0
        self.total_lateness = 0.0
        self.error_count = 0  # refreshes that raised; the task keeps running
        self._deadline = 0.0  # virtual time: the deadline group it waits in
        self._seq = seq
        self._running = False          # collected for a tick, not yet settled
        self._runner: Optional[int] = None  # ident of the thread refreshing it

    @property
    def mean_lateness(self) -> float:
        return self.total_lateness / self.fire_count if self.fire_count else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PeriodicTask({self.handler!r}, period={self.period})"


class PeriodicScheduler:
    """Common interface of periodic-update schedulers, and the **tick**.

    A tick is every task a scheduler found due at one instant.  It reaches
    the propagation backend through :meth:`_tick` as the seeds of *one*
    wave: the backend calls each task's refresh (:meth:`_fire`) when its
    pass arrives at the task's handler, so a periodic item downstream of
    another — directly or through triggered items — is computed after it,
    exactly once, and shared dependents recompute once per tick.  All
    bookkeeping stays per task: counters, lateness, the task's one
    ``handler.refresh`` record, the failure-policy re-arm; one failing task
    never stops its siblings.
    """

    clock: Clock

    #: Telemetry hub attached by ``MetadataSystem.enable_telemetry``; while
    #: ``None`` (the default) every scheduler hook is one attribute check.
    telemetry: "Telemetry | None" = None

    #: Label for ``scheduler_refresh_errors_total{mode=...}``.
    mode = "unknown"

    #: Guards the task counters; a real lock only where threads fire tasks.
    _lock: Any = contextlib.nullcontext()

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._seq = itertools.count()
        self._active = 0

    def register(self, handler: "PeriodicHandler") -> PeriodicTask:
        """Begin refreshing ``handler`` every ``handler.period`` time units."""
        task = PeriodicTask(handler, handler.period, next(self._seq))
        with self._lock:
            self._active += 1
            self._arm(task, self.clock.now() + task.period)
        return task

    def unregister(self, task: PeriodicTask, wait: bool = True) -> None:
        """Stop refreshing the task's handler.

        With ``wait=True`` (the default) the call also waits for a refresh
        that is in flight on another worker thread, so that when it returns
        no new ``periodic_refresh`` for this task can start or be running.
        """
        raise NotImplementedError

    def active_task_count(self) -> int:
        with self._lock:
            return self._active

    def _arm(self, task: PeriodicTask, deadline: float) -> None:
        """Make ``task`` due at ``deadline`` (called under :attr:`_lock`)."""
        raise NotImplementedError

    def _idle(self, task: PeriodicTask) -> None:
        """``task`` left its tick (called under :attr:`_lock`)."""
        task._running = False
        task._runner = None

    def _tick(self, due: Sequence[tuple[PeriodicTask, float]]) -> None:
        """Hand the ``(task, deadline)`` pairs due now to the propagation
        backend as the seeds of one wave (which puts them in dependency
        order).  Called with no scheduler lock held."""
        ticks: dict[int, tuple[Any, list]] = {}
        for task, deadline in due:
            run = functools.partial(self._fire, task, deadline)
            backend = getattr(getattr(task.handler, "registry", None),
                              "propagation", None)
            if backend is None:
                run()  # a bare handler-shaped object: nothing to propagate into
            else:
                ticks.setdefault(id(backend), (backend, []))[1].append(
                    (task.handler, run))
        for backend, seeds in ticks.values():
            backend.tick(seeds)

    def _fire(self, task: PeriodicTask, deadline: float) -> "bool | str":
        """Refresh one due task; return whether its handler published a value
        (:data:`~repro.metadata.propagation.FAILED` when its provider raised
        and the handler kept the old one)."""
        with self._lock:
            if task.cancelled:
                # Since it was collected — by an unsubscribe, or by an earlier
                # task's compute in this very tick.
                self._idle(task)
                return False
            task._runner = threading.get_ident()
            task.fire_count += 1
            lateness = max(0.0, self.clock.now() - deadline)
            task.total_lateness += lateness
        tel = self.telemetry
        t0 = time.monotonic() if tel is not None else 0.0
        outcome: "bool | str" = False
        try:
            outcome = task.handler.periodic_refresh() is True
        except Exception as exc:  # noqa: BLE001 - one failing item must not derail its siblings
            outcome = FAILED
            log.warning("periodic refresh of %s/%s failed: %s",
                        node_of(task.handler), key_of(task.handler.key), exc)
        finally:
            # A failure policy substitutes backoff / quarantine-rest delays
            # for the period grid (None without one or while the circuit is
            # healthy, keeping the drift-free cadence exactly).
            delay = _reschedule_delay(task.handler)
            with self._lock:
                if outcome is FAILED:
                    task.error_count += 1
                self._idle(task)
                if not task.cancelled:
                    self._arm(task, deadline + task.period if delay is None
                              else self.clock.now() + delay)
        if tel is not None:
            # The refresh's only record: periodic_refresh emits none.
            node, key = task.handler.names
            tel.emit(HandlerRefresh(node=node, key=key, changed=outcome is True,
                                    duration=time.monotonic() - t0,
                                    queue_latency=lateness,
                                    error=outcome is FAILED, mode=self.mode))
            if outcome is FAILED and delay is not None:
                breaker = task.handler.breaker
                tel.emit(RetryScheduled(
                    node=node, key=key,
                    attempt=breaker.consecutive_failures if breaker else 0,
                    delay=delay))
        return outcome


class VirtualTimeScheduler(PeriodicScheduler):
    """Deterministic scheduler on a :class:`VirtualClock`.

    One clock timer per *deadline*, holding the tasks due then; when it
    fires, the whole group is one tick.  Each task re-arms itself for
    ``deadline + period`` (not ``now + period``), so refresh times stay on
    the exact grid the paper's fixed time windows define, with zero drift —
    and tasks sharing a period keep sharing their ticks.
    """

    mode = "virtual"

    def __init__(self, clock: VirtualClock) -> None:
        super().__init__(clock)
        #: deadline -> (its timer, the tasks due then keyed by ``_seq``).
        self._groups: dict[float, tuple[Timer, dict[int, PeriodicTask]]] = {}

    def _arm(self, task: PeriodicTask, deadline: float) -> None:
        group = self._groups.get(deadline)
        if group is None:
            group = self._groups[deadline] = (self.clock.schedule_at(
                deadline, functools.partial(self._due, deadline)), {})
        group[1][task._seq] = task
        task._deadline = deadline

    def _due(self, deadline: float) -> None:
        # The group closes before its tasks fire: one re-armed for this very
        # deadline (a zero backoff) starts a new group with a new timer.
        tasks = self._groups.pop(deadline)[1]
        self._tick([(task, deadline) for task in tasks.values()])

    def unregister(self, task: PeriodicTask, wait: bool = True) -> None:
        # Virtual time is single-threaded: nothing can be in flight, so
        # ``wait`` is trivially satisfied.
        if not task.cancelled:
            task.cancelled = True
            self._active -= 1
            group = self._groups.get(task._deadline)
            if group is not None and group[1].pop(task._seq, None) is not None \
                    and not group[1]:
                # Last task out cancels the timer, so neither the group nor
                # the clock's queue outlives the tasks they were armed for.
                group[0].cancel()
                del self._groups[task._deadline]
            tel = self.telemetry
            if tel is not None:
                node, key = task.handler.names
                tel.emit(SchedulerCancel(node=node, key=key, in_flight=False))


class ThreadedScheduler(PeriodicScheduler):
    """Worker-pool scheduler for wall-clock deployments (Section 4.3).

    A shared deadline heap feeds ``pool_size`` worker threads.  Workers sleep
    on a condition variable until the earliest deadline is due, take what is
    due as one tick — everything with a single worker, a fair share each in
    a pool — and re-arm the tasks as they settle.  A refresh that overruns
    its period delays only tasks a single worker would have run next —
    adding workers is exactly the paper's scalability lever, measured by
    experiment E11.
    """

    #: Backstop for :meth:`unregister`'s in-flight wait — far above any sane
    #: refresh duration; prevents a pathological compute from hanging
    #: unsubscription forever.
    unregister_wait_timeout = 10.0

    mode = "threaded"

    def __init__(self, clock: Clock, pool_size: int = 1) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        super().__init__(clock)
        self.pool_size = pool_size
        self._lock = self._cond = threading.Condition()
        self._heap: list[tuple[float, int, PeriodicTask]] = []
        self._stopped = False
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        """Spawn the worker threads.  Idempotent."""
        if self._threads:
            return
        for i in range(self.pool_size):
            thread = threading.Thread(
                target=self._worker, name=f"metadata-periodic-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop all workers and drop pending tasks."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "ThreadedScheduler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _arm(self, task: PeriodicTask, deadline: float) -> None:
        if not self._stopped:
            heapq.heappush(self._heap, (deadline, task._seq, task))
            self._cond.notify()

    def _idle(self, task: PeriodicTask) -> None:
        super()._idle(task)
        self._cond.notify_all()  # unregister() callers waiting for this run

    def unregister(self, task: PeriodicTask, wait: bool = True) -> None:
        """Cancel ``task``; by default also wait out an in-flight refresh.

        The wait is skipped when the calling thread *is* the worker running
        the refresh (a handler cancelling itself from its own compute), which
        would otherwise self-deadlock.  The wait is bounded by
        ``unregister_wait_timeout`` as a hang backstop; callers must not hold
        any lock an in-flight refresh could need (in particular, compute
        functions must never subscribe or cancel subscriptions — see the
        concurrency model in docs/METADATA_GUIDE.md).
        """
        cancelled_now = False
        raced_in_flight = False
        timed_out = False
        hung_worker: Optional[int] = None
        with self._cond:
            if not task.cancelled:
                task.cancelled = True
                self._active -= 1
                cancelled_now = True
                self._cond.notify_all()
            me = threading.get_ident()
            raced_in_flight = task._running and task._runner != me
            if wait:
                deadline = time.monotonic() + self.unregister_wait_timeout
                while task._running and task._runner != me:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # Backstop expired: the in-flight refresh is hung (or
                        # pathologically slow).  Return rather than hang the
                        # unsubscriber — but loudly: the caller's contract
                        # ("no refresh after unregister returns") is broken.
                        timed_out = True
                        hung_worker = task._runner
                        break
                    self._cond.wait(remaining)
        if timed_out:
            log.warning(
                "unregister of periodic task %r timed out after %.1fs with a "
                "refresh still in flight on worker %s; the compute is hung "
                "and may still fire after this call returns",
                task, self.unregister_wait_timeout, hung_worker,
            )
        tel = self.telemetry
        if tel is not None and (cancelled_now or timed_out):
            node, key = task.handler.names
            tel.emit(SchedulerCancel(node=node, key=key,
                                     in_flight=raced_in_flight,
                                     timed_out=timed_out))

    def task_snapshot(self, task: PeriodicTask) -> dict[str, Any]:
        """Consistent snapshot of a task's counters (taken under the lock)."""
        with self._cond:
            return {
                "fire_count": task.fire_count,
                "total_lateness": task.total_lateness,
                "error_count": task.error_count,
                "cancelled": task.cancelled,
                "running": task._running,
            }

    def _worker(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._stopped:
                        return
                    now = self.clock.now()
                    # Drop cancelled entries lazily.
                    while self._heap and self._heap[0][2].cancelled:
                        heapq.heappop(self._heap)
                    if self._heap and self._heap[0][0] <= now:
                        break
                    wait = (self._heap[0][0] - now) if self._heap else None
                    self._cond.wait(wait)
                due: list[tuple[PeriodicTask, float]] = []
                while self._heap and self._heap[0][0] <= now:
                    deadline, _, task = heapq.heappop(self._heap)
                    if not task.cancelled:
                        due.append((task, deadline))
                # A pool shares the tick out, so slow refreshes keep running
                # side by side; the rest goes back for the other workers.
                share = -(-len(due) // self.pool_size)
                for task, deadline in due[share:]:
                    heapq.heappush(self._heap, (deadline, task._seq, task))
                del due[share:]
                # Still inside the critical section of the pop: none of these
                # is cancelled *here*, and marking them in flight before
                # releasing the lock closes the pop-to-fire window —
                # unregister() observes either the cancellation (no fire) or
                # the running marker (it waits until the task settled).
                for task, _ in due:
                    task._running = True
            # The tick runs outside the scheduler lock, so slow refreshes do
            # not block other workers (and no lock is taken while holding it).
            try:
                self._tick(due)
            except Exception:  # noqa: BLE001 - a wave that escaped must not kill the pool
                log.exception("periodic tick of %d task(s) failed", len(due))

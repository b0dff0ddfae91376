"""Clock abstractions.

Every time-dependent component of the library (rate monitors, periodic
metadata handlers, schedulers, synthetic sources) reads time through a
:class:`Clock` instead of calling :func:`time.monotonic` directly.  This makes
the whole system runnable in two modes:

* under a :class:`SystemClock` for real multi-threaded deployments, and
* under a :class:`VirtualClock` for deterministic discrete-event simulation,
  which is how the paper's figures are reproduced bit-identically.

Time is represented as a ``float`` number of *time units*.  Under the virtual
clock a time unit is abstract (the paper's Figure 4 speaks of "time units");
under the system clock it is seconds.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Callable, Protocol, runtime_checkable

from repro.common.errors import SimulationError

__all__ = ["Clock", "SystemClock", "VirtualClock", "Timer"]


@runtime_checkable
class Clock(Protocol):
    """Minimal interface every clock implementation offers."""

    def now(self) -> float:
        """Return the current time in time units."""
        ...  # pragma: no cover - protocol


class SystemClock:
    """Wall-clock time based on :func:`time.monotonic`.

    The epoch is shifted so that a freshly created clock starts near zero,
    which keeps logs and recorded traces readable.
    """

    def __init__(self) -> None:
        self._epoch = _time.monotonic()

    def now(self) -> float:
        return _time.monotonic() - self._epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SystemClock(now={self.now():.6f})"


class Timer:
    """Handle for a timer scheduled on a :class:`VirtualClock`.

    Cancelling a timer is O(1) amortized: the entry stays in the clock's
    queue until the clock advances past it or cancelled entries outnumber
    the armed ones, whichever comes first (see
    :meth:`VirtualClock._timer_cancelled`).
    """

    __slots__ = ("deadline", "callback", "cancelled", "_seq", "_clock")

    def __init__(self, deadline: float, callback: Callable[[], None], seq: int,
                 clock: "VirtualClock | None" = None) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False
        self._seq = seq
        self._clock = clock  # the queue holding this timer; None once popped

    def cancel(self) -> None:
        """Prevent the timer's callback from firing."""
        if not self.cancelled:
            self.cancelled = True
            if self._clock is not None:
                self._clock._timer_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"Timer(deadline={self.deadline}, {state})"


class VirtualClock:
    """Deterministic, manually advanced clock with a timer queue.

    The clock never moves on its own: callers advance it with
    :meth:`advance_to` or :meth:`advance_by`, and all timers whose deadline is
    passed fire *in deadline order* (ties broken by scheduling order) before
    the call returns.  Timer callbacks may schedule further timers; a timer
    scheduled for a deadline that has already been crossed during the same
    advance still fires within that advance, which gives run-to-completion
    semantics for cascades such as triggered metadata updates.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[tuple[float, int, Timer]] = []
        self._counter = itertools.count()
        self._advancing = False
        self._cancelled = 0  # cancelled timers still sitting in the heap

    def now(self) -> float:
        return self._now

    def _timer_cancelled(self) -> None:
        """A queued timer was cancelled.  Its entry (and the callback it
        pins) is dropped as soon as dead entries outnumber live ones, so the
        queue stays O(armed timers) even on a clock that never advances."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap):
            # In place: advance_to may be iterating over this very list.
            self._heap[:] = [e for e in self._heap if not e[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def _pop(self) -> Timer:
        timer = heapq.heappop(self._heap)[2]
        timer._clock = None
        if timer.cancelled:
            self._cancelled -= 1
        return timer

    def schedule_at(self, deadline: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to fire when the clock reaches ``deadline``.

        Deadlines in the past (or at the current time) fire on the next
        advance, not immediately; this mirrors how an event loop would behave
        and keeps callers free of reentrancy surprises.
        """
        if deadline < self._now:
            deadline = self._now
        timer = Timer(float(deadline), callback, next(self._counter), self)
        heapq.heappush(self._heap, (timer.deadline, timer._seq, timer))
        return timer

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        return self.schedule_at(self._now + delay, callback)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline``, firing due timers in order."""
        if deadline < self._now:
            raise SimulationError(
                f"cannot advance virtual clock backwards: now={self._now}, target={deadline}"
            )
        if self._advancing:
            raise SimulationError("reentrant advance of VirtualClock")
        self._advancing = True
        try:
            while self._heap and self._heap[0][0] <= deadline:
                timer = self._pop()
                if timer.cancelled:
                    continue
                # Time jumps to each timer's deadline so callbacks observe
                # the time at which they were due.
                self._now = max(self._now, timer.deadline)
                timer.callback()
            self._now = max(self._now, float(deadline))
        finally:
            self._advancing = False

    def advance_by(self, delta: float) -> None:
        """Move time forward by ``delta`` time units."""
        if delta < 0:
            raise SimulationError(f"cannot advance virtual clock by {delta}")
        self.advance_to(self._now + delta)

    def next_deadline(self) -> float | None:
        """Return the earliest pending (non-cancelled) timer deadline."""
        while self._heap and self._heap[0][2].cancelled:
            self._pop()
        if not self._heap:
            return None
        return self._heap[0][0]

    def run_until_idle(self, limit: float | None = None) -> None:
        """Fire all pending timers, optionally stopping at time ``limit``."""
        while True:
            deadline = self.next_deadline()
            if deadline is None:
                return
            if limit is not None and deadline > limit:
                self.advance_to(limit)
                return
            self.advance_to(deadline)

    def pending_timers(self) -> int:
        """Number of armed (non-cancelled) timers."""
        return sum(1 for _, _, t in self._heap if not t.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now}, pending={self.pending_timers()})"

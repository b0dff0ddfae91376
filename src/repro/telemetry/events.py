"""Typed trace events of the telemetry layer.

Every observable step of the metadata runtime's lifecycles — subscription
(with its transitive include chain, whose unshared steps are the handler
creations), exclusion (whose removing steps are the retirements),
propagation waves, periodic scheduling and probe activation — is described
by one small event dataclass, and each fact by exactly one event.  A refreshed member is *one* record: a tick
seed's ``handler.refresh`` carries the scheduler's fields, a dependent's
``wave.refresh`` names the changed inputs it was reached through (``via``),
and each wave ends in one ``wave.summary``.  Events are *plain data*: they
carry node/key identities as strings (never object references, so a
retained trace cannot keep dead handlers alive) and know nothing about the
bus or the metrics registry that consume them.

Causality
---------

Events that belong to one logical cascade share a ``span`` id:

* a ``subscribe`` span covers the subscription event and every transitive
  ``include`` it caused (Section 2.4's depth-first traversal),
* an ``unsubscribe`` span covers the exclusion cascade, and
* a *wave* span is allocated when a change is enqueued on the propagation
  engine and travels with the wave through every ``wave.refresh`` (whose
  ``via`` names the dependency edges the wave crossed into it) and
  ``wave.suppressed`` to the closing ``wave.summary`` — the Figure-3-style
  answer to "why did this handler refresh?".

Timestamps are stamped by the :class:`~repro.telemetry.trace.TraceBus` at
record time: ``ts`` in the system's clock domain (virtual time units under a
:class:`~repro.common.clock.VirtualClock`) and ``mono`` from
:func:`time.monotonic` so durations are meaningful even when virtual time
stands still.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = [
    "TraceEvent",
    "SubscribeEvent",
    "UnsubscribeEvent",
    "IncludeEvent",
    "ExcludeEvent",
    "HandlerRefresh",
    "ProbeActivated",
    "ProbeDeactivated",
    "WaveRefresh",
    "WaveSuppressed",
    "WavePoisoned",
    "WaveSummary",
    "SchedulerCancel",
    "HandlerFailure",
    "RetryScheduled",
    "CircuitOpen",
    "CircuitHalfOpen",
    "CircuitClose",
    "key_of",
    "node_of",
]


def key_of(key: Any) -> str:
    """Canonical string form of a :class:`MetadataKey` (``name[q0,q1]``)."""
    qualifier = getattr(key, "qualifier", ())
    if qualifier:
        return f"{key.name}[{','.join(map(str, qualifier))}]"
    return str(getattr(key, "name", key))


def node_of(handler: Any) -> str:
    """Owner name of a handler (or any object with a ``registry.owner``)."""
    owner = handler.registry.owner
    return str(getattr(owner, "name", owner))


@dataclass(slots=True)
class TraceEvent:
    """Base event; subclasses add payload fields and set :attr:`kind`.

    ``ts``/``mono``/``thread`` are filled in by the bus, not by emitters.
    """

    kind = "event"

    span: int = 0
    ts: float = 0.0
    mono: float = 0.0
    thread: int = 0


@dataclass(slots=True)
class SubscribeEvent(TraceEvent):
    kind = "subscribe"
    node: str = ""
    key: str = ""


@dataclass(slots=True)
class UnsubscribeEvent(TraceEvent):
    kind = "unsubscribe"
    node: str = ""
    key: str = ""


@dataclass(slots=True)
class IncludeEvent(TraceEvent):
    """One step of the depth-first inclusion traversal (Section 2.4).

    ``shared`` marks "the traversal stops at items already provided": the
    handler existed and only its counter moved; an unshared include is the
    record of a handler's creation, emitted once it is ready.  ``depth`` is
    the traversal depth at which this item was reached (0 = the subscribed
    item itself); ``mechanism`` is the handler's.
    """

    kind = "include"
    node: str = ""
    key: str = ""
    shared: bool = False
    depth: int = 0
    mechanism: str = ""


@dataclass(slots=True)
class ExcludeEvent(TraceEvent):
    """One counter decrement of the exclusion cascade; ``removed`` marks the
    decrements that reached zero and took a ready handler down — the record
    of its retirement.  ``mechanism`` is the handler's."""

    kind = "exclude"
    node: str = ""
    key: str = ""
    removed: bool = False
    mechanism: str = ""


@dataclass(slots=True)
class HandlerRefresh(TraceEvent):
    """A direct refresh: a manual :meth:`MetadataHandler.refresh`, or a
    periodic-scheduler tick — then ``mode`` names the scheduler and the
    record is the tick's only one.

    ``changed`` is whether dependents are told.  The scheduler's fields:
    ``queue_latency`` is how far past its deadline the refresh started (the
    paper's *lateness*), ``error`` marks a provider that raised (the handler
    kept its last-good value).
    """

    kind = "handler.refresh"
    node: str = ""
    key: str = ""
    changed: bool = False
    duration: float = 0.0
    queue_latency: float = 0.0
    error: bool = False
    #: which scheduler ran the tick (``virtual`` / ``threaded``); empty for
    #: a manual refresh.  Errors aggregate into
    #: ``scheduler_refresh_errors_total{mode=...}``.
    mode: str = ""


@dataclass(slots=True)
class ProbeActivated(TraceEvent):
    """A probe's activation count crossed 0 -> 1 (monitoring begins)."""

    kind = "probe.activated"
    node: str = ""
    name: str = ""
    count: int = 0


@dataclass(slots=True)
class ProbeDeactivated(TraceEvent):
    """A probe's activation count crossed 1 -> 0 (monitoring ends)."""

    kind = "probe.deactivated"
    node: str = ""
    name: str = ""
    count: int = 0


@dataclass(slots=True)
class WaveRefresh(TraceEvent):
    """An in-wave recompute; ``changed`` is whether dependents must react.

    ``via`` names (``node/key``) the changed inputs the wave reached this
    member through, one per dependency edge it crossed — the hops of the
    causal chain ``explain_refresh`` walks back."""

    kind = "wave.refresh"
    node: str = ""
    key: str = ""
    changed: bool = False
    error: bool = False
    duration: float = 0.0
    via: tuple[str, ...] = ()


@dataclass(slots=True)
class WaveSuppressed(TraceEvent):
    """A dependent skipped by the wave (``reason``: ``unchanged-inputs``,
    ``removed``, or ``excluded`` for a concurrent unsubscribe)."""

    kind = "wave.suppressed"
    node: str = ""
    key: str = ""
    reason: str = ""


@dataclass(slots=True)
class WavePoisoned(TraceEvent):
    """A wave member was skipped (or failed) for fault-containment reasons.

    ``reason`` is one of:

    * ``compute-failed`` — this handler's recompute raised; it keeps its
      last-good value and its dependent subtree is skipped,
    * ``poisoned-input`` — an in-wave dependency was poisoned, so
      recomputing here would fold a half-updated input view,
    * ``quarantined`` — the handler's circuit is open with no probe due;
      the wave lets it rest and serves its stale value downstream.

    Together with ``wave.refresh`` these events account for every planned
    member exactly: ``planned == recomputed + skipped_poisoned``."""

    kind = "wave.poisoned"
    node: str = ""
    key: str = ""
    reason: str = ""


@dataclass(slots=True)
class WaveSummary(TraceEvent):
    """One wave, recorded when it ends (also when it escapes).

    ``source`` names (``node/key``) the first seed and ``sources`` counts
    them (``> 1``: a coalesced multi-source wave).  ``folded`` lists the
    spans of the separately enqueued calls the drainer merged into this
    wave, which carries the first call's span; ``pending`` is the queue
    depth (sources waiting) when that call was enqueued.  ``wave_size`` is
    the size of the structural plan the wave passed over, seeds included;
    the tallies count its members' outcomes, ``duration`` the pass."""

    kind = "wave.summary"
    source: str = ""
    sources: int = 1
    folded: tuple[int, ...] = ()
    pending: int = 0
    wave_size: int = 0
    refreshed: int = 0
    suppressed: int = 0
    errors: int = 0
    poisoned: int = 0
    duration: float = 0.0


@dataclass(slots=True)
class SchedulerCancel(TraceEvent):
    """A periodic task was cancelled; ``in_flight`` marks the cancel race
    where a refresh was running on a worker and had to be waited out.
    ``timed_out`` marks the pathological case where that wait exhausted the
    unregister backstop and returned with the refresh still running — a
    hung compute that would otherwise be invisible."""

    kind = "sched.cancel"
    node: str = ""
    key: str = ""
    in_flight: bool = False
    timed_out: bool = False


@dataclass(slots=True)
class HandlerFailure(TraceEvent):
    """One failed compute attempt of a policy-governed handler.

    ``consecutive`` is the breaker's failure streak after this attempt;
    ``deadline_exceeded`` marks attempts that produced a value but overran
    the policy's per-attempt deadline (the value is stored anyway — slow is
    failing, not wrong)."""

    kind = "handler.failure"
    node: str = ""
    key: str = ""
    error: str = ""
    consecutive: int = 0
    deadline_exceeded: bool = False


@dataclass(slots=True)
class RetryScheduled(TraceEvent):
    """A retry of a failed attempt was arranged.  ``delay`` is 0 for the
    immediate retries of waves and on-demand reads (which may not sleep) and
    the actual backoff interval for periodic re-arms."""

    kind = "handler.retry"
    node: str = ""
    key: str = ""
    attempt: int = 0
    delay: float = 0.0


@dataclass(slots=True)
class CircuitOpen(TraceEvent):
    """A handler exhausted its retry budget and was quarantined.
    ``reopened`` marks a failed half-open probe re-arming an already-open
    circuit (the ``circuits_open`` gauge only counts first opens)."""

    kind = "circuit.open"
    node: str = ""
    key: str = ""
    failures: int = 0
    reopened: bool = False


@dataclass(slots=True)
class CircuitHalfOpen(TraceEvent):
    """A quarantined handler's rest elapsed; one probe attempt begins."""

    kind = "circuit.half_open"
    node: str = ""
    key: str = ""


@dataclass(slots=True)
class CircuitClose(TraceEvent):
    """A quarantined/half-open handler recovered to HEALTHY."""

    kind = "circuit.close"
    node: str = ""
    key: str = ""

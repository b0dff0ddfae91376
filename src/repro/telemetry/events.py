"""Typed trace events of the telemetry layer.

Every observable step of the metadata runtime's lifecycles — subscription
(with its transitive include chain), handler creation and retirement,
propagation waves, periodic scheduling and probe activation — is described
by one small event dataclass.  A refreshed member is *one* record: a tick
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

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "TraceEvent",
    "SubscribeEvent",
    "UnsubscribeEvent",
    "IncludeEvent",
    "ExcludeEvent",
    "HandlerCreated",
    "HandlerRetired",
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
    "AnalysisFinding",
    "key_of",
    "node_of",
    "event_to_dict",
    "render_lines",
    "COMPACT",
    "SPACED",
    "ENCODERS",
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
    handler existed and only its counter moved.  ``depth`` is the traversal
    depth at which this item was reached (0 = the subscribed item itself).
    """

    kind = "include"
    node: str = ""
    key: str = ""
    shared: bool = False
    depth: int = 0


@dataclass(slots=True)
class ExcludeEvent(TraceEvent):
    """One counter decrement of the exclusion cascade; ``removed`` marks the
    decrements that reached zero and took the handler down."""

    kind = "exclude"
    node: str = ""
    key: str = ""
    removed: bool = False


@dataclass(slots=True)
class HandlerCreated(TraceEvent):
    kind = "handler.created"
    node: str = ""
    key: str = ""
    mechanism: str = ""


@dataclass(slots=True)
class HandlerRetired(TraceEvent):
    kind = "handler.retired"
    node: str = ""
    key: str = ""
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


@dataclass(slots=True)
class AnalysisFinding(TraceEvent):
    """The static verifier reported one finding against this system.

    Emitted by :func:`repro.analysis.plan.verify_system` when the analyzed
    system has telemetry attached; aggregated into the
    ``analysis_findings_total{code=...}`` counter so dashboards can watch
    plan health alongside the runtime series."""

    kind = "analysis.finding"
    code: str = ""
    severity: str = ""
    subject: str = ""


class _CompiledPerClass(dict):
    """``event class -> renderer``; a class is compiled at its first event."""

    def __init__(self, compile: Callable[[type[TraceEvent]], Any]) -> None:
        self._compile = compile

    def __missing__(self, cls: type[TraceEvent]) -> Any:
        render = self[cls] = self._compile(cls)
        return render


def _compile_renderer(cls: type[TraceEvent]) -> Callable[[Any], dict[str, Any]]:
    """``lambda e: {"kind": <kind>, "span": e.span, ...}`` for one class.

    The field names are read off the dataclass here, once; the compiled
    dict display then costs one slot load per field and no name lookups
    (the technique ``dataclasses`` itself uses for ``__init__``).  Only
    field names of event classes — identifiers — reach the source text.
    """
    items = "".join(f", {f.name!r}: e.{f.name}" for f in dataclasses.fields(cls))
    return eval(f"lambda e: {{'kind': {cls.kind!r}{items}}}")


_RENDERERS = _CompiledPerClass(_compile_renderer)


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """Flat JSON-friendly dict of an event (``kind`` first).

    Every event field is a ``str``/``int``/``float``/``bool`` or an
    immutable tuple of them, so the record is built straight from the
    instance by a builder compiled once per event class — no reflection per
    event, and nothing is copied.
    """
    return _RENDERERS[type(event)](event)


#: ``(item separator, key separator)`` of the two wire formats: compact for
#: the export sinks, ``json.dumps``'s own default for ``trace.jsonl_writer``.
COMPACT = (",", ":")
SPACED = (", ", ": ")

#: The generic encoder of each wire format, built once (``json.dumps`` with
#: non-default arguments builds a ``JSONEncoder`` per call).  It encodes the
#: records that are not events (``metrics.snapshot``) and, inside an event
#: line, any field value that is not of the field's declared type.
ENCODERS = {
    separators: json.JSONEncoder(default=str, separators=separators).encode
    for separators in (COMPACT, SPACED)
}

#: Per declared field type (the type of the field's default): the guard
#: under which a value has one cheap JSON spelling, and that spelling.
#: ``type(x) is`` keeps a bool out of an int field and an int out of a float
#: field; ``x - x == 0.0`` is false for ``inf`` and ``nan``, whose spelling
#: stays the encoder's business — as does a field of any other type.  A
#: tuple field (``via``, ``folded``) is spelled by ``array``, which returns
#: ``None`` for anything but a tuple of ``str`` / ``int``.
_SPELLINGS = {
    bool: "T if {x} is True else F if {x} is False else ",
    int: "{x} if type({x}) is int else ",
    float: "float_repr({x}) if type({x}) is float and {x} - {x} == 0.0 else ",
    str: "escape({x}) if type({x}) is str else ",
    tuple: "array({x}) or ",
}


def _array_spelling(item_sep: str) -> Callable[[Any], "str | None"]:
    """The JSON array a tuple of ``str`` / ``int`` encodes to, or ``None``."""
    escape = json.encoder.encode_basestring_ascii

    def array(values: Any) -> "str | None":
        if type(values) is not tuple:
            return None
        items = []
        for value in values:
            if type(value) is str:
                items.append(escape(value))
            elif type(value) is int:
                items.append(int.__repr__(value))
            else:
                return None
        return f"[{item_sep.join(items)}]"

    return array


def _compile_line(
    separators: tuple[str, str], cls: type[TraceEvent]
) -> Callable[[Any], str]:
    r"""``lambda e: f'{"kind":"wave.summary","span":{e.span if ... },...}\n'``.

    The line ``ENCODERS[separators]`` produces for ``event_to_dict(e)``, byte
    for byte, with no dict and no encoder run per event: key text is escaped
    here, once, and each field is one guarded expression from
    :data:`_SPELLINGS` that leaves any value not of the declared type to the
    generic encoder — for that value only.
    """
    item_sep, key_sep = separators
    escape = json.encoder.encode_basestring_ascii

    def literal(text: str) -> str:
        # A JSON string, spelled for the inside of an f'...' literal.
        return repr(escape(text))[1:-1].replace("{", "{{").replace("}", "}}")

    parts = [f'"kind"{key_sep}{literal(cls.kind)}']
    for field in dataclasses.fields(cls):
        x = f"e.{field.name}"
        spelling = _SPELLINGS.get(type(field.default), "").format(x=x)
        parts.append(
            f"{literal(field.name)}{key_sep}{{{spelling}encode({x})}}")
    return eval(f"lambda e: f'{{{{{item_sep.join(parts)}}}}}\\n'", {
        "T": "true", "F": "false", "escape": escape,
        "float_repr": float.__repr__, "encode": ENCODERS[separators],
        "array": _array_spelling(item_sep),
    })


_LINES = {
    separators: _CompiledPerClass(functools.partial(_compile_line, separators))
    for separators in ENCODERS
}


def render_lines(
    events: Iterable[TraceEvent], separators: tuple[str, str] = COMPACT
) -> str:
    """``events`` as newline-terminated ASCII JSON lines of one wire format."""
    lines = _LINES[separators]
    return "".join([lines[type(event)](event) for event in events])

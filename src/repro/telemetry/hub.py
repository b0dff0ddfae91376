"""The telemetry hub — one object bundling trace capture and metrics.

A :class:`Telemetry` instance is what the runtime's instrumentation hooks
talk to.  It owns a :class:`~repro.telemetry.trace.TraceBus` and a
:class:`~repro.telemetry.metrics.MetricsRegistry`; :meth:`Telemetry.emit`
buffers the event and folds it into the matching metric series in one call,
so hooks never need to know about metric names.  Which series an event moves
is data: :data:`_FOLDS` maps each event class to its fold, :data:`_SERIES`
lists every series a fold may address.

Telemetry is **off by default** and attached per
:class:`~repro.metadata.registry.MetadataSystem` via
``system.enable_telemetry()``.  The overhead discipline mirrors the paper's
monitoring probes (Section 4.4.1): while disabled, every hook in the runtime
is a single ``telemetry is None`` check — no event objects, no locks, no
metric lookups.  ``benchmarks/bench_telemetry_overhead.py`` records what
enabling costs; the disabled path is guarded by ``benchmarks/e2e``.

Human-facing views:

* :func:`render_dashboard` — a text dashboard of the aggregated series
  (the upgraded ``examples/monitoring_dashboard.py`` output), and
* :func:`explain_refresh` — the Figure-3-style causal cascade behind the
  most recent refresh of one handler, reconstructed from the wave span.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.common.clock import Clock
from repro.telemetry import events as ev
from repro.telemetry.metrics import MetricsRegistry, SIZE_BOUNDS
from repro.telemetry.trace import TraceBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (export -> hub)
    from repro.telemetry.export import TelemetryExporter
    from repro.telemetry.sinks import ExportSink

__all__ = ["Telemetry", "render_dashboard", "explain_refresh", "format_span"]


class _BoundInstruments(dict[Any, Any]):
    """One hub's instruments, keyed the way folds address them.

    A key is the series name (unlabelled series) or ``(series, *label
    values)`` in the label order of :data:`_SERIES`.  A missing key is bound
    through the registry's public get-or-create, so a series appears in
    snapshots exactly when its first event is folded; from then on a fold
    never calls get-or-create — it pays one dict lookup plus ``inc`` /
    ``observe``.  (Two threads missing the same key both receive the
    registry's one instrument, so the race is benign.)
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        super().__init__()
        self._metrics = metrics

    def __missing__(self, key: Any) -> Any:
        name, *values = key if isinstance(key, tuple) else (key,)
        kind, label_names, *bounds = _SERIES[name]
        labels = dict(zip(label_names, values, strict=True))
        create = getattr(self._metrics, kind)
        instrument = self[key] = create(name, labels, *bounds)
        return instrument


#: Every series the hub aggregates: ``name -> (kind, label names[, bounds])``,
#: where ``kind`` names the registry's get-or-create method.
_SERIES: dict[str, tuple[Any, ...]] = {
    "trace_events_dropped_total": ("counter", ()),
    # subscription lifecycle
    "subscribes_total": ("counter", ("node",)),
    "unsubscribes_total": ("counter", ("node",)),
    "includes_total": ("counter", ("node", "shared")),
    "excludes_total": ("counter", ("node",)),
    "handlers_created_total": ("counter", ("node", "mechanism")),
    "handlers_retired_total": ("counter", ("node", "mechanism")),
    "handlers_live": ("gauge", ()),
    "handler_refreshes_total": ("counter", ("node",)),
    "refresh_duration_seconds": ("histogram", ()),
    "probes_active": ("gauge", ()),
    # propagation waves
    "waves_total": ("counter", ()),
    "wave_size": ("histogram", (), SIZE_BOUNDS),
    "wave_queue_depth": ("histogram", (), SIZE_BOUNDS),
    "waves_coalesced_total": ("counter", ()),
    "wave_hops_total": ("counter", ()),
    "wave_refreshes_total": ("counter", ("node",)),
    "wave_errors_total": ("counter", ("node",)),
    "wave_suppressed_total": ("counter", ("reason",)),
    "wave_poisoned_total": ("counter", ("reason",)),
    "wave_duration_seconds": ("histogram", ()),
    # periodic scheduling
    "scheduler_refreshes_total": ("counter", ("node",)),
    "scheduler_queue_latency": ("histogram", ()),
    "scheduler_run_duration_seconds": ("histogram", ()),
    "scheduler_errors_total": ("counter", ("node",)),
    "scheduler_refresh_errors_total": ("counter", ("mode",)),
    "scheduler_cancels_total": ("counter", ()),
    "scheduler_cancel_races_total": ("counter", ()),
    "scheduler_cancel_timeouts_total": ("counter", ()),
    # reliability
    "handler_failures_total": ("counter", ("node",)),
    "handler_deadline_exceeded_total": ("counter", ()),
    "handler_retries_total": ("counter", ()),
    "circuits_opened_total": ("counter", ()),
    "circuits_open": ("gauge", ()),
    "circuit_probes_total": ("counter", ()),
    "circuits_closed_total": ("counter", ()),
    # static analysis
    "analysis_findings_total": ("counter", ("code",)),
}


_Fold = Callable[[_BoundInstruments, Any], None]


def _fold_exclude(b: _BoundInstruments, e: ev.ExcludeEvent) -> None:
    if e.removed:
        b["excludes_total", e.node].inc()


def _fold_handler_created(b: _BoundInstruments, e: ev.HandlerCreated) -> None:
    b["handlers_created_total", e.node, e.mechanism].inc()
    b["handlers_live"].inc()


def _fold_handler_retired(b: _BoundInstruments, e: ev.HandlerRetired) -> None:
    b["handlers_retired_total", e.node, e.mechanism].inc()
    b["handlers_live"].dec()


def _fold_handler_refresh(b: _BoundInstruments, e: ev.HandlerRefresh) -> None:
    if not e.mode:
        # A manual refresh (or an on-demand read under a failure policy).
        b["handler_refreshes_total", e.node].inc()
        b["refresh_duration_seconds"].observe(e.duration)
        return
    # A tick seed moves the scheduler's series only: its refreshes are
    # ``scheduler_refreshes_total - scheduler_errors_total``, its durations
    # ``scheduler_run_duration_seconds``.
    b["scheduler_refreshes_total", e.node].inc()
    b["scheduler_queue_latency"].observe(e.queue_latency)
    b["scheduler_run_duration_seconds"].observe(e.duration)
    if e.error:
        b["scheduler_errors_total", e.node].inc()
        b["scheduler_refresh_errors_total", e.mode].inc()


def _fold_wave_refresh(b: _BoundInstruments, e: ev.WaveRefresh) -> None:
    b["wave_refreshes_total", e.node].inc()
    b["refresh_duration_seconds"].observe(e.duration)
    if e.via:
        b["wave_hops_total"].inc(len(e.via))
    if e.error:
        b["wave_errors_total", e.node].inc()


def _fold_wave_summary(b: _BoundInstruments, e: ev.WaveSummary) -> None:
    b["waves_total"].inc()
    b["wave_size"].observe(e.wave_size)
    b["wave_queue_depth"].observe(e.pending)
    if e.folded:
        b["waves_coalesced_total"].inc(len(e.folded))
    b["wave_duration_seconds"].observe(e.duration)


def _fold_scheduler_cancel(b: _BoundInstruments, e: ev.SchedulerCancel) -> None:
    b["scheduler_cancels_total"].inc()
    if e.in_flight:
        b["scheduler_cancel_races_total"].inc()
    if e.timed_out:
        b["scheduler_cancel_timeouts_total"].inc()


def _fold_handler_failure(b: _BoundInstruments, e: ev.HandlerFailure) -> None:
    b["handler_failures_total", e.node].inc()
    if e.deadline_exceeded:
        b["handler_deadline_exceeded_total"].inc()


def _fold_circuit_open(b: _BoundInstruments, e: ev.CircuitOpen) -> None:
    b["circuits_opened_total"].inc()
    # A reopen (failed probe) never left the open family, so the gauge is
    # only moved on first opens; CircuitClose decrements.
    if not e.reopened:
        b["circuits_open"].inc()


def _fold_circuit_close(b: _BoundInstruments, e: ev.CircuitClose) -> None:
    b["circuits_closed_total"].inc()
    b["circuits_open"].dec()


def _fold_nothing(b: _BoundInstruments, e: ev.TraceEvent) -> None:
    """Fold of an event class the hub keeps no series for."""


#: The aggregation spec: event class -> ``fold(bound, event)``, which moves
#: that event's series.  :meth:`Telemetry.emit` dispatches on
#: ``type(event)``; a subclass of a listed class resolves to its nearest
#: listed base once per hub, anything else to ``_fold_nothing``.
_FOLDS: dict[type, _Fold] = {
    ev.SubscribeEvent: lambda b, e: b["subscribes_total", e.node].inc(),
    ev.UnsubscribeEvent: lambda b, e: b["unsubscribes_total", e.node].inc(),
    ev.IncludeEvent: lambda b, e: b[
        "includes_total", e.node, "true" if e.shared else "false"].inc(),
    ev.ExcludeEvent: _fold_exclude,
    ev.HandlerCreated: _fold_handler_created,
    ev.HandlerRetired: _fold_handler_retired,
    ev.HandlerRefresh: _fold_handler_refresh,
    ev.ProbeActivated: lambda b, e: b["probes_active"].inc(),
    ev.ProbeDeactivated: lambda b, e: b["probes_active"].dec(),
    ev.WaveRefresh: _fold_wave_refresh,
    ev.WaveSuppressed: lambda b, e: b["wave_suppressed_total", e.reason].inc(),
    ev.WavePoisoned: lambda b, e: b["wave_poisoned_total", e.reason].inc(),
    ev.WaveSummary: _fold_wave_summary,
    ev.SchedulerCancel: _fold_scheduler_cancel,
    ev.HandlerFailure: _fold_handler_failure,
    ev.RetryScheduled: lambda b, e: b["handler_retries_total"].inc(),
    ev.CircuitOpen: _fold_circuit_open,
    ev.CircuitHalfOpen: lambda b, e: b["circuit_probes_total"].inc(),
    ev.CircuitClose: _fold_circuit_close,
    ev.AnalysisFinding: lambda b, e: b["analysis_findings_total", e.code].inc(),
}


class Telemetry:
    """Trace bus + metrics registry behind a single ``emit`` entry point."""

    def __init__(
        self,
        clock: Clock | None = None,
        capacity: int = 4096,
        prefix: str = "repro",
    ) -> None:
        self.bus = TraceBus(clock, capacity)
        self.metrics = MetricsRegistry(prefix)
        #: Export pipelines attached via :meth:`attach_exporter`.
        self.exporters: list[TelemetryExporter] = []
        self._bound = _BoundInstruments(self.metrics)
        # Starts as the spec; grows one entry per other event class seen.
        self._folds = dict(_FOLDS)
        # Ring overwrites were previously visible only on the bus object;
        # mirroring them into a counter puts overload on every dashboard
        # and wire-format export.
        self.bus.on_drop = self._count_ring_drop

    def _count_ring_drop(self) -> None:
        self._bound["trace_events_dropped_total"].inc()

    # -- export pipelines ---------------------------------------------------

    def attach_exporter(
        self,
        *sinks: "ExportSink",
        batch_size: int = 256,
        flush_interval: float = 0.05,
        metrics_interval: float | None = 1.0,
        cpu_budget: float | None = None,
        name: str | None = None,
        start: bool = True,
    ) -> "TelemetryExporter":
        """Attach (and by default start) a batched export pipeline.

        ``sinks`` are any :class:`~repro.telemetry.sinks.ExportSink`
        instances; the exporter drains the trace bus and periodically the
        metric series into all of them from its own thread.  See
        :mod:`repro.telemetry.export` for the back-pressure/drop contract.
        """
        # Imported lazily: the hub is on the instrumentation path and must
        # not pay for the export machinery unless a pipeline is attached.
        from repro.telemetry.export import TelemetryExporter

        exporter = TelemetryExporter(
            self, sinks, batch_size=batch_size, flush_interval=flush_interval,
            metrics_interval=metrics_interval, cpu_budget=cpu_budget,
            name=name or f"exporter-{len(self.exporters) + 1}")
        self.exporters.append(exporter)
        if start:
            exporter.start()
        return exporter

    def close_exporters(self) -> None:
        """Close every attached exporter (flushing what they buffered)."""
        for exporter in self.exporters:
            exporter.close()
        self.exporters.clear()

    # -- capture + aggregation ---------------------------------------------

    def emit(self, event: ev.TraceEvent) -> None:
        """Buffer ``event`` and fold it into the metric series."""
        self.bus.record(event)
        fold = self._folds.get(type(event))
        if fold is None:
            fold = self._resolve_fold(type(event))
        fold(self._bound, event)

    def _resolve_fold(self, cls: type[ev.TraceEvent]) -> _Fold:
        fold = next((_FOLDS[base] for base in cls.__mro__ if base in _FOLDS),
                    _fold_nothing)
        self._folds[cls] = fold
        return fold

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Plain-data summary for ``introspect.describe_system``."""
        return {
            "enabled": True,
            "events_captured": self.bus.emitted,
            "events_buffered": len(self.bus),
            "events_dropped": self.bus.dropped,
            "buffer_capacity": self.bus.capacity,
            "exporters": [exporter.describe() for exporter in self.exporters],
            "metrics": self.metrics.snapshot(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Telemetry(events={self.bus.emitted}, dropped={self.bus.dropped})"


# ---------------------------------------------------------------------------
# Human-facing rendering
# ---------------------------------------------------------------------------


#: Counter families rolled up (across label sets) into the dashboard's
#: health section, in display order.
_HEALTH_COUNTERS = (
    "handler_failures_total",
    "handler_retries_total",
    "handler_deadline_exceeded_total",
    "circuits_opened_total",
    "circuits_closed_total",
    "wave_poisoned_total",
    "scheduler_refresh_errors_total",
)


def render_dashboard(telemetry: Telemetry, width: int = 68,
                     lock_policy: Any = None) -> str:
    """Text dashboard over the aggregated metric series.

    ``lock_policy`` — a :class:`~repro.metadata.locks.LockPolicy` (e.g.
    ``system.lock_policy``) — adds a lock-contention section: aggregate
    acquisition/contention/wait counters plus the hottest individual locks,
    the view that names the lock threads wait on.
    """
    snap = telemetry.metrics.snapshot()
    lines = ["telemetry dashboard".center(width, "-")]
    lines.append(
        f"events: {telemetry.bus.emitted} captured, "
        f"{len(telemetry.bus)} buffered, {telemetry.bus.dropped} dropped"
    )
    if telemetry.bus.dropped:
        lines.append(
            f"  !! ring overflow: {telemetry.bus.dropped} events overwritten "
            f"unread (trace_events_dropped_total) — raise the capacity or "
            f"attach an exporter that keeps up"
        )
    if telemetry.exporters:
        lines.append("")
        lines.append("exporters")
        for exporter in telemetry.exporters:
            state = "running" if exporter.running else "stopped"
            lines.append(f"  {exporter.name} [{state}]")
            for line in exporter.format_progress():
                lines.append(f"    {line}")
    health_total: dict[str, float] = {}
    for name, value in snap["counters"].items():
        base = name.split("{", 1)[0]
        if base in _HEALTH_COUNTERS:
            health_total[base] = health_total.get(base, 0) + value
    circuits_open = snap["gauges"].get("circuits_open", 0)
    if circuits_open or health_total:
        lines.append("")
        lines.append("health")
        lines.append(f"  {'circuits open now':<50} {circuits_open:>10g}")
        for base in _HEALTH_COUNTERS:
            if base in health_total:
                lines.append(f"  {base:<50} {health_total[base]:>10g}")
    if snap["counters"]:
        lines.append("")
        lines.append("counters")
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<50} {value:>10}")
    if snap["gauges"]:
        lines.append("")
        lines.append("gauges")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:<50} {value:>10g}")
    if snap["histograms"]:
        lines.append("")
        lines.append("histograms")
        for name, data in snap["histograms"].items():
            lines.append(
                f"  {name:<38} count={data['count']:<8} "
                f"mean={data['mean']:.6g}"
            )
    if lock_policy is not None:
        stats = lock_policy.aggregate_stats()
        if stats.read_acquired or stats.write_acquired:
            lines.append("")
            lines.append("locks")
            lines.append(f"  {'acquired (read/write)':<38} "
                         f"{stats.read_acquired:>14}/{stats.write_acquired}")
            lines.append(f"  {'contended (read/write)':<38} "
                         f"{stats.read_contended:>14}/{stats.write_contended}")
            lines.append(f"  {'wait seconds (read/write)':<38} "
                         f"{stats.read_wait_seconds:>14.6f}"
                         f"/{stats.write_wait_seconds:.6f}")
            hot = lock_policy.hot_locks()
            if hot:
                lines.append("  hottest locks")
                for entry in hot:
                    acquired = (entry["read_acquired"]
                                + entry["write_acquired"])
                    contended = (entry["read_contended"]
                                 + entry["write_contended"])
                    waited = (entry["read_wait_seconds"]
                              + entry["write_wait_seconds"])
                    lines.append(
                        f"    {entry['name']:<36} acq={acquired:<8} "
                        f"cont={contended:<6} wait={waited:.6f}s")
    lines.append("-" * width)
    return "\n".join(lines)


def _ident(node: str, key: str) -> str:
    return f"{node}/{key}"


def format_span(telemetry: Telemetry, span: int) -> str:
    """Render one causal span (subscribe chain or wave) as an indented log."""
    return _format_events(span, telemetry.bus.span_events(span))


def _format_events(span: int, events: Sequence[ev.TraceEvent]) -> str:
    if not events:
        return f"span {span}: no buffered events"
    # A wave's summary is recorded when the wave ends; its framing is
    # rendered where the wave began and ended, around its members' records.
    waves = [event for event in events if isinstance(event, ev.WaveSummary)]
    lines: list[str] = []
    for wave in waves:
        lines.append(
            f"  t={wave.ts:g} enqueued by change of {wave.source}"
            f" (queue depth {wave.pending})"
        )
        lines.extend(f"    coalesced call enqueued as span {folded}"
                     for folded in wave.folded)
        merged = f" merging {wave.sources} sources" if wave.sources > 1 else ""
        lines.append(
            f"  t={wave.ts:g} wave started at {wave.source}"
            f" covering {wave.wave_size} handler(s){merged}"
        )
    for event in events:
        if isinstance(event, ev.WaveSummary):
            continue
        if isinstance(event, ev.WaveRefresh):
            target = _ident(event.node, event.key)
            lines.extend(f"    hop {origin} -> {target}" for origin in event.via)
            status = "error" if event.error else (
                "changed" if event.changed else "unchanged")
            lines.append(
                f"    refresh {target} [{status}]"
                f" ({event.duration * 1e6:.1f}us)"
            )
        elif isinstance(event, ev.WaveSuppressed):
            lines.append(
                f"    suppressed {_ident(event.node, event.key)}"
                f" ({event.reason})"
            )
        elif isinstance(event, ev.WavePoisoned):
            lines.append(
                f"    poisoned {_ident(event.node, event.key)}"
                f" ({event.reason}) — subtree skipped, stale value served"
            )
        elif isinstance(event, ev.HandlerFailure):
            deadline = " [deadline]" if event.deadline_exceeded else ""
            lines.append(
                f"    failure {_ident(event.node, event.key)}{deadline}: "
                f"{event.error} (streak {event.consecutive})"
            )
        elif isinstance(event, ev.RetryScheduled):
            when = ("immediately" if event.delay == 0
                    else f"in {event.delay:g}")
            lines.append(
                f"    retry #{event.attempt} of {_ident(event.node, event.key)}"
                f" {when}"
            )
        elif isinstance(event, ev.CircuitOpen):
            mark = "re-opened" if event.reopened else "opened"
            lines.append(
                f"    circuit {mark} for {_ident(event.node, event.key)}"
                f" after {event.failures} consecutive failure(s)"
            )
        elif isinstance(event, ev.CircuitHalfOpen):
            lines.append(
                f"    circuit half-open: probing {_ident(event.node, event.key)}"
            )
        elif isinstance(event, ev.CircuitClose):
            lines.append(
                f"    circuit closed: {_ident(event.node, event.key)} recovered"
            )
        elif isinstance(event, ev.SubscribeEvent):
            lines.append(
                f"  t={event.ts:g} subscribe {_ident(event.node, event.key)}"
            )
        elif isinstance(event, ev.UnsubscribeEvent):
            lines.append(
                f"  t={event.ts:g} unsubscribe {_ident(event.node, event.key)}"
            )
        elif isinstance(event, ev.IncludeEvent):
            mark = "shared" if event.shared else "new handler"
            lines.append(
                f"    {'  ' * event.depth}include {_ident(event.node, event.key)}"
                f" [{mark}]"
            )
        elif isinstance(event, ev.ExcludeEvent):
            mark = "removed" if event.removed else "still shared"
            lines.append(
                f"    exclude {_ident(event.node, event.key)} [{mark}]"
            )
        else:
            lines.append(f"    {event.kind}")
    for wave in waves:
        poisoned = f", {wave.poisoned} poisoned" if wave.poisoned else ""
        lines.append(
            f"  wave end: {wave.refreshed} refreshed, "
            f"{wave.suppressed} suppressed, {wave.errors} error(s){poisoned}"
        )
    return "\n".join([f"span {span} ({len(lines)} events)", *lines])


def explain_refresh(telemetry: Telemetry, node: Any, key: Any) -> str:
    """Why did this handler refresh?  Render the causal wave cascade behind
    the most recent (buffered) refresh of ``(node, key)``.

    ``node`` may be a graph node or a name; ``key`` a ``MetadataKey`` or its
    string form.  Returns the span log of the triggering wave narrowed to
    the item's causal ancestors: the enqueueing change, every dependency hop
    that leads to the item with the refreshes along it, and the wave's end.
    A scheduler tick's wave covers every due source; the items its other
    sources reached are none of this one's business.

    When the handler's most recent wave involvement was a *poisoning*
    (compute failure, poisoned input, or quarantine skip) rather than a
    refresh, the explanation leads with that failure causality instead.
    """
    node_name = str(getattr(node, "name", node))
    key_name = ev.key_of(key)
    latest: ev.TraceEvent | None = None
    for kind in ("wave.refresh", "wave.poisoned"):
        for event in reversed(telemetry.bus.events(kind=kind)):
            if event.node == node_name and event.key == key_name:  # type: ignore[attr-defined]
                if latest is None or event.mono > latest.mono:
                    latest = event
                break
    if latest is None:
        return f"no buffered wave refresh of {node_name}/{key_name}"
    if isinstance(latest, ev.WavePoisoned):
        header = (
            f"why is {node_name}/{key_name} stale?  "
            f"(poisoned at t={latest.ts:g}: {latest.reason})"
        )
    else:
        header = (
            f"why did {node_name}/{key_name} refresh?  "
            f"(last refresh at t={latest.ts:g})"
        )
    return header + "\n" + _format_events(latest.span, _causal_ancestors(
        telemetry.bus.span_events(latest.span), _ident(node_name, key_name)))


def _causal_ancestors(events: Sequence[ev.TraceEvent],
                      item: str) -> list[ev.TraceEvent]:
    """The events of one wave's span that lie on a hop chain into ``item``
    (a ``node/key`` ident).

    Walks the refreshes' ``via`` backwards from the item; per-item events
    (refreshes, suppressions) off that chain are dropped, everything else
    (the wave summary, failure causality) stays.  A multi-source wave's
    summary names its *first* source, so it is re-addressed to the source
    the chain starts from.
    """
    into: dict[str, list[str]] = {}
    for event in events:
        if isinstance(event, ev.WaveRefresh) and event.via:
            into.setdefault(_ident(event.node, event.key), []).extend(event.via)
    chain = {item}
    frontier = [item]
    while frontier:
        for origin in into.get(frontier.pop(), ()):
            if origin not in chain:
                chain.add(origin)
                frontier.append(origin)
    root = next((link for link in chain if link not in into), item)
    kept: list[ev.TraceEvent] = []
    for event in events:
        if isinstance(event, (ev.WaveRefresh, ev.WaveSuppressed)):
            if _ident(event.node, event.key) not in chain:
                continue
        elif isinstance(event, ev.WaveSummary) and event.sources > 1:
            event = dataclasses.replace(event, source=root)
        kept.append(event)
    return kept

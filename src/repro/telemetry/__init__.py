"""Observability for the metadata runtime itself.

The paper argues that only *currently required* metadata should be
maintained (Sections 2 and 4.4.1); this package makes that working set — and
the machinery maintaining it — observable in motion:

* :mod:`repro.telemetry.events` — typed trace events, one per fact, for
  every lifecycle the runtime executes (subscribe/include chains whose
  unshared includes are the handler creations, exclude cascades whose
  removing excludes are the retirements, propagation waves with causal
  span ids, one record per refreshed member and one summary per wave,
  periodic scheduling, probe activation);
* :mod:`repro.telemetry.trace` — the thread-safe ring-buffered trace bus,
  read through one kind of cursor (``bus.subscribe()``);
* :mod:`repro.telemetry.metrics` — counters/gauges/fixed-bound histograms
  with a Prometheus-text exporter;
* :mod:`repro.telemetry.hub` — the :class:`Telemetry` facade the runtime's
  hooks emit into, plus the text dashboard and the "why did this handler
  refresh?" span renderer;
* :mod:`repro.telemetry.export` / :mod:`repro.telemetry.sinks` — the
  batched, back-pressured export pipeline: a drainer thread pulls bounded
  batches off the trace bus and ships traces + metric snapshots to rotating
  jsonl files or a TCP line-protocol peer — with O(batch) memory and exact
  drop accounting under overload (``telemetry.attach_exporter(...)``);
* :mod:`repro.telemetry.wire` — the normalized line stream the line sinks
  write (handler ids declared once per stream, defaults omitted, integer
  nanoseconds) and :func:`load_trace`, which reads it back into events.

Telemetry is off by default and costs a single ``is None`` check per hook
while disabled — the same zero-overhead-when-inactive discipline the paper's
monitoring probes follow.  Enable it per system::

    telemetry = graph.metadata_system.enable_telemetry()
    ...
    print(render_dashboard(telemetry))
    print(explain_refresh(telemetry, join, md.EST_CPU_USAGE))
    prometheus_text = telemetry.metrics.to_prometheus()
    # ...or, from an exported file:
    print(explain_refresh(load_trace("trace.jsonl"), join, md.EST_CPU_USAGE))
"""

from repro.telemetry.events import (
    ExcludeEvent,
    HandlerRefresh,
    IncludeEvent,
    ProbeActivated,
    ProbeDeactivated,
    SchedulerCancel,
    SubscribeEvent,
    TraceEvent,
    UnsubscribeEvent,
    WaveRefresh,
    WaveSummary,
    WaveSuppressed,
    key_of,
    node_of,
)
from repro.telemetry.hub import (
    Telemetry,
    explain_refresh,
    format_span,
    render_dashboard,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.export import SinkProgress, TelemetryExporter
from repro.telemetry.sinks import (
    EventBatch,
    ExportSink,
    JsonlFileSink,
    TcpLineSink,
)
from repro.telemetry.trace import TraceBus, TraceSubscription
from repro.telemetry.wire import StreamEncoder, decode_lines, load_trace

__all__ = [
    "Telemetry",
    "TelemetryExporter",
    "SinkProgress",
    "ExportSink",
    "EventBatch",
    "JsonlFileSink",
    "TcpLineSink",
    "TraceBus",
    "TraceSubscription",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
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
    "WaveSummary",
    "SchedulerCancel",
    "render_dashboard",
    "explain_refresh",
    "format_span",
    "StreamEncoder",
    "decode_lines",
    "load_trace",
    "key_of",
    "node_of",
]

"""Batched, back-pressured export of telemetry to pluggable sinks.

This is the shipping side of the observability stack: the in-process
:class:`~repro.telemetry.hub.Telemetry` hub captures traces and aggregates
metrics; a :class:`TelemetryExporter` continuously *drains* both out of the
process through :mod:`~repro.telemetry.sinks` — without ever letting
observability become the bottleneck of the observed system.

The pipeline is batch → render → write, with constant memory (the ADR-007
discipline):

* **bounded queue** — the exporter pulls from a
  :class:`~repro.telemetry.trace.TraceSubscription`, a cursor over the trace
  bus's existing bounded ring.  No second queue exists: memory is
  O(ring capacity) for capture plus O(batch) inside the exporter, no matter
  how fast events arrive.
* **never block the emitter** — when the drainer falls behind, the ring
  overwrites the oldest unread events and the subscription counts them as
  drops (exact accounting, surfaced per exporter).  Recording stays one
  lock + one slot store; an exporter that keeps up also keeps the bus's
  own drop counter at zero, because overwriting delivered events is not a
  loss.
* **own drainer thread** — batches of up to ``batch_size`` events are
  handed to every sink as one :class:`~repro.telemetry.sinks.EventBatch`
  (the events, and their normalized JSON lines of
  :mod:`repro.telemetry.wire` rendered once by the exporter's encoder for
  all line sinks); a failing sink is counted
  (``export_sink_errors_total``) and skipped for that batch, never retried
  synchronously, never allowed to stall the other sinks.
* **explicit flush/close** — :meth:`TelemetryExporter.flush` synchronously
  delivers everything currently buffered; :meth:`TelemetryExporter.close`
  stops the drainer, flushes, writes a final metrics snapshot and closes
  the sinks.  Close-time delivery is complete: every event still retained
  by the ring reaches the sinks.

Metrics travel in-band: every ``metrics_interval`` seconds (and once at
close) the exporter writes a ``{"kind": "metrics.snapshot", ...}`` record
carrying the full registry snapshot, so one jsonl file or TCP stream holds
the complete observability feed.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence, TYPE_CHECKING

from repro.telemetry.sinks import Batch, EventBatch, ExportSink, Record
from repro.telemetry.trace import TraceSubscription
from repro.telemetry.wire import StreamEncoder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (hub -> export)
    from repro.telemetry.hub import Telemetry

__all__ = ["TelemetryExporter", "SinkProgress", "format_events"]

log = logging.getLogger(__name__)


def format_events(count: int) -> str:
    """Human-friendly event count (``45200`` -> ``"45.2k"``)."""
    if count >= 1_000_000:
        return f"{count / 1_000_000:.1f}M"
    if count >= 1_000:
        return f"{count / 1_000:.1f}k"
    return str(count)


@dataclass
class SinkProgress:
    """Per-sink delivery accounting (readable live; updated by the drainer)."""

    name: str
    batches: int = 0
    events: int = 0
    #: Events lost to this sink because a write raised (other sinks still
    #: received them; queue-level drops are accounted on the exporter).
    dropped: int = 0
    errors: int = 0
    last_error: str = ""
    _logged: bool = field(default=False, repr=False)

    def format(self) -> str:
        """Progress line: ``jsonl: batch 150, 45.2k events, 0 dropped``."""
        line = (f"{self.name}: batch {self.batches}, "
                f"{format_events(self.events)} events, {self.dropped} dropped")
        if self.errors:
            line += f", {self.errors} errors"
        return line

    def describe(self) -> dict[str, Any]:
        return {
            "sink": self.name,
            "batches": self.batches,
            "events": self.events,
            "dropped": self.dropped,
            "errors": self.errors,
            **({"last_error": self.last_error} if self.last_error else {}),
        }


class TelemetryExporter:
    """Drains one :class:`Telemetry` hub into one or more sinks.

    Construct through :meth:`Telemetry.attach_exporter`, which also starts
    the drainer thread and registers the exporter for ``describe_system``
    health reporting.  The exporter is a context manager; leaving the
    ``with`` block closes it (flushing everything buffered).
    """

    def __init__(
        self,
        telemetry: "Telemetry",
        sinks: Sequence[ExportSink],
        *,
        batch_size: int = 256,
        flush_interval: float = 0.05,
        metrics_interval: float | None = 1.0,
        name: str = "exporter",
    ) -> None:
        if not sinks:
            raise ValueError("exporter needs at least one sink")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if flush_interval <= 0:
            raise ValueError(
                f"flush_interval must be positive, got {flush_interval}")
        if metrics_interval is not None and metrics_interval <= 0:
            raise ValueError(
                f"metrics_interval must be positive or None, "
                f"got {metrics_interval}")
        self.name = name
        self.telemetry = telemetry
        self.sinks = list(sinks)
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.metrics_interval = metrics_interval
        self.progress: list[SinkProgress] = [
            SinkProgress(sink.name) for sink in self.sinks
        ]
        self.metrics_snapshots = 0
        self.subscription: TraceSubscription = telemetry.bus.subscribe(name)
        #: Renders every batch's lines; its ids are shared by the sinks'
        #: line streams.
        self.encoder = StreamEncoder(telemetry.mechanisms)
        # Serializes delivery between the drainer thread and explicit
        # flush()/close() callers; sinks therefore never see concurrent
        # write_batch calls from one exporter.
        self._deliver_lock = threading.Lock()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._closed = False
        self._queue_drops_synced = 0
        self._thread = threading.Thread(
            target=self._drain_loop, name=f"telemetry-{name}", daemon=True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetryExporter":
        """Start the drainer thread (idempotent)."""
        if not self._thread.is_alive() and not self._closed:
            try:
                self._thread.start()
            except RuntimeError:  # already started once and finished
                pass
        return self

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def __enter__(self) -> "TelemetryExporter":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the drainer -------------------------------------------------------

    def _drain_loop(self) -> None:
        next_metrics = (
            time.monotonic() + self.metrics_interval
            if self.metrics_interval is not None else None)
        while not self._stop.is_set():
            self._wake.wait(self.flush_interval)
            self._wake.clear()
            while not self._stop.is_set() and self._drain_once():
                pass
            if next_metrics is not None and time.monotonic() >= next_metrics:
                self._export_metrics()
                assert self.metrics_interval is not None
                next_metrics = time.monotonic() + self.metrics_interval

    def _drain_once(self) -> int:
        """Deliver at most one batch; returns the number of events drained."""
        with self._deliver_lock:
            batch = self.subscription.pop_batch(self.batch_size)
            if not batch:
                return 0
            self._deliver(EventBatch(batch, self.encoder))
            return len(batch)

    def _deliver(self, batch: Batch) -> None:
        # Caller holds _deliver_lock.
        metrics = self.telemetry.metrics
        for sink, progress in zip(self.sinks, self.progress):
            try:
                sink.write_batch(batch)
            except Exception as exc:
                progress.errors += 1
                progress.dropped += len(batch)
                progress.last_error = repr(exc)
                metrics.counter(
                    "export_sink_errors_total", {"sink": sink.name}).inc()
                if not progress._logged:
                    progress._logged = True
                    log.warning(
                        "telemetry exporter %s: sink %s raised; batches "
                        "will be dropped for it until it recovers",
                        self.name, sink.name, exc_info=True)
            else:
                progress.batches += 1
                progress.events += len(batch)
        # Fold ring-overwrite drops into the metric series (drainer-only
        # counter sync, so the increment is race-free).
        drops = self.subscription.dropped
        if drops > self._queue_drops_synced:
            metrics.counter(
                "export_queue_dropped_total", {"exporter": self.name}
            ).inc(drops - self._queue_drops_synced)
            self._queue_drops_synced = drops

    def _export_metrics(self) -> None:
        """Write one in-band metrics snapshot record to every sink."""
        bus = self.telemetry.bus
        record: Record = {
            "kind": "metrics.snapshot",
            "ts": bus.now(),
            "mono": time.monotonic(),
            "exporter": self.name,
            "series": self.telemetry.metrics.snapshot(),
        }
        with self._deliver_lock:
            self._deliver([record])
        self.metrics_snapshots += 1

    # -- explicit flush / close --------------------------------------------

    def flush(self) -> None:
        """Synchronously deliver every event currently buffered, then flush
        the sinks.  Safe to call concurrently with the running drainer."""
        while self._drain_once():
            pass
        with self._deliver_lock:
            for sink, progress in zip(self.sinks, self.progress):
                try:
                    sink.flush()
                except Exception as exc:
                    progress.errors += 1
                    progress.last_error = repr(exc)

    def close(self) -> None:
        """Stop the drainer, deliver everything still enqueued, write a
        final metrics snapshot and close the sinks.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join(timeout=10.0)
            if self._thread.is_alive():  # pragma: no cover - hung sink
                log.warning("telemetry exporter %s: drainer did not stop "
                            "within 10s (hung sink?)", self.name)
        while self._drain_once():
            pass
        if self.metrics_interval is not None:
            self._export_metrics()
        with self._deliver_lock:
            for sink, progress in zip(self.sinks, self.progress):
                try:
                    sink.flush()
                    sink.close()
                except Exception as exc:
                    progress.errors += 1
                    progress.last_error = repr(exc)
        self.subscription.close()

    # -- health ------------------------------------------------------------

    def format_progress(self) -> list[str]:
        """Per-sink progress lines plus the queue/drop summary."""
        lines = [progress.format() for progress in self.progress]
        lines.append(
            f"queue: {self.subscription.pending()} pending, "
            f"{self.subscription.delivered} delivered, "
            f"{self.subscription.dropped} dropped")
        return lines

    def describe(self) -> dict[str, Any]:
        """Plain-data export health for ``describe_system``."""
        return {
            "name": self.name,
            "running": self.running,
            "closed": self._closed,
            "batch_size": self.batch_size,
            "metrics_snapshots": self.metrics_snapshots,
            "queue": {
                "capacity": self.telemetry.bus.capacity,
                "pending": self.subscription.pending(),
                "delivered": self.subscription.delivered,
                "dropped": self.subscription.dropped,
            },
            "sinks": [progress.describe() for progress in self.progress],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TelemetryExporter({self.name!r}, sinks={len(self.sinks)}, "
                f"running={self.running})")

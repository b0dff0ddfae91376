"""Tests for the telemetry export pipeline (exporter, sinks, subscriptions).

The contracts under test are the ones `docs/METADATA_GUIDE.md` promises:

* the bounded queue **drops and counts** under overload — it never blocks
  or slows the emitting thread;
* ``flush``/``close`` deliver every event still retained by the ring;
* the TCP sink reconnects with backoff after a dropped connection;
* every cursor on one bus reads the same event sequence.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
import tracemalloc

import pytest

from repro.telemetry.events import TraceEvent, WaveRefresh, WaveSummary
from repro.telemetry.hub import Telemetry, render_dashboard
from repro.telemetry import sinks as sinks_module
from repro.telemetry.sinks import (
    EventBatch,
    ExportSink,
    JsonlFileSink,
    TcpLineSink,
)
from repro.telemetry.trace import TraceBus
from repro.telemetry.wire import StreamEncoder


class CollectingSink(ExportSink):
    """Test double: records every batch, optionally failing on demand."""

    name = "collect"

    def __init__(self) -> None:
        self.batches: list[list] = []
        self.flushes = 0
        self.closes = 0
        self.fail = False

    def write_batch(self, batch) -> None:
        if self.fail:
            raise IOError("sink down")
        self.batches.append(list(batch))

    def flush(self) -> None:
        self.flushes += 1

    def close(self) -> None:
        self.closes += 1

    @property
    def items(self) -> list:
        """Everything written: trace events and metrics snapshot dicts."""
        return [item for batch in self.batches for item in batch]

    def events(self) -> list[TraceEvent]:
        return [item for item in self.items if isinstance(item, TraceEvent)]

    def snapshots(self) -> list[dict]:
        return [item for item in self.items if isinstance(item, dict)]


def drain_events(sink: CollectingSink) -> list[str]:
    return [event.source for event in sink.events()]


# ---------------------------------------------------------------------------
# TraceSubscription — the bounded pull cursor
# ---------------------------------------------------------------------------


class TestTraceSubscription:
    def test_pop_batch_returns_events_in_order(self):
        bus = TraceBus(capacity=16)
        sub = bus.subscribe()
        for i in range(5):
            bus.record(WaveSummary(source=f"n{i}"))
        batch = sub.pop_batch(3)
        assert [e.source for e in batch] == ["n0", "n1", "n2"]
        assert [e.source for e in sub.pop_batch(10)] == ["n3", "n4"]
        assert sub.pop_batch() == []
        assert sub.delivered == 5

    def test_subscription_starts_at_now_not_history(self):
        bus = TraceBus(capacity=16)
        bus.record(WaveSummary(source="old"))
        sub = bus.subscribe()
        bus.record(WaveSummary(source="new"))
        assert [e.source for e in sub.pop_batch()] == ["new"]

    def test_overflow_drops_oldest_and_counts_exactly(self):
        bus = TraceBus(capacity=8)
        sub = bus.subscribe()
        for i in range(30):
            bus.record(WaveSummary(source=f"n{i}"))
        batch = sub.pop_batch(100)
        # The ring holds the newest 8; everything older was overwritten.
        assert [e.source for e in batch] == [f"n{i}" for i in range(22, 30)]
        assert sub.dropped == 22
        assert sub.delivered + sub.dropped == bus.emitted

    def test_slow_consumer_never_blocks_emitter(self):
        bus = TraceBus(capacity=4)
        bus.subscribe()  # never popped: the worst possible consumer
        started = time.perf_counter()
        for i in range(10_000):
            bus.record(WaveSummary(source=f"n{i}"))
        elapsed = time.perf_counter() - started
        # 10k records must complete promptly (no waits anywhere on the
        # emitting path); generous bound for slow CI boxes.
        assert elapsed < 2.0
        assert bus.emitted == 10_000

    def test_pending_and_lag(self):
        bus = TraceBus(capacity=4)
        sub = bus.subscribe()
        for i in range(6):
            bus.record(WaveSummary(source=f"n{i}"))
        assert sub.pending() == 4     # retained by the ring
        assert sub.lag() == 6         # includes the 2 already overwritten
        sub.pop_batch(100)
        assert sub.pending() == 0
        assert sub.dropped == 2

    def test_clear_skips_ahead_without_counting_drops(self):
        bus = TraceBus(capacity=8)
        sub = bus.subscribe()
        for _ in range(5):
            bus.record(WaveSummary())
        bus.clear()
        assert sub.pop_batch() == []
        assert sub.dropped == 0

    def test_every_cursor_reads_the_same_sequence(self):
        tel = Telemetry(capacity=4096)
        cursors = [tel.bus.subscribe(f"tail-{i}") for i in range(5)]
        exporter = tel.attach_exporter(CollectingSink(), metrics_interval=None,
                                       start=False)
        for i in range(300):
            tel.emit(WaveSummary(source=f"n{i}"))
        exporter.close()
        sequences = [[e.source for e in cursor.pop_batch(1000)]
                     for cursor in cursors]
        assert sequences[0] == [f"n{i}" for i in range(300)]
        assert all(seq == sequences[0] for seq in sequences)
        assert drain_events(exporter.sinks[0]) == sequences[0]

    def test_close_detaches(self):
        bus = TraceBus()
        sub = bus.subscribe()
        sub.close()
        bus.record(WaveSummary())
        assert sub.pop_batch() == []
        assert bus.subscriptions() == []

    def test_concurrent_producers_exact_accounting(self):
        bus = TraceBus(capacity=64)
        sub = bus.subscribe()
        total = 0
        done = threading.Event()

        def produce(n):
            for _ in range(n):
                bus.record(WaveSummary())

        threads = [threading.Thread(target=produce, args=(500,))
                   for _ in range(4)]
        for t in threads:
            t.start()
        drained = 0
        while any(t.is_alive() for t in threads) or sub.pending():
            drained += len(sub.pop_batch(32))
        for t in threads:
            t.join()
        drained += len(sub.pop_batch(10_000))
        assert drained + sub.dropped == 2000
        assert sub.delivered == drained


# ---------------------------------------------------------------------------
# The exporter drainer
# ---------------------------------------------------------------------------


class TestTelemetryExporter:
    def test_flush_on_close_delivers_all_enqueued(self):
        tel = Telemetry(capacity=4096)
        sink = CollectingSink()
        exporter = tel.attach_exporter(sink, flush_interval=5.0,
                                       metrics_interval=None, start=False)
        for i in range(700):
            tel.emit(WaveSummary(source=f"n{i}"))
        exporter.close()
        assert drain_events(sink) == [f"n{i}" for i in range(700)]
        assert sink.closes == 1
        # 700 events at batch_size 256 -> 3 batches.
        assert [len(b) for b in sink.batches] == [256, 256, 188]

    def test_overflow_drops_and_counts_never_blocks(self):
        tel = Telemetry(capacity=32)
        sink = CollectingSink()
        exporter = tel.attach_exporter(sink, flush_interval=5.0,
                                       metrics_interval=None, start=False)
        for i in range(1000):
            tel.emit(WaveSummary(source=f"n{i}"))
        exporter.close()
        sub = exporter.subscription
        assert len(drain_events(sink)) == sub.delivered
        assert sub.delivered + sub.dropped == 1000
        assert sub.dropped == 1000 - 32
        # Queue drops are mirrored into the metric series.
        counter = tel.metrics.counter(
            "export_queue_dropped_total", {"exporter": exporter.name})
        assert counter.value == sub.dropped

    def test_memory_stays_flat_as_event_count_grows(self):
        """Exporting 10x the events peaks within one ring plus one batch of
        the smaller run: the exporter holds O(ring + batch), not O(events)."""
        ring, batch = 256, 64

        class NullSink(ExportSink):
            name = "null"

            def write_batch(self, batch) -> None:
                pass

        def traced_peak(events: int) -> int:
            tel = Telemetry(capacity=ring)
            exporter = tel.attach_exporter(
                NullSink(), batch_size=batch, metrics_interval=None,
                start=False)
            tracemalloc.start()
            try:
                for i in range(events):
                    tel.emit(WaveRefresh(node="n", key="k", changed=True))
                    if i % batch == batch - 1:
                        exporter.flush()
                exporter.close()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # What one retained event costs: a full ring of them, per slot.
        tel = Telemetry(capacity=ring)
        tracemalloc.start()
        try:
            for _ in range(ring):
                tel.emit(WaveRefresh(node="n", key="k", changed=True))
            event_bytes = tracemalloc.get_traced_memory()[0] / ring
        finally:
            tracemalloc.stop()

        events = 4 * ring
        assert (traced_peak(10 * events)
                <= traced_peak(events) + (ring + batch) * event_bytes)

    def test_background_drainer_delivers_without_flush(self):
        tel = Telemetry(capacity=4096)
        sink = CollectingSink()
        exporter = tel.attach_exporter(sink, flush_interval=0.005,
                                       metrics_interval=None)
        for i in range(10):
            tel.emit(WaveSummary(source=f"n{i}"))
        deadline = time.monotonic() + 5.0
        while len(sink.events()) < 10 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert drain_events(sink) == [f"n{i}" for i in range(10)]
        exporter.close()

    def test_failing_sink_counts_and_other_sinks_unaffected(self, caplog):
        tel = Telemetry(capacity=4096)
        bad, good = CollectingSink(), CollectingSink()
        bad.fail = True
        exporter = tel.attach_exporter(bad, good, flush_interval=5.0,
                                       metrics_interval=None, start=False)
        for i in range(10):
            tel.emit(WaveSummary(source=f"n{i}"))
        with caplog.at_level("WARNING", logger="repro.telemetry.export"):
            exporter.flush()
        assert len(drain_events(good)) == 10
        bad_progress, good_progress = exporter.progress
        assert bad_progress.errors == 1
        assert bad_progress.dropped == 10
        assert good_progress.events == 10
        assert tel.metrics.counter(
            "export_sink_errors_total", {"sink": "collect"}).value >= 1
        assert any("sink" in r.message for r in caplog.records)
        # The warning is emitted once, not per batch.
        for i in range(10):
            tel.emit(WaveSummary(source=f"m{i}"))
        with caplog.at_level("WARNING", logger="repro.telemetry.export"):
            count_before = len(caplog.records)
            exporter.flush()
        assert len(caplog.records) == count_before
        exporter.close()

    def test_metrics_snapshot_records_travel_in_band(self):
        tel = Telemetry(capacity=4096)
        sink = CollectingSink()
        exporter = tel.attach_exporter(sink, flush_interval=5.0,
                                       metrics_interval=1.0, start=False)
        tel.emit(WaveSummary(source="n"))
        exporter.close()  # close writes one final snapshot
        snapshots = sink.snapshots()
        assert len(snapshots) == 1
        assert snapshots[0]["kind"] == "metrics.snapshot"
        assert "waves_total" in snapshots[0]["series"]["counters"]
        assert exporter.metrics_snapshots == 1

    def test_progress_format(self):
        tel = Telemetry(capacity=65536)
        sink = CollectingSink()
        exporter = tel.attach_exporter(sink, metrics_interval=None,
                                       start=False)
        for i in range(45_200):
            tel.emit(WaveSummary(source="n"))
        exporter.flush()
        # 45_200 events / 256 per batch -> 177 batches.
        line = exporter.progress[0].format()
        assert line == "collect: batch 177, 45.2k events, 0 dropped"
        exporter.close()

    def test_describe_and_dashboard_surface_export_health(self):
        tel = Telemetry(capacity=4096)
        sink = CollectingSink()
        exporter = tel.attach_exporter(sink, metrics_interval=None,
                                       name="ship", start=False)
        tel.emit(WaveSummary(source="n"))
        exporter.flush()
        described = tel.describe()
        assert described["exporters"][0]["name"] == "ship"
        assert described["exporters"][0]["sinks"][0]["events"] == 1
        dashboard = render_dashboard(tel)
        assert "exporters" in dashboard
        assert "ship" in dashboard
        exporter.close()

    def test_close_is_idempotent_and_context_manager_closes(self):
        tel = Telemetry(capacity=64)
        sink = CollectingSink()
        with tel.attach_exporter(sink, metrics_interval=None) as exporter:
            tel.emit(WaveSummary(source="n"))
        assert sink.closes == 1
        exporter.close()
        assert sink.closes == 1
        assert not exporter.running

    def test_disable_telemetry_closes_exporters(self):
        from repro.common.clock import VirtualClock
        from repro.metadata.registry import MetadataSystem
        from repro.metadata.scheduling import VirtualTimeScheduler

        clock = VirtualClock()
        system = MetadataSystem(clock, VirtualTimeScheduler(clock))
        telemetry = system.enable_telemetry()
        sink = CollectingSink()
        telemetry.attach_exporter(sink, metrics_interval=None)
        system.disable_telemetry()
        assert sink.closes == 1
        assert telemetry.exporters == []

    def test_validation(self):
        tel = Telemetry()
        with pytest.raises(ValueError):
            tel.attach_exporter()  # no sinks
        with pytest.raises(ValueError):
            tel.attach_exporter(CollectingSink(), batch_size=0)
        with pytest.raises(ValueError):
            tel.attach_exporter(CollectingSink(), flush_interval=0.0)


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------


class TestJsonlFileSink:
    def test_writes_jsonl_and_rotates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlFileSink(path, max_bytes=500, max_files=3)
        record = {"kind": "wave.refresh", "node": "n", "key": "k"}
        for _ in range(4):
            sink.write_batch([record] * 5)
        sink.close()
        rotated = sorted(p.name for p in tmp_path.iterdir())
        assert "trace.jsonl.1" in rotated
        assert sink.rotations >= 1
        # Every kept line is valid JSON.
        for file in tmp_path.iterdir():
            for line in file.read_text().splitlines():
                assert json.loads(line)["kind"] == "wave.refresh"

    def test_rotation_keeps_at_most_max_files(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlFileSink(path, max_bytes=50, max_files=2)
        for i in range(20):
            sink.write_batch([{"kind": "x", "i": i}])
        sink.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["t.jsonl.1", "t.jsonl.2"] or \
            names == ["t.jsonl", "t.jsonl.1", "t.jsonl.2"]

    def test_no_rotation_when_disabled(self, tmp_path):
        sink = JsonlFileSink(tmp_path / "t.jsonl", max_bytes=None)
        sink.write_batch([{"kind": "x"}] * 100)
        sink.close()
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]


class _LineReceiver(socketserver.ThreadingTCPServer):
    """Loopback server collecting received lines; can be torn down."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, port: int = 0):
        self.lines: list[bytes] = []
        self.lines_lock = threading.Lock()
        self.connections: list[socket.socket] = []
        server = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                with server.lines_lock:
                    server.connections.append(self.connection)
                # ``stop()`` tears down live connections; a reset ends the
                # stream like EOF instead of printing a server traceback.
                try:
                    for line in self.rfile:
                        with server.lines_lock:
                            server.lines.append(line.rstrip(b"\n"))
                except ConnectionError:
                    pass

        super().__init__(("127.0.0.1", port), Handler)
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def line_count(self) -> int:
        with self.lines_lock:
            return len(self.lines)

    def stop(self):
        self.shutdown()
        self.server_close()
        # Tear down established connections too, so clients see the drop
        # (the handler threads would otherwise hold them open).
        with self.lines_lock:
            connections = list(self.connections)
            self.connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestTcpLineSink:
    def test_sends_line_protocol(self):
        server = _LineReceiver()
        try:
            sink = TcpLineSink("127.0.0.1", server.port)
            sink.write_batch([{"kind": "a", "n": 1}, {"kind": "b", "n": 2}])
            sink.close()
            assert _wait_for(lambda: server.line_count() == 2)
            assert json.loads(server.lines[0]) == {"kind": "a", "n": 1}
        finally:
            server.stop()

    def test_dropped_connection_arms_backoff(self):
        server = _LineReceiver()
        port = server.port
        sink = TcpLineSink("127.0.0.1", port, connect_timeout=1.0,
                           backoff=60.0, max_backoff=60.0)
        try:
            sink.write_batch([{"kind": "first"}])
            assert _wait_for(lambda: server.line_count() == 1)
            assert sink.connects == 1
        finally:
            server.stop()

        # The peer is gone: writes fail (the first sends may land in the
        # dead socket's buffer before the RST surfaces), disconnecting the
        # sink and arming the backoff window.
        with pytest.raises(OSError):
            for _ in range(100):
                sink.write_batch([{"kind": "lost"}])
                time.sleep(0.001)
        assert not sink.connected
        assert sink.failures >= 1

        # Inside the 60s window: fail fast, no blocking connect attempt.
        started = time.perf_counter()
        with pytest.raises(ConnectionError, match="backing off"):
            sink.write_batch([{"kind": "too-soon"}])
        assert time.perf_counter() - started < 0.5

    def test_reconnect_resumes_delivery(self):
        # connect -> server down -> errors + backoff -> server back on the
        # SAME port -> the sink reconnects once the window elapses.
        server = _LineReceiver()
        port = server.port
        sink = TcpLineSink("127.0.0.1", port, connect_timeout=1.0,
                           backoff=0.02, max_backoff=0.1)
        sink.write_batch([{"kind": "one"}])
        assert _wait_for(lambda: server.line_count() == 1)
        server.stop()

        with pytest.raises(OSError):
            for _ in range(100):
                sink.write_batch([{"kind": "lost"}])
                time.sleep(0.001)

        server2 = _LineReceiver(port)
        try:
            deadline = time.monotonic() + 5.0
            delivered = False
            while time.monotonic() < deadline:
                try:
                    sink.write_batch([{"kind": "after-reconnect"}])
                    delivered = True
                    break
                except OSError:
                    time.sleep(0.02)
            assert delivered
            assert sink.connects == 2
            sink.close()
            assert _wait_for(
                lambda: any(b"after-reconnect" in line
                            for line in server2.lines))
        finally:
            server2.stop()

    def test_connect_failure_arms_backoff(self):
        # Nothing listens on this port (bind-then-close reserves a dead one).
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sink = TcpLineSink("127.0.0.1", port, connect_timeout=0.2,
                           backoff=10.0, max_backoff=10.0)
        with pytest.raises(OSError):
            sink.write_batch([{"kind": "x"}])
        assert sink.failures == 1
        with pytest.raises(ConnectionError, match="backing off"):
            sink.write_batch([{"kind": "y"}])
        assert sink.failures == 1  # fail-fast does not re-count


# ---------------------------------------------------------------------------
# The batch a sink receives: the events + one shared payload
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name: str, owner=sinks_module) -> list[int]:
    """Wrap ``owner.<name>``; the returned list grows by one per call."""
    calls: list[int] = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestEventBatchDelivery:
    def test_line_sinks_share_one_payload_per_batch(self, tmp_path, monkeypatch):
        renders = _count_calls(monkeypatch, "encode", StreamEncoder)
        server = _LineReceiver()
        try:
            tel = Telemetry(capacity=4096)
            path = tmp_path / "trace.jsonl"
            exporter = tel.attach_exporter(
                JsonlFileSink(path), TcpLineSink("127.0.0.1", server.port),
                metrics_interval=None, start=False)
            for i in range(700):
                tel.emit(WaveRefresh(node=f"n{i}", key="k", duration=i / 7))
            exporter.close()
            # 700 events, each on a node of its own: 700 name rows too.
            assert _wait_for(lambda: server.line_count() == 1400)
            sent = b"".join(line + b"\n" for line in server.lines)
        finally:
            server.stop()
        assert path.read_bytes() == sent
        assert [p.events for p in exporter.progress] == [700, 700]
        # 700 events at batch_size 256 -> 3 batches, each rendered once for
        # both sinks.
        assert len(renders) == 3

    def test_iterating_sink_sees_the_events(self):
        class IteratingSink(ExportSink):
            def __init__(self) -> None:
                self.seen: list[TraceEvent] = []

            def write_batch(self, batch) -> None:
                for event in batch:
                    assert isinstance(event, TraceEvent)
                    self.seen.append(event)

        tel = Telemetry(capacity=4096)
        sink = IteratingSink()
        exporter = tel.attach_exporter(sink, metrics_interval=None, start=False)
        events = [WaveRefresh(node=f"n{i}", changed=True) for i in range(300)]
        for event in events:
            tel.emit(event)
        exporter.close()
        assert sink.seen == events
        assert all(seen is event for seen, event in zip(sink.seen, events))

    def test_batch_is_a_sequence_of_records(self):
        events = [WaveSummary(source="a"), WaveRefresh(node="b")]
        batch = EventBatch(events)
        assert len(batch) == 2
        assert list(batch) == events
        assert batch[1] is events[1]          # the events themselves
        assert batch[-1] is batch[1]
        assert batch.payload is batch.payload

    def test_raising_sink_loses_only_its_own_batches(self, tmp_path):
        tel = Telemetry(capacity=64)
        bad = CollectingSink()
        bad.fail = True
        path = tmp_path / "good.jsonl"
        exporter = tel.attach_exporter(
            bad, JsonlFileSink(path), batch_size=16, metrics_interval=None,
            start=False)
        sub = exporter.subscription
        for i in range(200):
            tel.emit(WaveSummary(source=f"n{i}"))
            if i == 150:
                exporter.flush()  # mid-stream: some overwritten, some pending
        assert sub.delivered + sub.dropped + sub.pending() == tel.bus.emitted
        exporter.close()
        bad_progress, good_progress = exporter.progress
        assert sub.delivered + sub.dropped == tel.bus.emitted == 200
        assert sub.dropped > 0 and sub.pending() == 0
        assert bad_progress.dropped == sub.delivered and bad_progress.events == 0
        assert good_progress.events == sub.delivered
        assert len(path.read_text().splitlines()) == sub.delivered

    def test_metrics_snapshot_still_encodes_on_line_sinks(self, tmp_path):
        tel = Telemetry(capacity=4096)
        path = tmp_path / "trace.jsonl"
        exporter = tel.attach_exporter(
            JsonlFileSink(path), metrics_interval=1.0, start=False)
        tel.emit(WaveSummary(source="n"))
        exporter.close()  # one event batch, then the final snapshot record
        first, last = map(json.loads, path.read_text().splitlines())
        assert first["kind"] == "wave.summary"
        assert last["kind"] == "metrics.snapshot"
        assert "waves_total" in last["series"]["counters"]

    def test_rotation_counts_payload_bytes(self, tmp_path):
        events = [WaveRefresh(node="caf\u00e9 \U0001f600", key="k", duration=0.5)] * 5
        size = len(EventBatch(events).payload)
        assert size == len(EventBatch(events).payload.encode("utf-8"))
        path = tmp_path / "t.jsonl"
        sink = JsonlFileSink(path, max_bytes=2 * size, max_files=3)
        sink.write_batch(EventBatch(events))
        assert sink.rotations == 0
        sink.write_batch(EventBatch(events))
        assert sink.rotations == 1
        sink.close()
        assert path.with_name("t.jsonl.1").stat().st_size == 2 * size


# ---------------------------------------------------------------------------
# Satellites: ring drop counter
# ---------------------------------------------------------------------------


class TestRingDropCounter:
    def test_ring_overwrite_increments_counter_exactly(self):
        tel = Telemetry(capacity=4)
        for _ in range(10):
            tel.emit(WaveSummary(source="n"))
        counter = tel.metrics.counter("trace_events_dropped_total")
        assert counter.value == 6
        assert tel.bus.dropped == 6

    def test_dashboard_surfaces_overflow(self):
        tel = Telemetry(capacity=4)
        for _ in range(10):
            tel.emit(WaveSummary(source="n"))
        dashboard = render_dashboard(tel)
        assert "trace_events_dropped_total" in dashboard
        assert "ring overflow" in dashboard

    def test_no_counter_noise_without_drops(self):
        tel = Telemetry(capacity=64)
        tel.emit(WaveSummary(source="n"))
        snapshot = tel.metrics.snapshot()
        assert "trace_events_dropped_total" not in snapshot["counters"]

    def test_overwrites_of_delivered_events_are_not_drops(self):
        # 100 events through a ring of 8 overwrite 92 slots, but a consumer
        # that keeps up has read every one of them first.
        tel = Telemetry(capacity=8)
        sub = tel.bus.subscribe("keeps-up")
        for i in range(100):
            tel.emit(WaveSummary(source=f"n{i}"))
            if i % 4 == 3:
                sub.pop_batch()
        assert (sub.delivered, sub.dropped, sub.pending()) == (100, 0, 0)
        assert tel.bus.dropped == 0
        assert "trace_events_dropped_total" not in tel.metrics.snapshot()["counters"]
        assert "ring overflow" not in render_dashboard(tel)

    def test_overwrites_ahead_of_any_open_cursor_are_drops(self):
        tel = Telemetry(capacity=8)
        fast, stalled = tel.bus.subscribe("fast"), tel.bus.subscribe("stalled")
        for i in range(100):
            tel.emit(WaveSummary(source=f"n{i}"))
            if i % 4 == 3:
                fast.pop_batch()
        assert fast.dropped == 0
        assert tel.bus.dropped == 92
        assert tel.metrics.counter("trace_events_dropped_total").value == 92
        assert len(stalled.pop_batch()) == 8
        assert stalled.dropped == tel.bus.dropped
        assert stalled.delivered + stalled.dropped == tel.bus.emitted

    def test_closing_the_stalled_cursor_stops_the_count(self):
        bus = TraceBus(capacity=4)
        fast, stalled = bus.subscribe("fast"), bus.subscribe("stalled")
        for _ in range(6):
            bus.record(WaveSummary())
            fast.pop_batch()
        assert bus.dropped == 2
        stalled.close()
        for _ in range(6):
            bus.record(WaveSummary())
            fast.pop_batch()
        assert bus.dropped == 2

"""The export wire format read back: round trips, explanations from a file,
and every line stream declaring the ids it uses.

``tests/telemetry/test_rendering.py`` pins the bytes; these tests pin what
a reader gets out of them.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.common.clock import VirtualClock
from repro.costmodel import install_estimates
from repro.graph import QueryGraph, Schema, Sink, Source
from repro.operators import SlidingWindowJoin, TimeWindow
from repro.runtime import SimulationExecutor
from repro.sources import ConstantRate, StreamDriver, UniformValues
from repro.telemetry import events as ev
from repro.telemetry.hub import Telemetry, explain_refresh
from repro.telemetry.sinks import EventBatch, JsonlFileSink, TcpLineSink
from repro.telemetry.wire import StreamEncoder, decode_lines, load_trace
from tests.telemetry.test_export import _LineReceiver, _wait_for
from tests.telemetry.test_rendering import EVENT_CLASSES, _non_default


def _at_nanoseconds(event: ev.TraceEvent) -> ev.TraceEvent:
    """``event`` with ``mono`` and ``duration`` as the wire writes them."""
    changes = {name: round(getattr(event, name) * 1e9) / 1e9
               for name in ("mono", "duration") if hasattr(event, name)}
    return dataclasses.replace(event, **changes)


def _declared_before_use(lines: list[str]) -> set[int]:
    """Assert one line stream declares every id before it uses it; return
    the ids it uses."""
    declared: set[int] = set()
    used: set[int] = set()
    for line in lines:
        row = json.loads(line)
        if row["kind"] == "name":
            declared.add(row["id"])
            continue
        ids = [row["id"]] if "id" in row else []
        ids += [v for v in row.get("via", ()) if type(v) is int]
        for ident in ids:
            assert ident in declared, (ident, line)
        used.update(ids)
    return used


@pytest.mark.parametrize("cls", EVENT_CLASSES, ids=lambda cls: cls.__name__)
def test_every_event_class_round_trips(cls):
    moved = _non_default(cls)
    events = [moved, cls(), moved, dataclasses.replace(moved, span=99, mono=7.5)]
    if "source" in {field.name for field in dataclasses.fields(cls)}:
        events.append(dataclasses.replace(moved, source="n/k"))
    payload = EventBatch(events).payload
    assert decode_lines(payload.splitlines()) == \
        [_at_nanoseconds(event) for event in events]


def test_threads_start_runs_and_batches_restart_them():
    encoder = StreamEncoder()
    first = [ev.WaveRefresh(node="a", key="x", thread=1, mono=1.0, changed=True),
             ev.WaveRefresh(node="a", key="x", thread=2, mono=2.0, changed=True),
             ev.WaveRefresh(node="b", key="y", thread=2, mono=3.0)]
    second = [ev.WaveRefresh(node="b", key="y", thread=2, mono=4.0)]
    lines = (encoder.encode(first) + encoder.encode(second)).splitlines()
    rows = [json.loads(line) for line in lines if '"name"' not in line]
    assert [row.get("thread") for row in rows] == [1, 2, None, 2]
    # ``changed`` moves back to its default on the third row: it is written.
    assert rows[2]["changed"] is False
    assert decode_lines(lines) == first + second


# ---------------------------------------------------------------------------
# A pipeline export, read back
# ---------------------------------------------------------------------------


def _pipeline(tmp_path, queries: int = 2):
    """Join queries under full monitoring, traced into a jsonl export."""
    clock = VirtualClock()
    graph = QueryGraph(clock, default_metadata_period=5.0)
    windows, drivers = [], []
    for q in range(queries):
        sources = [graph.add(Source(f"q{q}.{side}", Schema(("k",))))
                   for side in "lr"]
        pair = [graph.add(TimeWindow(f"q{q}.w{side}", 20.0)) for side in "lr"]
        join = graph.add(SlidingWindowJoin(
            f"q{q}.j", impl="hash", key_fn=lambda element: element.field("k")))
        sink = graph.add(Sink(f"q{q}.out"))
        for source, window in zip(sources, pair):
            graph.connect(source, window)
            graph.connect(window, join)
        graph.connect(join, sink)
        windows += pair
        drivers += [StreamDriver(source, ConstantRate(2.0),
                                 UniformValues("k", 0, 5), seed=q * 2 + index)
                    for index, source in enumerate(sources)]
    graph.freeze()
    install_estimates(graph)
    system = graph.metadata_system
    subscriptions = system.subscribe_all()
    telemetry = system.enable_telemetry(capacity=1 << 17)
    path = tmp_path / "pipeline.jsonl"
    exporter = telemetry.attach_exporter(JsonlFileSink(path), start=False)
    executor = SimulationExecutor(graph, drivers)
    sizes = iter([30.0, 10.0, 25.0, 15.0] * 10)
    executor.every(25.0, lambda now: windows[int(now) % len(windows)].set_size(
        next(sizes)))
    executor.every(10.0, lambda now: [s.get() for s in subscriptions]
                   and exporter.flush())
    executor.run_until(120.0)
    system.disable_telemetry()  # closes the exporter
    return telemetry, path


def test_explain_refresh_answers_from_a_loaded_export(tmp_path):
    telemetry, path = _pipeline(tmp_path)
    live = telemetry.bus.events()
    loaded = load_trace(path)
    assert telemetry.bus.dropped == 0
    assert loaded == [_at_nanoseconds(event) for event in live]
    refreshed = {(e.node, e.key) for e in live if isinstance(e, ev.WaveRefresh)}
    hops = 0
    for node, key in sorted(refreshed):
        answer = explain_refresh(telemetry, node, key)
        assert explain_refresh(loaded, node, key) == answer
        hops += answer.count(" hop ")
    assert len(refreshed) > 10 and hops > 0


def test_name_rows_carry_the_mechanism(tmp_path):
    _, path = _pipeline(tmp_path, queries=1)
    names = [json.loads(line) for line in path.read_text().splitlines()
             if line.startswith('{"kind":"name"')]
    mechanisms = {row["key"]: row.get("mechanism") for row in names}
    assert mechanisms["operator.cpu_usage"] == "periodic"
    assert mechanisms["operator.avg_selectivity"] == "triggered"


# ---------------------------------------------------------------------------
# Every line stream declares its ids
# ---------------------------------------------------------------------------


def _refreshes(count: int) -> list[ev.WaveRefresh]:
    return [ev.WaveRefresh(span=i, node=f"n{i % 37}", key="k", changed=True,
                           duration=1e-6 * i, via=(f"n{(i + 1) % 37}/k",))
            for i in range(count)]


def test_every_rotated_file_declares_the_ids_it_uses(tmp_path):
    tel = Telemetry(capacity=4096)
    path = tmp_path / "t.jsonl"
    sink = JsonlFileSink(path, max_bytes=1500, max_files=100)
    exporter = tel.attach_exporter(sink, batch_size=16, metrics_interval=None,
                                   start=False)
    for event in _refreshes(600):
        tel.emit(event)
    exporter.close()
    assert sink.rotations > 5
    files = [path.with_name(f"t.jsonl.{i}") for i in range(sink.rotations, 0, -1)]
    files += [path] if path.exists() else []  # the last batch may have rotated
    for file in files:
        assert _declared_before_use(file.read_text().splitlines())
    assert load_trace(*files) == [_at_nanoseconds(e) for e in tel.bus.events()]


def test_a_reconnected_tcp_stream_declares_the_ids_it_uses():
    encoder = StreamEncoder()
    before = _refreshes(40)
    after = [ev.WaveRefresh(node="n3", key="k", via=("n4/k",)),
             ev.WaveRefresh(node="new", key="k", via=("n3/k",))]
    server = _LineReceiver()
    port = server.port
    sink = TcpLineSink("127.0.0.1", port, connect_timeout=1.0,
                       backoff=0.02, max_backoff=0.1)
    sink.write_batch(EventBatch(before, encoder))
    assert _wait_for(lambda: server.line_count() >= len(before))
    server.stop()
    with pytest.raises(OSError):
        for _ in range(100):
            sink.write_batch([{"kind": "lost"}])
            time.sleep(0.001)

    server2 = _LineReceiver(port)
    try:
        deadline = time.monotonic() + 5.0
        while True:
            try:
                sink.write_batch(EventBatch(after, encoder))
                break
            except OSError:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        sink.close()
        assert sink.connects == 2
        assert _wait_for(lambda: server2.line_count() >= len(after) + 3)
        lines = [line.decode() for line in server2.lines]
    finally:
        server2.stop()
    # The batch itself declares only ``new/k``: the ids of ``n3/k`` and
    # ``n4/k`` come from before the reconnect and are declared again.
    assert len(_declared_before_use(lines)) == 3
    assert decode_lines(lines) == [_at_nanoseconds(e) for e in after]

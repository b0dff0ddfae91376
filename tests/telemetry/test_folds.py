"""The fold table is the aggregation spec: one row per event class.

Each row emits one event into a fresh hub and states the complete metric
snapshot that must result — counters with their labels, gauge moves and
histogram observations.  A class missing from the rows fails the coverage
test, so a new event class cannot ship without saying what it folds into.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest

from repro.common.racecheck import RaceCheck

from repro.telemetry import events as ev
from repro.telemetry.hub import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from tests.telemetry.test_rendering import EVENT_CLASSES

# (event, counters, gauges, histograms as name -> observed value); a row
# whose event alone does not tell it apart from another is a pytest.param
# with its own id.
ROWS: list = [
    (ev.TraceEvent(), {}, {}, {}),
    (ev.SubscribeEvent(node="a"), {'subscribes_total{node="a"}': 1}, {}, {}),
    (ev.UnsubscribeEvent(node="a"), {'unsubscribes_total{node="a"}': 1}, {}, {}),
    (ev.IncludeEvent(node="a", shared=False),
     {'includes_total{node="a",shared="false"}': 1}, {}, {}),
    (ev.IncludeEvent(node="a", shared=True),
     {'includes_total{node="a",shared="true"}': 1}, {}, {}),
    (ev.ExcludeEvent(node="a", removed=True), {'excludes_total{node="a"}': 1}, {}, {}),
    (ev.ExcludeEvent(node="a", removed=False), {}, {}, {}),
    (ev.HandlerCreated(node="a", mechanism="periodic"),
     {'handlers_created_total{mechanism="periodic",node="a"}': 1},
     {"handlers_live": 1.0}, {}),
    (ev.HandlerRetired(node="a", mechanism="periodic"),
     {'handlers_retired_total{mechanism="periodic",node="a"}': 1},
     {"handlers_live": -1.0}, {}),
    # A manual refresh, then a tick seed's: the scheduler's record is the
    # same class and moves the scheduler's series instead.
    (ev.HandlerRefresh(node="a", duration=0.5),
     {'handler_refreshes_total{node="a"}': 1}, {},
     {"refresh_duration_seconds": 0.5}),
    (ev.HandlerRefresh(node="a", queue_latency=0.5, duration=0.25,
                       mode="virtual"),
     {'scheduler_refreshes_total{node="a"}': 1}, {},
     {"scheduler_queue_latency": 0.5, "scheduler_run_duration_seconds": 0.25}),
    (ev.HandlerRefresh(node="a", queue_latency=0.5, duration=0.25,
                       error=True, mode="virtual"),
     {'scheduler_refreshes_total{node="a"}': 1,
      'scheduler_errors_total{node="a"}': 1,
      'scheduler_refresh_errors_total{mode="virtual"}': 1}, {},
     {"scheduler_queue_latency": 0.5, "scheduler_run_duration_seconds": 0.25}),
    (ev.HandlerRefresh(node="a", error=True, mode="threaded"),
     {'scheduler_refreshes_total{node="a"}': 1,
      'scheduler_errors_total{node="a"}': 1,
      'scheduler_refresh_errors_total{mode="threaded"}': 1}, {},
     {"scheduler_queue_latency": 0.0, "scheduler_run_duration_seconds": 0.0}),
    (ev.ProbeActivated(node="a"), {}, {"probes_active": 1.0}, {}),
    (ev.ProbeDeactivated(node="a"), {}, {"probes_active": -1.0}, {}),
    (ev.WaveRefresh(node="a", duration=0.25),
     {'wave_refreshes_total{node="a"}': 1}, {},
     {"refresh_duration_seconds": 0.25}),
    # One hop per dependency edge the wave crossed into the member.
    (ev.WaveRefresh(node="a", duration=0.25, via=("b/x", "c/y")),
     {'wave_refreshes_total{node="a"}': 1, "wave_hops_total": 2}, {},
     {"refresh_duration_seconds": 0.25}),
    (ev.WaveRefresh(node="a", duration=0.25, error=True),
     {'wave_refreshes_total{node="a"}': 1, 'wave_errors_total{node="a"}': 1}, {},
     {"refresh_duration_seconds": 0.25}),
    (ev.WaveSuppressed(node="a", reason="removed"),
     {'wave_suppressed_total{reason="removed"}': 1}, {}, {}),
    (ev.WavePoisoned(node="a", reason="quarantined"),
     {'wave_poisoned_total{reason="quarantined"}': 1}, {}, {}),
    # The wave summary moves what the five framing events used to, one
    # row each: one wave and its plan size, the queue depth its call found,
    # its tallies and duration, the calls the drainer folded into it.
    (ev.WaveSummary(source="a/k", wave_size=4),
     {"waves_total": 1}, {},
     {"wave_size": 4, "wave_queue_depth": 0, "wave_duration_seconds": 0.0}),
    pytest.param(
        (ev.WaveSummary(source="a/k", pending=3),
         {"waves_total": 1}, {},
         {"wave_size": 0, "wave_queue_depth": 3, "wave_duration_seconds": 0.0}),
        id="WaveSummary-pending"),
    pytest.param(
        (ev.WaveSummary(source="a/k", wave_size=4, refreshed=2, duration=0.75),
         {"waves_total": 1}, {},
         {"wave_size": 4, "wave_queue_depth": 0, "wave_duration_seconds": 0.75}),
        id="WaveSummary-duration"),
    (ev.WaveSummary(source="a/k", folded=(7, 9)),
     {"waves_total": 1, "waves_coalesced_total": 2}, {},
     {"wave_size": 0, "wave_queue_depth": 0, "wave_duration_seconds": 0.0}),
    (ev.SchedulerCancel(node="a"), {"scheduler_cancels_total": 1}, {}, {}),
    (ev.SchedulerCancel(node="a", in_flight=True, timed_out=True),
     {"scheduler_cancels_total": 1, "scheduler_cancel_races_total": 1,
      "scheduler_cancel_timeouts_total": 1}, {}, {}),
    (ev.HandlerFailure(node="a", error="boom"),
     {'handler_failures_total{node="a"}': 1}, {}, {}),
    (ev.HandlerFailure(node="a", deadline_exceeded=True),
     {'handler_failures_total{node="a"}': 1,
      "handler_deadline_exceeded_total": 1}, {}, {}),
    (ev.RetryScheduled(node="a", attempt=1), {"handler_retries_total": 1}, {}, {}),
    (ev.CircuitOpen(node="a", failures=3),
     {"circuits_opened_total": 1}, {"circuits_open": 1.0}, {}),
    (ev.CircuitOpen(node="a", failures=3, reopened=True),
     {"circuits_opened_total": 1}, {}, {}),
    (ev.CircuitHalfOpen(node="a"), {"circuit_probes_total": 1}, {}, {}),
    (ev.CircuitClose(node="a"),
     {"circuits_closed_total": 1}, {"circuits_open": -1.0}, {}),
    (ev.AnalysisFinding(code="MD003", severity="error"),
     {'analysis_findings_total{code="MD003"}': 1}, {}, {}),
]


def _row_id(row) -> str:
    event = row[0]
    flags = [f.name for f in event.__dataclass_fields__.values()
             if getattr(event, f.name) is True
             or getattr(event, f.name) and type(getattr(event, f.name)) is tuple]
    mode = [event.mode] if getattr(event, "mode", "") else []
    return "-".join([type(event).__name__, *mode, *flags])


def test_every_event_class_has_a_row():
    events = [row.values[0][0] if hasattr(row, "values") else row[0]
              for row in ROWS]
    assert {type(event) for event in events} == set(EVENT_CLASSES)


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_fold_moves_exactly_these_series(row):
    event, counters, gauges, histograms = row
    tel = Telemetry()
    tel.emit(event)
    assert tel.bus.events() == [event]
    snap = tel.metrics.snapshot()
    assert snap["counters"] == counters
    assert snap["gauges"] == gauges
    assert snap["histograms"] == {
        name: {"count": 1, "sum": value, "mean": value}
        for name, value in histograms.items()
    }


def test_steady_state_never_calls_get_or_create(monkeypatch):
    calls: list[str] = []
    for factory in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, factory)

        def counting(self, name, *args, _original=original, **kwargs):
            calls.append(name)
            return _original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, factory, counting)
    tel = Telemetry()
    for _ in range(3):
        tel.emit(ev.WaveRefresh(node="a", duration=0.5))
        tel.emit(ev.WaveRefresh(node="b", duration=0.5, via=("a/k",)))
    # One get-or-create per (series, label value), on first use only.
    assert sorted(calls) == ["refresh_duration_seconds", "wave_hops_total",
                             "wave_refreshes_total", "wave_refreshes_total"]
    snap = tel.metrics.snapshot()
    assert snap["counters"] == {'wave_refreshes_total{node="a"}': 3,
                                'wave_refreshes_total{node="b"}': 3,
                                "wave_hops_total": 3}
    assert snap["histograms"]["refresh_duration_seconds"]["count"] == 6
    # The public get-or-create still resolves to the instrument folds hit.
    assert tel.metrics.counter("wave_refreshes_total", {"node": "a"}).value == 3


def test_unknown_event_class_is_buffered_and_folds_into_nothing():
    @dataclass(slots=True)
    class Custom(ev.TraceEvent):
        kind = "custom"
        node: str = ""

    tel = Telemetry()
    for _ in range(2):
        tel.emit(Custom(node="a"))
    assert [e.kind for e in tel.bus.events()] == ["custom", "custom"]
    assert tel.metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_subclass_folds_as_its_event_class():
    @dataclass(slots=True)
    class TaggedSummary(ev.WaveSummary):
        tag: str = ""

    tel = Telemetry()
    tel.emit(TaggedSummary(tag="t"))
    assert tel.metrics.snapshot()["counters"] == {"waves_total": 1}


def test_two_hubs_never_share_bound_instruments():
    first, second = Telemetry(), Telemetry()
    first.emit(ev.WaveRefresh(node="a", via=("b/k",)))
    first.emit(ev.SubscribeEvent(node="a"))
    assert second.metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    second.emit(ev.WaveRefresh(node="a", via=("b/k",)))
    assert first.metrics.counter("wave_hops_total").value == 1
    assert second.metrics.counter("wave_hops_total").value == 1
    assert (first.metrics.counter("wave_hops_total")
            is not second.metrics.counter("wave_hops_total"))
    assert second.metrics.snapshot()["counters"] == {
        "wave_hops_total": 1, 'wave_refreshes_total{node="a"}': 1}


def test_concurrent_first_use_loses_no_increment():
    """Threads racing to bind the same series must land on one instrument,
    and the bus must count exactly the drops its stalled subscriber sees."""
    tel = Telemetry(capacity=64)
    stalled = tel.bus.subscribe("stalled")
    threads, iterations = 4, 300

    def emit(worker, i):
        # Fresh label values keep first-use binding on the contended path.
        tel.emit(ev.WaveRefresh(node=f"n{i}", duration=0.5))
        tel.emit(ev.WaveSummary())

    check = RaceCheck(iterations=iterations, timeout=30.0)
    check.add(emit, threads=threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        check.run()
    finally:
        sys.setswitchinterval(interval)
    counters = tel.metrics.snapshot()["counters"]
    assert counters["waves_total"] == threads * iterations
    for i in range(iterations):
        assert counters[f'wave_refreshes_total{{node="n{i}"}}'] == threads
    assert tel.bus.emitted == 2 * threads * iterations
    stalled.pop_batch(1)
    assert stalled.dropped == tel.bus.dropped == counters["trace_events_dropped_total"]
    assert stalled.dropped == tel.bus.emitted - 64

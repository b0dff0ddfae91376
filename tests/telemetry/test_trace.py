"""Tests for the ring-buffered trace bus."""

from __future__ import annotations

import threading

import pytest

from repro.common.clock import VirtualClock
from repro.common.racecheck import RaceCheck
from repro.telemetry.events import (
    SubscribeEvent,
    WaveRefresh,
    WaveSummary,
    WaveSuppressed,
    key_of,
)
from repro.telemetry.trace import TraceBus


class TestRecording:
    def test_record_stamps_timestamps_and_thread(self):
        clock = VirtualClock()
        clock.advance_to(42.0)
        bus = TraceBus(clock)
        event = bus.record(WaveSummary(source="n/k"))
        assert event.ts == 42.0
        assert event.mono > 0.0
        assert event.thread == threading.get_ident()

    def test_record_without_clock_uses_monotonic(self):
        bus = TraceBus()
        event = bus.record(WaveSummary())
        assert event.ts == event.mono

    def test_emitted_counts_all_records(self):
        bus = TraceBus(capacity=2)
        for _ in range(5):
            bus.record(WaveSummary())
        assert bus.emitted == 5
        assert len(bus) == 2

    def test_ring_drops_oldest_and_counts(self):
        bus = TraceBus(capacity=3)
        for i in range(5):
            bus.record(WaveSummary(source=f"n{i}"))
        assert bus.dropped == 2
        assert [e.source for e in bus.events()] == ["n2", "n3", "n4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBus(capacity=0)

    def test_clear_keeps_counters(self):
        bus = TraceBus()
        bus.record(WaveSummary())
        bus.clear()
        assert len(bus) == 0
        assert bus.emitted == 1


class TestSpans:
    def test_spans_are_unique_and_never_zero(self):
        bus = TraceBus()
        spans = [bus.new_span() for _ in range(100)]
        assert 0 not in spans
        assert len(set(spans)) == 100

    def test_span_events_filters(self):
        bus = TraceBus()
        s1, s2 = bus.new_span(), bus.new_span()
        bus.record(WaveSummary(span=s1))
        bus.record(WaveSuppressed(span=s2))
        bus.record(WaveRefresh(span=s1))
        assert [e.kind for e in bus.span_events(s1)] == ["wave.summary", "wave.refresh"]

    def test_span_allocation_is_race_free(self):
        bus = TraceBus()
        seen: list[int] = []
        lock = threading.Lock()

        def allocate(worker, i):
            span = bus.new_span()
            with lock:
                seen.append(span)

        check = RaceCheck(iterations=500)
        check.add(allocate, threads=4)
        check.run()
        assert len(seen) == len(set(seen)) == 2000


class TestQuery:
    def test_kind_exact_and_prefix_match(self):
        bus = TraceBus()
        bus.record(WaveSummary())
        bus.record(WaveSuppressed())
        bus.record(SubscribeEvent())
        assert len(bus.events(kind="wave.suppressed")) == 1
        assert len(bus.events(kind="wave")) == 2
        assert len(bus.events(kind="subscribe")) == 1
        # A prefix is a dotted namespace, not a substring.
        assert bus.events(kind="wav") == []


class TestEventHelpers:
    def test_key_of_formats_qualifier(self):
        from repro.metadata.item import MetadataKey

        assert key_of(MetadataKey("rate")) == "rate"
        assert key_of(MetadataKey("rate", ("out", 1))) == "rate[out,1]"
        assert key_of("already-a-string") == "already-a-string"

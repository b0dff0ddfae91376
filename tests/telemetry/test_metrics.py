"""Tests for the metrics registry and its wire-format exporters."""

from __future__ import annotations

import math

import pytest

from repro.common.histogram import FixedBoundHistogram
from repro.telemetry.metrics import SIZE_BOUNDS, MetricsRegistry


class TestInstruments:
    def test_counter_get_or_create_by_name_and_labels(self):
        m = MetricsRegistry()
        a = m.counter("hits", {"node": "join"})
        b = m.counter("hits", {"node": "join"})
        c = m.counter("hits", {"node": "src"})
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3
        assert c.value == 0

    def test_label_order_does_not_matter(self):
        m = MetricsRegistry()
        a = m.counter("hits", {"a": "1", "b": "2"})
        b = m.counter("hits", {"b": "2", "a": "1"})
        assert a is b

    def test_counter_rejects_decrease(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("hits").inc(-1)

    def test_gauge_moves_both_ways(self):
        m = MetricsRegistry()
        g = m.gauge("live")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1.0
        g.set(7.5)
        assert g.value == 7.5

    def test_histogram_observes_into_bounds(self):
        m = MetricsRegistry()
        h = m.histogram("sizes", bounds=SIZE_BOUNDS)
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 106
        assert h.mean() == pytest.approx(26.5)


class TestSnapshot:
    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("waves_total").inc()
        m.gauge("handlers_live").set(3)
        m.histogram("wave_size", bounds=SIZE_BOUNDS).observe(2)
        snap = m.snapshot()
        assert snap["counters"] == {"waves_total": 1}
        assert snap["gauges"] == {"handlers_live": 3.0}
        assert snap["histograms"]["wave_size"]["count"] == 1


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        m = MetricsRegistry(prefix="repro")
        m.counter("waves_total").inc(4)
        m.gauge("handlers_live", {"node": "join"}).set(2)
        text = m.to_prometheus()
        assert "# TYPE repro_waves_total counter" in text
        assert "repro_waves_total 4" in text
        assert 'repro_handlers_live{node="join"} 2' in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        m = MetricsRegistry(prefix="repro")
        h = m.histogram("wave_size", bounds=(1, 5))
        for v in (1, 2, 9):
            h.observe(v)
        text = m.to_prometheus()
        assert 'repro_wave_size_bucket{le="1"} 1' in text
        assert 'repro_wave_size_bucket{le="5"} 2' in text
        assert 'repro_wave_size_bucket{le="+Inf"} 3' in text
        assert "repro_wave_size_sum 12" in text
        assert "repro_wave_size_count 3" in text

    def test_le_merges_into_existing_labels(self):
        m = MetricsRegistry(prefix="repro")
        m.histogram("d", {"node": "a"}, bounds=(1,)).observe(0.5)
        text = m.to_prometheus()
        assert 'repro_d_bucket{node="a",le="1"} 1' in text

    def test_type_line_emitted_once_per_family(self):
        m = MetricsRegistry(prefix="repro")
        m.counter("hits", {"node": "a"}).inc()
        m.counter("hits", {"node": "b"}).inc()
        text = m.to_prometheus()
        assert text.count("# TYPE repro_hits counter") == 1

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestFixedBoundHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            FixedBoundHistogram((1, 1))
        with pytest.raises(ValueError):
            FixedBoundHistogram(())

    def test_le_semantics_are_inclusive(self):
        hist = FixedBoundHistogram((1.0, 2.0))
        hist.observe(1.0)  # falls in the le=1 bucket, not le=2
        assert hist.cumulative()[0] == (1.0, 1)

    def test_cumulative_counts(self):
        hist = FixedBoundHistogram((1.0, 5.0, 10.0))
        for v in (0.5, 3, 7, 100):
            hist.observe(v)
        assert hist.cumulative() == [
            (1.0, 1), (5.0, 2), (10.0, 3), (math.inf, 4),
        ]

    def test_quantile_and_mean(self):
        hist = FixedBoundHistogram((1.0, 10.0, 100.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            hist.observe(v)
        assert hist.quantile(0.5) == 1.0  # median falls in the first bucket
        assert hist.quantile(1.0) == 100.0
        assert hist.mean() == pytest.approx(14.025)

    def test_reset(self):
        hist = FixedBoundHistogram((1.0,))
        hist.observe(0.5)
        hist.reset()
        assert hist.count == 0
        assert hist.sum == 0.0

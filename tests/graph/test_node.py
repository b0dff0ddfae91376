"""Tests for node-level standard metadata (Figure 2's taxonomy)."""

from __future__ import annotations

import pytest

from repro.graph.element import Schema
from repro.graph.graph import QueryGraph
from repro.graph.node import Sink, Source
from repro.metadata import catalogue as md
from repro.operators.filter import Filter


@pytest.fixture
def pipeline():
    graph = QueryGraph(default_metadata_period=50.0)
    source = graph.add(Source("s", Schema(("x",), element_size=24)))
    fil = graph.add(Filter("f", lambda e: e.field("x") % 2 == 0))
    sink = graph.add(Sink("out", qos={"max_latency": 10}, priority=3))
    graph.connect(source, fil)
    graph.connect(fil, sink)
    graph.freeze()
    return graph, source, fil, sink


def feed(graph, source, count, gap=10.0):
    for i in range(count):
        graph.clock.advance_by(gap)
        source.produce({"x": i}, graph.clock.now())
        while any(n.step() for n in (graph.operators() + graph.sinks())):
            pass


class TestSourceMetadata:
    def test_static_schema_and_size(self, pipeline):
        graph, source, fil, sink = pipeline
        with source.metadata.subscribe(md.SCHEMA) as s:
            assert s.get().fields == ("x",)
        with source.metadata.subscribe(md.ELEMENT_SIZE) as s:
            assert s.get() == 24

    def test_measured_output_rate(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = source.metadata.subscribe(md.OUTPUT_RATE)
        feed(graph, source, 10, gap=10.0)  # 0.1 elements per unit
        assert subscription.get() == pytest.approx(0.1, rel=0.05)
        subscription.cancel()

    def test_value_distribution(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = source.metadata.subscribe(md.VALUE_DISTRIBUTION)
        feed(graph, source, 10, gap=10.0)
        snapshot = subscription.get()
        assert snapshot["count"] > 0
        assert snapshot["min"] >= 0
        subscription.cancel()

    def test_unsubscribed_distribution_holds_no_samples(self, pipeline):
        """Section 4.4.1: monitoring code stays inactive until an item that
        needs it is included."""
        graph, source, fil, sink = pipeline
        feed(graph, source, 100, gap=1.0)
        probe = source.metadata.probe("distribution")
        assert not probe.active
        assert len(probe) == 0

    def test_late_subscriber_starts_from_an_empty_period(self, pipeline):
        graph, source, fil, sink = pipeline
        feed(graph, source, 100, gap=1.0)
        assert graph.clock.now() == 100.0
        subscription = source.metadata.subscribe(md.VALUE_DISTRIBUTION)
        assert subscription.get()["count"] == 0
        feed(graph, source, 10, gap=1.0)
        graph.clock.advance_by(50.0)
        assert subscription.get()["count"] == 10
        subscription.cancel()

    def test_cancel_deactivates_and_empties_the_probe(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = source.metadata.subscribe(md.VALUE_DISTRIBUTION)
        probe = source.metadata.probe("distribution")
        feed(graph, source, 10, gap=1.0)
        assert probe.active and len(probe) == 10
        subscription.cancel()
        assert not probe.active
        assert len(probe) == 0

    def test_est_output_rate_tracks_measured(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = source.metadata.subscribe(md.EST_OUTPUT_RATE)
        feed(graph, source, 10, gap=10.0)
        assert subscription.get() == pytest.approx(0.1, rel=0.05)
        subscription.cancel()


class TestOperatorMetadata:
    def test_selectivity_measured(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(md.SELECTIVITY)
        feed(graph, source, 20, gap=10.0)  # x%2==0 passes half
        assert subscription.get() == pytest.approx(0.5, abs=0.1)
        subscription.cancel()

    def test_input_rate_per_port(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(md.INPUT_RATE.q(0))
        feed(graph, source, 10, gap=10.0)
        assert subscription.get() == pytest.approx(0.1, rel=0.05)
        subscription.cancel()

    def test_avg_input_rate_is_triggered_dependent(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(md.AVG_INPUT_RATE.q(0))
        # Auto-included dependency (Section 2.4).
        assert fil.metadata.is_included(md.INPUT_RATE.q(0))
        feed(graph, source, 10, gap=10.0)
        # The average includes the zero-valued seed sample taken at
        # inclusion, so it sits below the true rate of 0.1.
        assert 0.05 <= subscription.get() <= 0.1
        subscription.cancel()
        assert not fil.metadata.is_included(md.INPUT_RATE.q(0))

    @pytest.mark.parametrize("key", [md.AVG_INPUT_RATE.q(0),
                                     md.VAR_INPUT_RATE.q(0)])
    def test_online_aggregate_restarts_on_reinclusion(self, pipeline, key):
        """Fresh inclusion, fresh aggregate: a re-included item must not
        fold the samples its removed predecessor saw."""
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(key)
        for _ in range(4):
            feed(graph, source, 1, gap=10.0)
            feed(graph, source, 5, gap=1.0)
        assert subscription.get() > 0
        subscription.cancel()
        subscription = fil.metadata.subscribe(key)
        assert subscription.get() == 0.0
        graph.clock.advance_by(100.0)  # two idle periods: the rate reads 0
        assert subscription.get() == 0.0
        subscription.cancel()

    def test_io_ratio(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(md.INPUT_OUTPUT_RATIO)
        feed(graph, source, 20, gap=10.0)
        assert subscription.get() == pytest.approx(0.5, abs=0.2)
        subscription.cancel()

    def test_cpu_usage_measured(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(md.CPU_USAGE)
        feed(graph, source, 20, gap=10.0)
        # One element per 10 units at unit cost -> 0.1 cost/time.
        assert subscription.get() == pytest.approx(0.1, rel=0.1)
        subscription.cancel()

    def test_queue_length_on_demand(self, pipeline):
        graph, source, fil, sink = pipeline
        subscription = fil.metadata.subscribe(md.QUEUE_LENGTH)
        source.produce({"x": 1}, graph.clock.now())
        source.produce({"x": 2}, graph.clock.now())
        assert subscription.get() == 2
        fil.step()
        assert subscription.get() == 1
        subscription.cancel()

    def test_stateless_memory_usage_zero(self, pipeline):
        graph, source, fil, sink = pipeline
        with fil.metadata.subscribe(md.MEMORY_USAGE) as s:
            assert s.get() == 0

    def test_implementation_type(self, pipeline):
        graph, source, fil, sink = pipeline
        with fil.metadata.subscribe(md.IMPLEMENTATION_TYPE) as s:
            assert s.get() == "Filter"


class TestSinkMetadata:
    def test_qos_and_priority(self, pipeline):
        graph, source, fil, sink = pipeline
        with sink.metadata.subscribe(md.QOS_SPEC) as s:
            assert s.get() == {"max_latency": 10}
        with sink.metadata.subscribe(md.PRIORITY) as s:
            assert s.get() == 3

    def test_sink_receives_and_counts(self, pipeline):
        graph, source, fil, sink = pipeline
        feed(graph, source, 10, gap=10.0)
        assert sink.received == 5  # half filtered out

    def test_sink_callback(self):
        graph = QueryGraph()
        source = graph.add(Source("s", Schema(("x",))))
        seen = []
        sink = graph.add(Sink("out", callback=lambda e: seen.append(e.field("x"))))
        graph.connect(source, sink)
        graph.freeze()
        source.produce({"x": 42}, 0.0)
        sink.step()
        assert seen == [42]

    def test_reuse_frequency(self):
        graph = QueryGraph()
        source = graph.add(Source("s", Schema(("x",))))
        fil = graph.add(Filter("f", lambda e: True))
        sink1, sink2 = graph.add(Sink("q1")), graph.add(Sink("q2"))
        graph.connect(source, fil)
        graph.connect(fil, sink1)
        graph.connect(fil, sink2)
        graph.freeze()
        with sink1.metadata.subscribe(md.REUSE_FREQUENCY) as s:
            assert s.get() == 2


class TestEventNotification:
    def test_metadata_period_validation(self, pipeline):
        graph, source, fil, sink = pipeline
        from repro.common.errors import GraphError

        with pytest.raises(GraphError):
            fil.metadata_period = 0.0

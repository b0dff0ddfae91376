"""Tests for the discrete-event simulation executor."""

from __future__ import annotations

import math

import pytest

from repro.common.clock import SystemClock
from repro.common.errors import SimulationError
from repro.graph.element import Schema
from repro.graph.graph import QueryGraph
from repro.graph.node import Sink, Source
from repro.operators.filter import Filter
from repro.runtime.simulation import SimulationExecutor
from repro.sources.synthetic import ConstantRate, SequentialValues, StreamDriver


def build(service_capacity=math.inf, rate=0.1, predicate=lambda e: True):
    graph = QueryGraph()
    source = graph.add(Source("s", Schema(("x",))))
    fil = graph.add(Filter("f", predicate))
    sink = graph.add(Sink("out"))
    graph.connect(source, fil)
    graph.connect(fil, sink)
    executor = SimulationExecutor(
        graph,
        [StreamDriver(source, ConstantRate(rate), SequentialValues())],
        service_capacity=service_capacity,
    )
    return graph, source, fil, sink, executor


class TestBasicExecution:
    def test_elements_flow_to_sink(self):
        graph, source, fil, sink, executor = build()
        executor.run_until(100.0)
        assert source.produced == 10
        assert sink.received == 10
        assert graph.total_pending_elements() == 0

    def test_run_for_is_relative(self):
        graph, source, fil, sink, executor = build()
        executor.run_for(50.0)
        executor.run_for(50.0)
        assert executor.now == 100.0
        assert sink.received == 10

    def test_requires_virtual_clock(self):
        with pytest.raises(SimulationError):
            graph = QueryGraph()
            graph.clock = SystemClock()  # sabotage
            SimulationExecutor(graph, [])

    def test_unfrozen_graph_is_frozen_automatically(self):
        graph = QueryGraph()
        source = graph.add(Source("s", Schema(("x",))))
        sink = graph.add(Sink("out"))
        graph.connect(source, sink)
        executor = SimulationExecutor(graph, [])
        assert graph.frozen

    def test_filter_drops(self):
        graph, source, fil, sink, executor = build(
            predicate=lambda e: e.field("x") % 2 == 0
        )
        executor.run_until(100.0)
        assert sink.received == 5

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            build(service_capacity=0.0)


class TestServiceCapacity:
    def test_backlog_under_overload(self):
        # 1 element per time unit but only 0.5 operator steps per unit:
        # each element needs 2 steps (filter + sink), so queues must grow.
        graph, source, fil, sink, executor = build(service_capacity=0.5, rate=1.0)
        executor.run_until(200.0)
        assert source.produced == 200
        assert sink.received < 100
        assert graph.total_pending_elements() > 0

    def test_backlog_drains_after_burst(self):
        graph, source, fil, sink, executor = build(service_capacity=5.0, rate=1.0)
        executor.run_until(100.0)
        # Stop arrivals, allow the backlog to drain.
        executor.run_until(400.0)
        assert sink.received == source.produced

    def test_infinite_capacity_drains_immediately(self):
        graph, source, fil, sink, executor = build()
        executor.run_until(10.0)
        assert graph.total_pending_elements() == 0


class TestConsumerTasks:
    def test_every_runs_on_grid(self):
        graph, source, fil, sink, executor = build()
        samples = []
        executor.every(25.0, samples.append)
        executor.run_until(100.0)
        assert samples == [25.0, 50.0, 75.0, 100.0]

    def test_every_with_start(self):
        graph, source, fil, sink, executor = build()
        samples = []
        executor.every(10.0, samples.append, start=5.0)
        executor.run_until(30.0)
        assert samples == [5.0, 15.0, 25.0]

    def test_at_runs_once(self):
        graph, source, fil, sink, executor = build()
        fired = []
        executor.at(42.0, fired.append)
        executor.run_until(100.0)
        assert fired == [42.0]

    def test_invalid_interval(self):
        graph, *_, executor = build()
        with pytest.raises(SimulationError):
            executor.every(0.0, lambda now: None)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run():
            graph, source, fil, sink, executor = build(rate=0.5)
            executor.run_until(500.0)
            return (source.produced, sink.received, executor.steps_executed)

        assert run() == run()


class TestRebuildSchedule:
    def test_rebuild_with_chain_scheduler_resubscribes(self):
        """Chain holds metadata subscriptions; a rebuild after a runtime
        installation must cancel and re-create them for the new operator set."""
        from repro.metadata import catalogue as md
        from repro.operators.filter import Filter
        from repro.runtime.scheduler import ChainScheduler

        graph2 = QueryGraph(default_metadata_period=25.0)
        src = graph2.add(Source("s", Schema(("x",))))
        f1 = graph2.add(Filter("f1", lambda e: True))
        out = graph2.add(Sink("out"))
        graph2.connect(src, f1)
        graph2.connect(f1, out)
        scheduler = ChainScheduler(refresh_interval=50.0)
        executor = SimulationExecutor(
            graph2,
            [StreamDriver(src, ConstantRate(0.5), SequentialValues())],
            scheduler=scheduler,
        )
        assert f1.metadata.is_included(md.AVG_SELECTIVITY)

        f2, out2 = Filter("f2", lambda e: True), Sink("out2")
        graph2.install_query([f2, out2], [(f1, f2), (f2, out2)])
        executor.rebuild_schedule()
        # Both old and new operators are now chain-managed consumers.
        assert f1.metadata.is_included(md.AVG_SELECTIVITY)
        assert f2.metadata.is_included(md.AVG_SELECTIVITY)
        executor.run_until(200.0)
        assert out2.received > 0
        scheduler.detach()
        assert not f2.metadata.is_included(md.AVG_SELECTIVITY)


class TestRoundRobinFairness:
    def test_backlogged_nodes_alternate_under_finite_capacity(self):
        # Two backlogged sinks, one credit per quantum: checking whether
        # backlog remains must not cost the next node its turn.
        graph = QueryGraph()
        order = []
        sources = []
        for name in ("x", "y"):
            source = graph.add(Source(f"s{name}", Schema(("v",))))
            sink = graph.add(Sink(name, callback=lambda e, name=name: order.append(name)))
            graph.connect(source, sink)
            sources.append(source)
        executor = SimulationExecutor(graph, service_capacity=1.0)

        def burst(now):
            for source in sources:
                for value in range(6):
                    source.produce({"v": value}, now)

        executor.at(1.0, burst)
        executor.run_until(1.0)   # the burst, then one step on the one credit
        assert order == ["x"]
        executor.run_until(20.0)  # one resume timer, one step, per quantum
        assert order == ["x", "y"] * 6
        assert executor.steps_executed == 12

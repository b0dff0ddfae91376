"""Operator readiness: a queue push marks its consumer ready, and every
scheduler picks among the ready nodes what a scan of every node would pick.

The scans are kept here as the oracles: each is the strategy's choice
computed by asking ``has_pending()`` of every node it schedules.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.common.clock import SystemClock
from repro.graph.element import Schema
from repro.graph.graph import QueryGraph
from repro.graph.node import Operator, Sink, Source
from repro.metadata.scheduling import ThreadedScheduler
from repro.operators import Filter, SlidingWindowJoin, TimeWindow
from repro.runtime.scheduler import (
    ChainScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
)
from repro.runtime.threaded import ThreadedExecutor
from repro.sources.synthetic import ConstantRate, SequentialValues, StreamDriver


def multi_query_graph(graph: QueryGraph) -> list[Source]:
    """Three queries: two filters sharing one source, and a windowed join."""
    schema = Schema(("x",))
    shared = graph.add(Source("s0", schema))
    left, right = (graph.add(Source(name, schema)) for name in ("s1", "s2"))
    for index, keep in enumerate((lambda e: e.field("x") % 3 != 0,
                                  lambda e: e.field("x") % 2 == 0)):
        fil = graph.add(Filter(f"f{index}", keep))
        sink = graph.add(Sink(f"out{index}", priority=index))
        graph.connect(shared, fil)
        graph.connect(fil, sink)
    windows = [graph.add(TimeWindow(f"w{side}", 5.0)) for side in "lr"]
    join = graph.add(SlidingWindowJoin(
        "j", impl="hash", key_fn=lambda e: e.field("x") % 4))
    sink = graph.add(Sink("out_j", priority=5))
    for source, window in zip((left, right), windows):
        graph.connect(source, window)
        graph.connect(window, join)
    graph.connect(join, sink)
    return [shared, left, right]


def _scheduled(graph: QueryGraph) -> list:
    return [n for n in graph.topological_order() if isinstance(n, (Operator, Sink))]


class RoundRobinScan:
    def __init__(self, graph: QueryGraph, scheduler) -> None:
        self.nodes, self.cursor = _scheduled(graph), 0

    def pick(self):
        count = len(self.nodes)
        for offset in range(count):
            node = self.nodes[(self.cursor + offset) % count]
            if node.has_pending():
                self.cursor = (self.cursor + offset + 1) % count
                return node
        return None


class ChainScan:
    def __init__(self, graph: QueryGraph, scheduler) -> None:
        order = _scheduled(graph)
        self.sinks = [n for n in order if isinstance(n, Sink)]
        self.operators = [n for n in order if isinstance(n, Operator)]
        self.scheduler = scheduler

    def pick(self):
        for sink in self.sinks:
            if sink.has_pending():
                return sink
        ready = [op for op in self.operators if op.has_pending()]
        if not ready:
            return None
        return max(ready, key=lambda op: (self.scheduler.priority(op),
                                          -self.operators.index(op)))


class PriorityScan(ChainScan):
    def pick(self):
        candidates = ([s for s in self.sinks if s.has_pending()]
                      + [o for o in self.operators if o.has_pending()])
        if not candidates:
            return None
        return max(candidates, key=lambda node: node.priority
                   if isinstance(node, Sink) else self.scheduler.priority(node))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("strategy,oracle", [
    (RoundRobinScheduler, RoundRobinScan),
    (lambda: ChainScheduler(refresh_interval=3.0), ChainScan),
    (PriorityScheduler, PriorityScan),
], ids=["round-robin", "chain", "priority"])
def test_next_node_sequence_equals_a_full_scan(seed, strategy, oracle):
    rng = random.Random(seed)
    graph = QueryGraph(default_metadata_period=2.0)
    sources = multi_query_graph(graph)
    graph.freeze()
    scheduler = strategy()
    scheduler.attach(graph)
    scan = oracle(graph, scheduler)
    picks = 0
    for now in range(400):
        graph.clock.advance_to(now * 0.1)
        if rng.random() < 0.45:
            for _ in range(rng.randrange(1, 4)):
                rng.choice(sources).produce({"x": rng.randrange(100)}, now * 0.1)
            continue
        # Step a few picks; sometimes pick without stepping (a choice whose
        # turn is skipped must move both cursors alike).
        for _ in range(rng.randrange(1, 6)):
            # The strategy first: Chain refreshes its priorities as it picks.
            picked = scheduler.next_node()
            expected = scan.pick()
            assert picked is expected
            if expected is None:
                break
            picks += 1
            if rng.random() < 0.9:
                expected.step()
    assert picks > 300


def test_a_push_racing_the_forget_keeps_the_node_ready():
    """A producer thread's push landing between the scheduler finding a
    ready node empty and discarding it must not strand the element."""
    graph = QueryGraph()
    source = graph.add(Source("s", Schema(("x",))))
    fil = graph.add(Filter("f", lambda e: True))
    sink = graph.add(Sink("out"))
    graph.connect(source, fil)
    graph.connect(fil, sink)
    graph.freeze()
    scheduler = RoundRobinScheduler()
    scheduler.attach(graph)
    source.produce({"x": 0}, 0.0)
    assert scheduler.next_node() is fil
    fil.step()
    real = fil.has_pending

    def empty_then_pushed() -> bool:
        # The check sees an empty queue; the push lands right after it.
        del fil.has_pending
        source.produce({"x": 1}, 0.0)
        return False

    fil.has_pending = empty_then_pushed
    assert scheduler.next_node() is sink   # the first element, delivered
    sink.step()
    assert fil.has_pending is not empty_then_pushed and real()
    assert scheduler.next_node() is fil     # the raced element is not lost
    fil.step()
    assert scheduler.next_node() is sink
    sink.step()
    assert sink.received == 2 and scheduler.next_node() is None


def test_concurrent_producers_lose_no_element():
    clock = SystemClock()
    graph = QueryGraph(clock=clock, scheduler=ThreadedScheduler(clock, pool_size=1),
                       default_metadata_period=0.05)
    sink = graph.add(Sink("out"))
    sources = []
    for index in range(3):
        source = graph.add(Source(f"s{index}", Schema(("x",))))
        fil = graph.add(Filter(f"f{index}", lambda e: True))
        graph.connect(source, fil)
        graph.connect(fil, sink)
        sources.append(source)
    executor = ThreadedExecutor(graph, [
        StreamDriver(source, ConstantRate(3000.0), SequentialValues(), seed=index)
        for index, source in enumerate(sources)])
    executor.start()
    time.sleep(0.3)
    executor.stop()
    # Drain what the processing thread had not reached when it stopped.
    while (node := executor.scheduler.next_node()) is not None:
        node.step()
    produced = sum(source.produced for source in sources)
    assert produced > 100
    assert sink.received == produced
    assert graph.total_pending_elements() == 0

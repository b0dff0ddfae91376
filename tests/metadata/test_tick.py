"""Tests for the scheduler tick: due periodic refreshes enter the
propagation engine as *one* wave whose seeds are refreshed inside the pass.

Pinned here:

* **headline** — k periodic inputs feeding one triggered aggregate recompute
  it once per tick, never on a half-refreshed set of inputs;
* **exactly once, in order** — a periodic item downstream of another
  (directly, or through a triggered item) is computed once per tick, after
  what it reads; values equal what one timer per task used to give;
* **per-task failure semantics** inside a tick (siblings unaffected, own
  bookkeeping, poisoned subtree, backoff off the grid and back onto it);
* **no timer leak** — a frozen clock plus subscribe/cancel churn leaves
  neither clock timers nor scheduler groups behind;
* ``explain_refresh`` names an item's own source, not its tick siblings,
  and a tick is one record per refreshed member plus one wave summary;
* two races of threaded ticks, made deterministic: a queued tick refresh
  is never merged away behind an outcome of the same handler, and a
  dependent is never reached before all its inputs are resolved;
* the same flows on real threads (``stress`` marker: the deadlock-sanitizer
  lane records their lock order).
"""

from __future__ import annotations

import re
import sys
import threading
import time

import pytest

from repro.common.clock import SystemClock, VirtualClock
from repro.graph.element import Schema
from repro.graph.graph import QueryGraph
from repro.graph.node import Sink, Source
from repro.metadata import catalogue as md
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import ThreadedScheduler, VirtualTimeScheduler
from repro.operators.join import SlidingWindowJoin
from repro.operators.window import TimeWindow
from repro.reliability import FailurePolicy
from repro.runtime.simulation import SimulationExecutor
from repro.sources.synthetic import ConstantRate, StreamDriver, UniformValues
from repro.telemetry.hub import explain_refresh

A, B, T, C = (MetadataKey(k) for k in "ABTC")
AGG = MetadataKey("agg")


class _Node:
    def __init__(self, name: str) -> None:
        self.name = name
        self.metadata: MetadataRegistry | None = None


def _registry(system: MetadataSystem, name: str) -> MetadataRegistry:
    node = _Node(name)
    node.metadata = MetadataRegistry(node, system)
    return node.metadata


def _virtual_system():
    clock = VirtualClock()
    return clock, MetadataSystem(clock, VirtualTimeScheduler(clock))


def _assert_accounting(system: MetadataSystem) -> dict:
    stats = system.stats()
    assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]
    assert stats["pending"] == 0
    return stats


# ---------------------------------------------------------------------------
# headline: one aggregate recompute per tick, never a mixed tick
# ---------------------------------------------------------------------------


class TestOneWavePerTick:
    K = 4

    def _fan_in(self, registry: MetadataRegistry):
        inputs = [MetadataKey(f"in{i}") for i in range(self.K)]
        for key in inputs:
            registry.define(MetadataDefinition(
                key, Mechanism.PERIODIC, period=5.0, compute=lambda ctx: ctx.now))
        observed: list[tuple[int, ...]] = []

        def aggregate(ctx):
            observed.append(tuple(
                registry.handler(key).update_count for key in inputs))
            return sum(ctx.value(key) for key in inputs)

        registry.define(MetadataDefinition(
            AGG, Mechanism.TRIGGERED, compute=aggregate,
            dependencies=[SelfDep(key) for key in inputs]))
        return inputs, observed

    def test_aggregate_recomputes_once_per_tick_on_a_full_set(self):
        clock, system = _virtual_system()
        registry = _registry(system, "fan-in")
        inputs, observed = self._fan_in(registry)
        subscription = registry.subscribe(AGG)
        del observed[:]
        for tick in range(1, 6):
            clock.advance_by(5.0)
            # Once per tick (not K times), and every input already carries
            # this tick's sample: seed + tick refreshes each.
            assert observed == [(1 + t,) * self.K for t in range(1, tick + 1)]
            assert subscription.get() == self.K * clock.now()
        stats = _assert_accounting(system)
        assert (stats["drains"], stats["merged_waves"]) == (5, 5)
        assert stats["coalesced_sources"] == stats["waves"] == 5 * self.K
        assert stats["refreshes"] == 5
        subscription.cancel()

    def test_consumer_at_the_tick_instant_reads_a_refreshed_set(self):
        clock, system = _virtual_system()
        registry = _registry(system, "fan-in")
        inputs, _ = self._fan_in(registry)
        subscriptions = [registry.subscribe(key) for key in (*inputs, AGG)]
        seen: list[list[float]] = []
        clock.advance_by(7.0)
        # Scheduled after the tick of the same virtual instant was armed, so
        # it fires right after it — the polling consumer of Section 3.2.2.
        clock.schedule_at(10.0, lambda: seen.append(
            [subscription.get() for subscription in subscriptions]))
        clock.advance_by(3.0)
        assert seen == [[10.0] * self.K + [self.K * 10.0]]
        for subscription in subscriptions:
            subscription.cancel()

    def test_join_input_output_ratio_recomputes_once_per_tick(self):
        """The catalogue's three-input aggregate on a real join."""
        graph = QueryGraph(default_metadata_period=5.0)
        schema = Schema(("k",))
        left = graph.add(Source("l", schema))
        right = graph.add(Source("r", schema))
        wl = graph.add(TimeWindow("wl", 20.0))
        wr = graph.add(TimeWindow("wr", 20.0))
        join = graph.add(SlidingWindowJoin(
            "j", impl="hash", key_fn=lambda element: element.field("k")))
        sink = graph.add(Sink("out"))
        for producer, consumer in ((left, wl), (right, wr), (wl, join),
                                   (wr, join), (join, sink)):
            graph.connect(producer, consumer)
        graph.freeze()
        executor = SimulationExecutor(graph, [
            StreamDriver(source, ConstantRate(1.0), UniformValues("k", 0, 5),
                         seed=seed)
            for source, seed in ((left, 11), (right, 12))])
        inputs = (md.OUTPUT_RATE, md.INPUT_RATE.q(0), md.INPUT_RATE.q(1))
        observed: list[tuple[int, ...]] = []
        join.metadata.define(MetadataDefinition(
            MetadataKey("test.witness"), Mechanism.TRIGGERED,
            dependencies=[SelfDep(key) for key in inputs],
            compute=lambda ctx: observed.append(tuple(
                join.metadata.handler(key).update_count for key in inputs))))
        ratio = join.metadata.subscribe(md.INPUT_OUTPUT_RATIO)
        witness = join.metadata.subscribe(MetadataKey("test.witness"))
        computes = ratio.handler.compute_count
        del observed[:]
        for tick in range(1, 9):
            executor.run_until(5.0 * tick)
            assert ratio.handler.compute_count == computes + tick
            assert observed[-1] == (1 + tick,) * 3 and len(observed) == tick
            rates = [join.metadata.get(key) for key in inputs]
            assert ratio.get() == pytest.approx(
                rates[0] / (rates[1] + rates[2]) if rates[1] + rates[2] else 0.0)
        assert ratio.get() > 0
        _assert_accounting(graph.metadata_system)
        ratio.cancel()
        witness.cancel()

    def test_tick_plan_is_cached_and_lone_refresh_keeps_its_path(self):
        clock, system = _virtual_system()
        registry = _registry(system, "fan-in")
        inputs, observed = self._fan_in(registry)
        subscription = registry.subscribe(AGG)
        clock.advance_by(50.0)
        stats = system.stats()
        # One plan for the tick, built once; nothing else ever planned.
        assert (stats["plan_misses"], stats["plan_hits"]) == (1, 9)
        assert stats["cached_plans"] == 1
        del observed[:]
        registry.handler(inputs[0]).refresh()  # a lone refresh: one source
        after = system.stats()
        assert after["drains"] == stats["drains"] + 1
        assert after["merged_waves"] == stats["merged_waves"]
        assert len(observed) == 1
        subscription.cancel()
        assert system.stats()["cached_plans"] == 0


# ---------------------------------------------------------------------------
# exactly once, in order — and equal to one-timer-per-task values
# ---------------------------------------------------------------------------


class _Hazard:
    """``A`` periodic, ``B`` periodic <- ``A``, ``T`` triggered <- ``A``,
    ``C`` periodic <- ``T``; one registry per item, so every edge crosses
    a registry boundary."""

    def __init__(self, periods: dict[str, float]) -> None:
        self.clock, self.system = _virtual_system()
        self.counts = dict.fromkeys("ABTC", 0)
        ra = _registry(self.system, "a")
        rb = _registry(self.system, "b")
        rt = _registry(self.system, "t")
        rc = _registry(self.system, "c")
        self.registries = {"A": ra, "B": rb, "T": rt, "C": rc}
        ra.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=periods["A"],
            compute=self._counting("A", lambda ctx: self.counts["A"])))
        rb.define(MetadataDefinition(
            B, Mechanism.PERIODIC, period=periods["B"],
            dependencies=[NodeDep(ra.owner, A)],
            compute=self._counting("B", lambda ctx: 10 * ctx.value(A))))
        rt.define(MetadataDefinition(
            T, Mechanism.TRIGGERED, dependencies=[NodeDep(ra.owner, A)],
            compute=self._counting("T", lambda ctx: ctx.value(A) + 100)))
        rc.define(MetadataDefinition(
            C, Mechanism.PERIODIC, period=periods["C"],
            dependencies=[NodeDep(rt.owner, T)],
            compute=self._counting("C", lambda ctx: ctx.value(T))))
        self.subscriptions = [rc.subscribe(C), rb.subscribe(B)]

    def _counting(self, name, compute):
        def counted(ctx):
            self.counts[name] += 1
            return compute(ctx)
        return counted

    def values(self) -> dict[str, float]:
        return {name: registry.get(MetadataKey(name))
                for name, registry in self.registries.items()}

    def advance(self, delta: float) -> dict[str, int]:
        before = dict(self.counts)
        self.clock.advance_by(delta)
        return {name: self.counts[name] - before[name] for name in before}


class TestExactlyOnceInOrder:
    def test_one_period(self):
        hazard = _Hazard(dict.fromkeys("ABC", 5.0))
        # Values one timer per task gave (dependency order = registration
        # order made A -> wave(T) -> C hold there too).
        expected = [dict(A=2, B=20, T=102, C=102), dict(A=3, B=30, T=103, C=103),
                    dict(A=4, B=40, T=104, C=104)]
        for values in expected:
            assert hazard.advance(5.0) == dict(A=1, B=1, T=1, C=1)
            assert hazard.values() == values  # C read *this* tick's T
        stats = _assert_accounting(hazard.system)
        assert stats["refreshes"] == 3  # T, once per tick
        assert (stats["drains"], stats["merged_waves"]) == (3, 3)

    def test_mixed_periods_share_only_even_ticks(self):
        hazard = _Hazard(dict(A=10.0, B=5.0, C=5.0))
        assert hazard.advance(5.0) == dict(A=0, B=1, T=0, C=1)
        assert hazard.values() == dict(A=1, B=10, T=101, C=101)
        assert hazard.advance(5.0) == dict(A=1, B=1, T=1, C=1)
        assert hazard.values() == dict(A=2, B=20, T=102, C=102)
        assert hazard.advance(5.0) == dict(A=0, B=1, T=0, C=1)
        assert hazard.advance(5.0) == dict(A=1, B=1, T=1, C=1)
        assert hazard.values() == dict(A=3, B=30, T=103, C=103)
        _assert_accounting(hazard.system)

    def test_a_big_advance_fires_every_tick_in_deadline_order(self):
        hazard = _Hazard(dict(A=5.0, B=10.0, C=15.0))
        assert hazard.advance(30.0) == dict(A=6, B=3, T=6, C=2)
        assert hazard.values() == dict(A=7, B=70, T=107, C=107)
        _assert_accounting(hazard.system)


# ---------------------------------------------------------------------------
# per-task failure semantics inside a tick
# ---------------------------------------------------------------------------


class TestFailuresInsideATick:
    N = 4

    def _build(self, failing: set, policy: FailurePolicy | None = None):
        clock, system = _virtual_system()
        telemetry = system.enable_telemetry()
        registry = _registry(system, "node")
        inputs = [MetadataKey(f"p{i}") for i in range(self.N)]
        below = [MetadataKey(f"t{i}") for i in range(self.N)]
        for index, (key, dependent) in enumerate(zip(inputs, below)):
            def compute(ctx, index=index):
                if index in failing:
                    raise RuntimeError(f"p{index} is down")
                return ctx.now
            registry.define(MetadataDefinition(
                key, Mechanism.PERIODIC, period=10.0, compute=compute,
                failure_policy=policy if index == 1 else None))
            registry.define(MetadataDefinition(
                dependent, Mechanism.TRIGGERED, dependencies=[SelfDep(key)],
                compute=lambda ctx, key=key: ctx.value(key) + 0.5))
        subscriptions = [registry.subscribe(key) for key in below]
        tasks = [registry.handler(key)._task for key in inputs]
        return clock, system, telemetry, registry, subscriptions, tasks, failing

    def test_one_failing_task_leaves_its_siblings_refreshed(self):
        clock, system, telemetry, registry, subs, tasks, failing = self._build(set())
        failing.add(1)
        clock.advance_by(10.0)
        assert [sub.get() for sub in subs] == [10.5, 0.5, 10.5, 10.5]
        assert [task.error_count for task in tasks] == [0, 1, 0, 0]
        assert [task.fire_count for task in tasks] == [1, 1, 1, 1]
        # One record per task, the failed one included.
        refreshes = telemetry.bus.events(kind="handler.refresh")
        assert [(e.key, e.error, e.mode) for e in refreshes] == [
            ("p0", False, "virtual"), ("p1", True, "virtual"),
            ("p2", False, "virtual"), ("p3", False, "virtual")]
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters['scheduler_refreshes_total{node="node"}'] == 4
        assert counters['scheduler_errors_total{node="node"}'] == 1
        # Exactly its triggered subtree is poisoned: planned, then skipped.
        poisoned = telemetry.bus.events(kind="wave.poisoned")
        assert [(e.key, e.reason) for e in poisoned] == [("t1", "poisoned-input")]
        stats = _assert_accounting(system)
        assert (stats["refreshes"], stats["skipped_poisoned"]) == (3, 1)
        assert "why is node/t1 stale?" in explain_refresh(telemetry, "node", "t1")
        failing.clear()
        clock.advance_by(10.0)
        assert [sub.get() for sub in subs] == [20.5] * 4

    def test_backoff_leaves_the_grid_and_recovery_rejoins_it(self):
        policy = FailurePolicy(max_retries=3, backoff_base=3.0, backoff_factor=1.0,
                               jitter=0.0, probe_interval=40.0)
        clock, system, telemetry, registry, subs, tasks, failing = self._build(
            set(), policy)
        scheduler = system.scheduler
        failing.add(1)
        clock.advance_by(10.0)       # the tick at t=10: p1 fails, re-arms at 13
        assert sorted(scheduler._groups) == [13.0, 20.0]
        assert list(scheduler._groups[13.0][1].values()) == [tasks[1]]
        retry = telemetry.bus.events(kind="handler.retry")[-1]
        assert (retry.key, retry.delay) == ("p1", 3.0)
        failing.clear()
        clock.advance_by(3.0)        # the retry at t=13 succeeds, alone
        assert subs[1].get() == 13.5
        # Healthy again: re-armed for deadline + period, not onto t=20 — it
        # rejoins its siblings' grid at the next shared deadline it hits.
        assert sorted(scheduler._groups) == [20.0, 23.0]
        assert [task.fire_count for task in tasks] == [1, 2, 1, 1]
        assert [task.error_count for task in tasks] == [0, 1, 0, 0]
        _assert_accounting(system)

    def test_quarantined_seed_is_skipped_and_counted(self):
        policy = FailurePolicy(max_retries=0, backoff_base=1.0, jitter=0.0,
                               probe_interval=1000.0)
        clock, system, telemetry, registry, subs, tasks, failing = self._build(
            set(), policy)
        failing.add(1)
        clock.advance_by(10.0)       # fails once -> quarantined at once
        assert registry.handler(MetadataKey("p1")).breaker.describe()[
            "state"] == "quarantined"
        before = system.stats()
        computes = registry.handler(MetadataKey("p1")).compute_count
        # The scheduler rests a quarantined task until its probe is due; a
        # tick that reaches it earlier all the same finds the circuit shut.
        clock.advance_by(5.0)
        system.scheduler._tick([(tasks[1], clock.now())])
        assert registry.handler(MetadataKey("p1")).compute_count == computes
        assert tasks[1].fire_count == 2 and tasks[1].error_count == 1
        after = _assert_accounting(system)
        # Nothing was planned because of it: its dependents heard nothing.
        assert after["refreshes"] == before["refreshes"]
        assert after["skipped_poisoned"] == before["skipped_poisoned"]
        assert subs[1].get() == 0.5

    def test_task_cancelled_by_an_earlier_compute_does_not_fire(self):
        clock, system = _virtual_system()
        registry = _registry(system, "node")
        fired: list[str] = []
        victim: list = []

        def first(ctx):
            fired.append("first")
            if victim:
                system.scheduler.unregister(victim[0])
            return ctx.now

        registry.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=5.0, compute=first))
        registry.define(MetadataDefinition(
            B, Mechanism.PERIODIC, period=5.0,
            compute=lambda ctx: fired.append("second")))
        registry.subscribe(A)
        registry.subscribe(B)
        del fired[:]
        victim.append(registry.handler(B)._task)
        clock.advance_by(5.0)
        assert fired == ["first"]
        assert victim[0].fire_count == 0 and victim[0].cancelled
        clock.advance_by(5.0)
        assert fired == ["first", "first"]
        assert system.scheduler.active_task_count() == 1


# ---------------------------------------------------------------------------
# two races of threaded ticks (TestThreadedTicks), made deterministic
# ---------------------------------------------------------------------------


class TestTickRaces:
    def test_a_queued_refresh_is_never_merged_away(self):
        """``tick`` peeks at the drainer unlocked.  When the peek found none
        but a thread took the role before the append, the tick's refreshes
        are queued as callables; a worker that then found the drainer busy
        refreshes the same, re-armed handler itself and queues the outcome
        behind them.  The drainer serves the two calls in two passes, so
        the queued refresh — a task its scheduler waits on — is called."""
        clock, system = _virtual_system()
        registry = _registry(system, "n")
        engine = system.propagation
        registry.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: ctx.now))
        events: list[str] = []
        armed = {"on": False}

        def queue_two_ticks(ctx):
            if armed["on"]:
                armed["on"] = False
                handler = registry.handler(A)
                # Queued behind the running wave, as the two racing ticks
                # would queue them: the pending refresh, then the outcome.
                engine._enqueue([(handler, lambda: events.append("refreshed")
                                  or True)])
                engine._enqueue([(handler, True)])
            return ctx.value(A) + 1

        registry.define(MetadataDefinition(
            T, Mechanism.TRIGGERED, dependencies=[SelfDep(A)],
            compute=queue_two_ticks))
        subscription = registry.subscribe(T)
        armed["on"] = True
        registry.notify_changed(A)
        assert events == ["refreshed"]
        stats = _assert_accounting(system)
        assert (stats["waves"], stats["drains"], stats["merged_waves"]) == (3, 3, 0)
        subscription.cancel()

    def test_a_half_included_dependent_is_not_recomputed(self):
        """A tick of one input on a worker can run while the dependent is
        still resolving its next input.  Reached then, it would recompute
        without that input — a provider error, and its subtree poisoned.
        It is attached once every input is resolved, and its seed compute
        reads the new value."""
        clock, system = _virtual_system()
        registry = _registry(system, "n")
        state = {"a": 1}
        registry.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND, compute=lambda ctx: state["a"]))

        def tick_of_a_meanwhile(ctx):
            # Stands in for the worker's tick: a change of A while T is
            # attached to A and B is still being included.
            state["a"] = 2
            registry.notify_changed(A)
            return 10

        registry.define(MetadataDefinition(
            B, Mechanism.STATIC, compute=tick_of_a_meanwhile))
        registry.define(MetadataDefinition(
            T, Mechanism.TRIGGERED, dependencies=[SelfDep(A), SelfDep(B)],
            compute=lambda ctx: ctx.value(A) + ctx.value(B)))
        subscription = registry.subscribe(T)
        assert subscription.get() == 12
        stats = _assert_accounting(system)
        assert (stats["errors"], stats["refreshes"]) == (0, 0)
        subscription.cancel()


# ---------------------------------------------------------------------------
# no timer leak on a clock that does not advance
# ---------------------------------------------------------------------------


class TestNoTimerLeak:
    def test_subscribe_cancel_churn_on_a_frozen_clock_leaves_nothing(self):
        clock, system = _virtual_system()
        registry = _registry(system, "churn")
        for key in (A, B):
            registry.define(MetadataDefinition(
                key, Mechanism.PERIODIC, period=5.0, compute=lambda ctx: 0))
        scheduler = system.scheduler
        for live in (0, 1):
            kept = [registry.subscribe(B)] if live else []
            for _ in range(10_000):
                registry.subscribe(A).cancel()
            assert scheduler.active_task_count() == live
            assert clock.pending_timers() == live
            assert len(clock._heap) <= 2 * live + 1
            assert sum(len(group[1]) for group in scheduler._groups.values()) == live
            assert len(scheduler._groups) == live
            for subscription in kept:
                subscription.cancel()
        assert clock.pending_timers() == 0 and not scheduler._groups

    def test_one_timer_per_deadline(self):
        clock, system = _virtual_system()
        registry = _registry(system, "grid")
        keys = [MetadataKey(f"k{i}") for i in range(50)]
        for index, key in enumerate(keys):
            registry.define(MetadataDefinition(
                key, Mechanism.PERIODIC, period=5.0 if index % 2 else 10.0,
                compute=lambda ctx: 0))
        subscriptions = [registry.subscribe(key) for key in keys]
        assert clock.pending_timers() == 2
        clock.advance_by(20.0)
        assert clock.pending_timers() == 2
        assert system.scheduler.active_task_count() == 50
        for subscription in subscriptions:
            subscription.cancel()
        assert clock.pending_timers() == 0


# ---------------------------------------------------------------------------
# observability: explain_refresh shows causal ancestors, not tick siblings
# ---------------------------------------------------------------------------


def _three_chains(constant: str = ""):
    """Three chains ``p.{x,y,z} -> t.* -> u.*`` (periodic, triggered,
    triggered) on one node, due at one tick; the middle of chain
    ``constant`` returns the same value every time, so its top is
    suppressed.  Telemetry is attached after subscribing."""
    clock, system = _virtual_system()
    registry = _registry(system, "n")
    tops = []
    for name in "xyz":
        source, middle, top = (MetadataKey(f"{kind}.{name}")
                               for kind in ("p", "t", "u"))
        registry.define(MetadataDefinition(
            source, Mechanism.PERIODIC, period=5.0, compute=lambda ctx: ctx.now))
        registry.define(MetadataDefinition(
            middle, Mechanism.TRIGGERED, dependencies=[SelfDep(source)],
            compute=(lambda ctx: 0) if name == constant else (
                lambda ctx, source=source: ctx.value(source) + 1)))
        registry.define(MetadataDefinition(
            top, Mechanism.TRIGGERED, dependencies=[SelfDep(middle)],
            compute=lambda ctx, middle=middle: ctx.value(middle) + 1))
        tops.append(registry.subscribe(top))
    return clock, system, system.enable_telemetry(), tops


def _masked(report: str) -> str:
    """``report`` with the measured refresh durations masked."""
    return re.sub(r"\(\d+\.\dus\)", "(…us)", report)


#: ``explain_refresh`` of ``n/u.y`` after the three-chain tick.  One record
#: per refreshed member renders the same log the per-hop and framing
#: events used to, minus a ``drainer acquired (queue depth 3)`` line.
U_Y_AFTER_ONE_TICK = """\
why did n/u.y refresh?  (last refresh at t=5)
span 1 (7 events)
  t=5 enqueued by change of n/p.y (queue depth 3)
  t=5 wave started at n/p.y covering 9 handler(s) merging 3 sources
    hop n/p.y -> n/t.y
    refresh n/t.y [changed] (…us)
    hop n/t.y -> n/u.y
    refresh n/u.y [changed] (…us)
  wave end: 6 refreshed, 0 suppressed, 0 error(s)"""


class TestExplainRefreshInsideATick:
    def test_output_names_the_items_own_source_only(self):
        clock, system, telemetry, tops = _three_chains()
        clock.advance_by(5.0)
        summaries = telemetry.bus.events(kind="wave.summary")
        assert [(e.sources, e.wave_size) for e in summaries] == [(3, 9)]
        report = explain_refresh(telemetry, "n", MetadataKey("u.y"))
        assert "why did n/u.y refresh?" in report
        assert "enqueued by change of n/p.y" in report
        assert "merging 3 sources" in report
        assert "hop n/p.y -> n/t.y" in report and "hop n/t.y -> n/u.y" in report
        assert "refresh n/t.y [changed]" in report
        assert "refresh n/u.y [changed]" in report
        assert "wave end: 6 refreshed" in report
        for sibling in ("p.x", "p.z", "t.x", "t.z", "u.x", "u.z"):
            assert sibling not in report
        for subscription in tops:
            subscription.cancel()

    def test_golden_output(self):
        clock, system, telemetry, tops = _three_chains()
        clock.advance_by(5.0)
        report = explain_refresh(telemetry, "n", MetadataKey("u.y"))
        assert _masked(report) == U_Y_AFTER_ONE_TICK
        for subscription in tops:
            subscription.cancel()


class TestOneRecordPerRefresh:
    """A tick with k periodic seeds that refreshes m dependents and
    suppresses s records exactly k + m + s + 1 events: one per seed, one
    per reached dependent, one wave summary."""

    @pytest.mark.parametrize("constant", ["", "z"], ids=["all-change", "one-cut"])
    def test_record_budget_of_a_tick(self, constant):
        clock, system, telemetry, tops = _three_chains(constant)
        before = system.stats()
        clock.advance_by(5.0)
        after = system.stats()
        registry = tops[0].handler.registry
        k = sum(registry.handler(MetadataKey(f"p.{name}"))._task.fire_count
                for name in "xyz")
        m = after["refreshes"] - before["refreshes"]
        s = after["suppressed"] - before["suppressed"]
        assert (k, m, s) == ((3, 6, 0) if not constant else (3, 5, 1))
        events = telemetry.bus.events()
        assert len(events) == k + m + s + 1 == 10
        assert sorted({e.kind for e in events}) == (
            ["handler.refresh", "wave.refresh", "wave.summary"]
            + (["wave.suppressed"] if s else []))
        (summary,) = telemetry.bus.events(kind="wave.summary")
        assert (summary.refreshed, summary.suppressed) == (m, s)
        # Every hop is named once, by the refresh it led to.
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["wave_hops_total"] == sum(
            len(e.via) for e in telemetry.bus.events(kind="wave.refresh")) == m
        for subscription in tops:
            subscription.cancel()


# ---------------------------------------------------------------------------
# the same flows on real threads
# ---------------------------------------------------------------------------


@pytest.mark.stress
class TestThreadedTicks:
    """Ticks on a worker pool, beside a thread firing event waves and one
    churning subscriptions.  Under contention a worker settles its share on
    its own thread (a busy drainer only propagates), so the per-tick
    exactly-once-in-order guarantee is checked where it holds — one worker,
    idle engine — and the invariants everywhere."""

    def _system(self, pool_size: int):
        clock = SystemClock()
        scheduler = ThreadedScheduler(clock, pool_size=pool_size)
        system = MetadataSystem(clock, scheduler,
                                lock_policy=FineGrainedLockPolicy())
        return scheduler, system

    def test_single_worker_tick_is_one_ordered_wave(self):
        scheduler, system = self._system(pool_size=1)
        registry = _registry(system, "ordered")
        counts = dict.fromkeys("ABTC", 0)
        mismatches: list[tuple] = []

        def counting(name, compute):
            def counted(ctx):
                counts[name] += 1
                return compute(ctx)
            return counted

        def read_t(ctx):
            # C runs after T in the same pass: T is this tick's.
            if ctx.value(T) != ctx.value(A) + 100:
                mismatches.append((ctx.value(A), ctx.value(T)))
            return ctx.value(T)

        registry.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=0.01,
            compute=counting("A", lambda ctx: counts["A"])))
        registry.define(MetadataDefinition(
            T, Mechanism.TRIGGERED, dependencies=[SelfDep(A)],
            compute=counting("T", lambda ctx: ctx.value(A) + 100)))
        registry.define(MetadataDefinition(
            C, Mechanism.PERIODIC, period=0.01,
            dependencies=[SelfDep(T), SelfDep(A)],
            compute=counting("C", read_t)))
        # Both tasks share every deadline only if registered at one instant.
        frozen = scheduler.clock.now()
        scheduler.clock.now = lambda: frozen
        subscription = registry.subscribe(C)
        del scheduler.clock.now
        with scheduler:
            time.sleep(0.25)
            subscription.cancel()
        assert counts["A"] >= 5
        assert mismatches == []
        # Seed + one per tick, never more (the cancel may cut the last short).
        assert counts["A"] - 1 <= counts["T"] <= counts["A"]
        stats = _assert_accounting(system)
        assert stats["merged_waves"] >= 1
        assert stats["periodic_tasks"] == 0
        assert stats["handlers_created"] == stats["handlers_removed"]

    @pytest.mark.parametrize("pool_size", [1, 3])
    def test_ticks_beside_event_waves_and_churn(self, pool_size):
        scheduler, system = self._system(pool_size)
        registries = [_registry(system, f"node{i}") for i in range(4)]
        state = {"event": 0}
        event = MetadataKey("event")
        for index, registry in enumerate(registries):
            inputs = [MetadataKey(f"in{i}") for i in range(3)]
            for key in inputs:
                registry.define(MetadataDefinition(
                    key, Mechanism.PERIODIC, period=0.005,
                    compute=lambda ctx: ctx.now))
            registry.define(MetadataDefinition(
                event, Mechanism.ON_DEMAND, compute=lambda ctx: state["event"]))
            upstream = registries[index - 1].owner
            registry.define(MetadataDefinition(
                AGG, Mechanism.TRIGGERED,
                dependencies=[SelfDep(key) for key in inputs]
                + [SelfDep(event), NodeDep(upstream, event)],
                compute=lambda ctx, inputs=tuple(inputs): (
                    sum(ctx.value(key) for key in inputs), state["event"])))
        stop = threading.Event()
        errors: list[BaseException] = []

        def guarded(body):
            def run():
                try:
                    while not stop.is_set():
                        body()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
            return threading.Thread(target=run)

        def fire_events():
            state["event"] += 1
            registries[state["event"] % 4].notify_changed(event)

        def churn():
            registries[0].subscribe(MetadataKey("in0")).cancel()
            registries[1].subscribe(AGG).cancel()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # more interleavings per second
        try:
            with scheduler:
                subscriptions = [registry.subscribe(AGG) for registry in registries]
                tasks = [registry.handler(MetadataKey(f"in{i}"))._task
                         for registry in registries for i in range(3)]
                threads = [guarded(fire_events), guarded(churn)]
                for thread in threads:
                    thread.start()
                time.sleep(0.4)
                # Lock recording can slow ticks past the window: keep the
                # storm going (bounded) until every task has fired.
                deadline = time.monotonic() + 10.0
                while min(task.fire_count for task in tasks) < 1 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
                for subscription in subscriptions:
                    subscription.cancel()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [task.error_count for task in tasks] == [0] * len(tasks)
        assert not any(task._running for task in tasks)
        assert min(task.fire_count for task in tasks) >= 1, (
            [task.fire_count for task in tasks])
        stats = _assert_accounting(system)
        assert stats["errors"] == 0
        assert stats["periodic_tasks"] == 0
        assert stats["handlers_created"] == stats["handlers_removed"]

"""Tests for cached wave plans, topology epochs and wave coalescing.

The plan cache must be *invisible* except in cost: any sequence of wiring
changes and waves must produce byte-identical refresh/suppression
accounting on the cached and the uncached engine, and a wiring change in
the middle of a wave stream must invalidate every cached plan (topology
epoch bump) so the next wave sees the new structure.
"""

from __future__ import annotations

import random

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.propagation import ShardedPropagationBackend
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

A, B, C, D, E = (MetadataKey(k) for k in "abcde")

WORK_KEYS = ("waves", "refreshes", "suppressed", "errors")


class _Owner:
    name = "cache-owner"


def make_registry(engine: ShardedPropagationBackend):
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                            propagation=engine)
    owner = _Owner()
    return MetadataRegistry(owner, system)


def define_source(registry, key, state):
    registry.define(MetadataDefinition(
        key, Mechanism.ON_DEMAND, compute=lambda ctx: state[key.name],
    ))


def define_triggered(registry, key, deps, compute=None):
    if compute is None:
        def compute(ctx, _deps=tuple(deps)):
            return sum(ctx.value(d) for d in _deps)
    registry.define(MetadataDefinition(
        key, Mechanism.TRIGGERED, compute=compute,
        dependencies=[SelfDep(d) for d in deps],
    ))


class TestPlanCache:
    def test_repeated_waves_hit_the_cache(self):
        engine = ShardedPropagationBackend(1)
        registry = make_registry(engine)
        state = {"a": 1}
        define_source(registry, A, state)
        define_triggered(registry, B, [A])
        define_triggered(registry, C, [B])
        subscription = registry.subscribe(C)
        for i in range(5):
            state["a"] = 10 + i
            registry.notify_changed(A)
        stats = engine.stats()
        assert stats["plan_misses"] == 1
        assert stats["plan_hits"] == 4
        assert stats["cached_plans"] == 1
        assert subscription.get() == 14

    def test_include_mid_stream_bumps_epoch_and_rebuilds(self):
        """A new dependent subscribed between waves must join the next wave."""
        engine = ShardedPropagationBackend(1)
        registry = make_registry(engine)
        state = {"a": 1}
        define_source(registry, A, state)
        define_triggered(registry, B, [A])
        registry.subscribe(B)
        state["a"] = 2
        registry.notify_changed(A)
        epoch_before = engine.topology_epoch
        # Wiring change: C is included mid-stream.
        define_triggered(registry, C, [A])
        registry.subscribe(C)
        assert engine.topology_epoch > epoch_before
        state["a"] = 3
        registry.notify_changed(A)
        assert registry.get(C) == 3  # refreshed by the rebuilt plan
        stats = engine.stats()
        assert stats["plan_misses"] >= 2  # initial plan + post-include rebuild

    def test_exclude_mid_stream_stops_refreshing_handler(self):
        engine = ShardedPropagationBackend(1)
        registry = make_registry(engine)
        state = {"a": 1}
        define_source(registry, A, state)
        seen = []

        def spy(ctx):
            value = ctx.value(A)
            seen.append(value)
            return value

        define_triggered(registry, B, [A], compute=spy)
        subscription = registry.subscribe(B)
        state["a"] = 2
        registry.notify_changed(A)
        assert 2 in seen
        epoch_before = engine.topology_epoch
        subscription.cancel()  # exclusion: B's handler is removed
        assert engine.topology_epoch > epoch_before
        assert engine.stats()["cached_plans"] == 0  # eagerly invalidated
        seen.clear()
        state["a"] = 3
        registry.notify_changed(A)
        assert seen == []  # removed handler never refreshes again

    def test_undefine_bumps_epoch(self):
        engine = ShardedPropagationBackend(1)
        registry = make_registry(engine)
        state = {"a": 1}
        define_source(registry, A, state)
        epoch_before = engine.topology_epoch
        registry.undefine(A)
        assert engine.topology_epoch > epoch_before

    def test_stale_plan_is_not_cached_across_epoch_bump(self):
        """A plan built concurrently with a wiring change must not land in
        the cache (it may describe the old structure)."""
        engine = ShardedPropagationBackend(1)
        registry = make_registry(engine)
        state = {"a": 1}
        define_source(registry, A, state)
        define_triggered(registry, B, [A])
        registry.subscribe(B)
        source = registry.handler(A)
        engine = engine.engines[0]
        original_build = engine._build_plan

        def racing_build(seeds):
            entries = original_build(seeds)
            engine.bump_topology()  # wiring changed while we were building
            return entries

        engine._build_plan = racing_build
        try:
            state["a"] = 2
            registry.notify_changed(A)
        finally:
            engine._build_plan = original_build
        assert engine.stats()["cached_plans"] == 0
        # The wave itself still ran to completion on the stale-but-valid plan.
        assert registry.get(B) == 2
        assert source.removed is False


class TestCachedUncachedEquivalence:
    def _random_workload(self, engine: ShardedPropagationBackend, seed: int):
        """Random DAG + interleaved waves/wiring changes, fully seeded."""
        rng = random.Random(seed)
        registry = make_registry(engine)
        state = {"s0": 0, "s1": 0}
        sources = [MetadataKey("s0"), MetadataKey("s1")]
        for key in sources:
            define_source(registry, key, state)
        layers: list[list[MetadataKey]] = [sources]
        counter = 0
        for depth in range(3):
            layer = []
            for _ in range(rng.randint(2, 4)):
                counter += 1
                key = MetadataKey(f"n{depth}.{counter}")
                pool = [k for level in layers for k in level]
                deps = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
                if rng.random() < 0.3:
                    # Clamped node: saturates and cuts propagation short.
                    def clamp(ctx, _deps=tuple(deps)):
                        return min(2, sum(ctx.value(d) for d in _deps))
                    define_triggered(registry, key, deps, compute=clamp)
                else:
                    define_triggered(registry, key, deps)
                layer.append(key)
            layers.append(layer)
        leaves = [k for level in layers[1:] for k in level]
        subscriptions = {k: registry.subscribe(k) for k in leaves}
        # Interleave waves with wiring changes, same script on both engines.
        for step in range(60):
            action = rng.random()
            if action < 0.75:
                source = rng.choice(["s0", "s1"])
                state[source] += rng.randint(1, 3)
                registry.notify_changed(MetadataKey(source))
            elif action < 0.9 and subscriptions:
                key = rng.choice(sorted(subscriptions))
                subscriptions.pop(key).cancel()
            else:
                counter += 1
                key = MetadataKey(f"x{counter}")
                pool = [k for level in layers for k in level
                        if registry.is_included(k) or k in sources]
                deps = rng.sample(pool, k=min(len(pool), 2))
                define_triggered(registry, key, deps)
                subscriptions[key] = registry.subscribe(key)
        values = {str(k): registry.get(k) for k in sorted(subscriptions)}
        return engine.stats(), values

    def test_identical_accounting_on_random_sequences(self):
        for seed in (7, 23, 99):
            cached_stats, cached_values = self._random_workload(
                ShardedPropagationBackend(1), seed)
            uncached_stats, uncached_values = self._random_workload(
                ShardedPropagationBackend(1, plan_cache=False, coalesce=False),
                seed)
            for key in WORK_KEYS:
                assert cached_stats[key] == uncached_stats[key], (
                    f"seed {seed}: {key} diverged: "
                    f"{cached_stats} vs {uncached_stats}")
            assert cached_values == uncached_values
            assert cached_stats["plan_hits"] > 0  # the cache actually engaged


class TestCoalescing:
    def _shared_chain(self, engine: ShardedPropagationBackend):
        registry = make_registry(engine)
        state = {"s0": 0, "s1": 0, "s2": 0}
        sources = [MetadataKey(k) for k in ("s0", "s1", "s2")]
        for key in sources:
            define_source(registry, key, state)
        stages = []
        for key in sources:
            stage = MetadataKey(f"stage.{key}")
            define_triggered(registry, stage, [key])
            stages.append(stage)
        merge_calls = []

        def merge(ctx):
            value = sum(ctx.value(s) for s in stages)
            merge_calls.append(value)
            return value

        define_triggered(registry, D, stages, compute=merge)
        define_triggered(registry, E, [D])
        registry.subscribe(E)
        return registry, state, sources, merge_calls

    def test_batch_recomputes_shared_dependent_once(self):
        engine = ShardedPropagationBackend(1)
        registry, state, sources, merge_calls = self._shared_chain(engine)
        merge_calls.clear()
        state.update(s0=1, s1=2, s2=3)
        registry.notify_changed_many(sources)
        assert merge_calls == [6]  # once per batch, not once per source
        stats = engine.stats()
        assert stats["waves"] == 3          # lost-wave accounting: per source
        assert stats["drains"] == 1         # one physical pass
        assert stats["merged_waves"] == 1
        assert stats["coalesced_sources"] == 3
        assert registry.get(E) == 6

    def test_per_source_engine_recomputes_per_wave(self):
        engine = ShardedPropagationBackend(1, coalesce=False)
        registry, state, sources, merge_calls = self._shared_chain(engine)
        merge_calls.clear()
        state.update(s0=1, s1=2, s2=3)
        registry.notify_changed_many(sources)
        assert len(merge_calls) == 3  # one recompute per source wave
        stats = engine.stats()
        assert stats["waves"] == 3
        assert stats["merged_waves"] == 0
        assert registry.get(E) == 6  # same final value either way

    def test_duplicate_sources_collapse(self):
        engine = ShardedPropagationBackend(1)
        registry, state, sources, merge_calls = self._shared_chain(engine)
        merge_calls.clear()
        state.update(s0=5)
        registry.notify_changed_many([sources[0], sources[0], sources[0]])
        assert merge_calls == [5]
        stats = engine.stats()
        assert stats["waves"] == 3  # every notification is accounted
        assert stats["drains"] == 1

    def test_coalesced_wave_emits_linkage_events(self):
        """One call is one span: a ``notify_changed_many`` batch has one
        ``wave.enqueued`` and nothing to link, however many sources."""
        engine = ShardedPropagationBackend(1)
        registry, state, sources, merge_calls = self._shared_chain(engine)
        telemetry = registry.system.enable_telemetry()
        state.update(s0=1, s1=2, s2=3)
        registry.notify_changed_many(sources)
        enqueued = telemetry.bus.events(kind="wave.enqueued")
        assert [(e.key, e.pending) for e in enqueued] == [("s0", 3)]
        assert telemetry.bus.events(kind="wave.coalesced") == []
        starts = telemetry.bus.events(kind="wave.start")
        assert [(e.sources, e.span) for e in starts] == [(3, enqueued[0].span)]
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters.get("waves_coalesced_total") is None
        assert engine.stats()["merged_waves"] == 1

    def test_separately_enqueued_sources_are_linked_when_merged(self):
        """``wave.coalesced`` is for what the *drainer* merges: sources
        enqueued by separate calls (here from inside a running wave) have
        spans of their own, each tied to the wave that served it."""
        engine = ShardedPropagationBackend(1)
        registry, state, sources, merge_calls = self._shared_chain(engine)

        def nudge(ctx):
            if state["s0"] == 1 and not state["s1"]:
                state.update(s1=2, s2=3)
                registry.notify_changed(sources[1])
                registry.notify_changed(sources[2])
            return state["s0"]

        define_triggered(registry, A, [sources[0]], compute=nudge)
        registry.subscribe(A)
        telemetry = registry.system.enable_telemetry()
        state.update(s0=1)
        registry.notify_changed(sources[0])
        assert registry.get(E) == 6
        enqueued = telemetry.bus.events(kind="wave.enqueued")
        assert [e.key for e in enqueued] == ["s0", "s1", "s2"]
        assert len({e.span for e in enqueued}) == 3
        merged = [e for e in telemetry.bus.events(kind="wave.start")
                  if e.sources > 1]
        assert [(e.key, e.sources) for e in merged] == [("s1", 2)]
        # Linkage: the wave runs under the first merged call's span; every
        # later call's source ties its own enqueue span to it.
        coalesced = telemetry.bus.events(kind="wave.coalesced")
        assert [(e.key, e.span, e.source_span) for e in coalesced] == [
            ("s2", enqueued[1].span, enqueued[2].span)]
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters.get("waves_coalesced_total") == 1
        stats = engine.stats()
        assert (stats["waves"], stats["drains"], stats["merged_waves"],
                stats["coalesced_sources"]) == (3, 2, 1, 2)

    def test_nested_notifications_still_coalesce_safely(self):
        """A notify fired from inside a compute lands in the running drain
        and is processed afterwards — coalescing must not drop or double it."""
        engine = ShardedPropagationBackend(1)
        registry = make_registry(engine)
        state = {"a": 0, "b": 0}
        define_source(registry, A, state)
        define_source(registry, B, state)

        def chained(ctx):
            value = ctx.value(A)
            if value == 1 and state["b"] == 0:
                state["b"] = 7
                registry.notify_changed(B)
            return value

        define_triggered(registry, C, [A], compute=chained)
        define_triggered(registry, D, [B])
        registry.subscribe(C)
        registry.subscribe(D)
        state["a"] = 1
        registry.notify_changed(A)
        assert registry.get(C) == 1
        assert registry.get(D) == 7
        stats = engine.stats()
        assert stats["waves"] == 2
        assert stats["pending"] == 0

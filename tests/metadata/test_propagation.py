"""Tests for triggered-update propagation (Section 3.2.3)."""

from __future__ import annotations

import re

import pytest

from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.propagation import QUARANTINED, PropagationEngine
from repro.metadata.registry import MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler
from repro.telemetry.hub import explain_refresh

A, B, C, D, E = (MetadataKey(k) for k in "abcde")


def make_periodic(registry, key, values, period=10.0):
    iterator = iter(values)
    registry.define(MetadataDefinition(
        key, Mechanism.PERIODIC, period=period, compute=lambda ctx: next(iterator),
    ))


class TestWaveOrdering:
    def test_diamond_recomputed_once_per_wave(self, make_owner, clock, system):
        """D depends on B and C which both depend on A: a change of A must
        recompute D exactly once, after both B and C (Section 3.2.3's
        'updates have to be performed in the right order')."""
        owner = make_owner()
        make_periodic(owner.metadata, A, [1, 2])
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A) * 10,
            dependencies=[SelfDep(A)],
        ))
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A) * 100,
            dependencies=[SelfDep(A)],
        ))
        top_values = []

        def compute_top(ctx):
            value = ctx.value(B) + ctx.value(C)
            top_values.append(value)
            return value

        owner.metadata.define(MetadataDefinition(
            D, Mechanism.TRIGGERED, compute=compute_top,
            dependencies=[SelfDep(B), SelfDep(C)],
        ))
        subscription = owner.metadata.subscribe(D)
        assert subscription.get() == 110
        top_values.clear()
        clock.advance_by(10.0)  # A: 1 -> 2
        assert subscription.get() == 220
        # Exactly one recomputation, never the inconsistent mix 210/120.
        assert top_values == [220]
        subscription.cancel()

    def test_deep_chain_propagates(self, make_owner, clock):
        owner = make_owner()
        make_periodic(owner.metadata, A, [1, 5])
        previous = A
        for key in (B, C, D, E):
            owner.metadata.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
                dependencies=[SelfDep(previous)],
            ))
            previous = key
        subscription = owner.metadata.subscribe(E)
        assert subscription.get() == 5  # 1 + 4 hops
        clock.advance_by(10.0)
        assert subscription.get() == 9  # 5 + 4 hops
        subscription.cancel()

    def test_unchanged_intermediate_cuts_propagation(self, make_owner, clock, system):
        """B clamps A; if B's value does not change, C is not recomputed."""
        owner = make_owner()
        make_periodic(owner.metadata, A, [1, 2, 3, 4, 5])
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED,
            compute=lambda ctx: min(ctx.value(A), 2),  # saturates at 2
            dependencies=[SelfDep(A)],
        ))
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B),
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(C)
        c_handler = owner.metadata.handler(C)
        clock.advance_by(40.0)  # A runs 1,2,3,4; B saturates at 2 from t=10
        assert subscription.get() == 2
        # C recomputed once at inclusion and once when B changed 1->2; the
        # later unchanged B values were suppressed.
        assert c_handler.compute_count == 2
        assert system.stats()["suppressed"] >= 1
        subscription.cancel()

    def test_cross_node_propagation(self, make_owner, clock):
        """Inter-node dependency: updates propagate through the query graph."""
        upstream, downstream = make_owner("up"), make_owner("down")
        make_periodic(upstream.metadata, A, [1, 7])
        downstream.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A) * 2,
            dependencies=[NodeDep(upstream, A)],
        ))
        subscription = downstream.metadata.subscribe(B)
        assert subscription.get() == 2
        clock.advance_by(10.0)
        assert subscription.get() == 14
        subscription.cancel()

    def test_duplicate_dependency_notified_once(self, make_owner, clock):
        """An item depending twice on the same upstream item is refreshed
        once per change (duplicate-subscription detection, Section 3.2.3)."""
        owner = make_owner()
        make_periodic(owner.metadata, A, [1, 2])
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED,
            compute=lambda ctx: sum(ctx.values(A)),
            dependencies=[SelfDep(A), SelfDep(A)],
        ))
        subscription = owner.metadata.subscribe(B)
        handler_b = subscription.handler
        handler_a = owner.metadata.handler(A)
        # A's counter was incremented once per edge...
        assert handler_a.include_count == 2
        # ...but B appears once in A's dependents.
        assert list(handler_a.dependents()).count(handler_b) == 1
        compute_before = handler_b.compute_count
        clock.advance_by(10.0)
        assert handler_b.compute_count == compute_before + 1
        assert subscription.get() == 4
        subscription.cancel()


class TestEngineAccounting:
    def test_system_holds_the_engine_it_is_given(self, clock):
        engine = PropagationEngine(plan_cache=False)
        system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                                propagation=engine)
        assert system.propagation is engine
        with pytest.raises(TypeError):
            MetadataSystem(clock, VirtualTimeScheduler(clock),
                           propagation=object())  # type: ignore[arg-type]

    def test_stats_exposed(self, make_owner, clock, system):
        owner = make_owner()
        make_periodic(owner.metadata, A, [1, 2, 3])
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A),
            dependencies=[SelfDep(A)],
        ))
        subscription = owner.metadata.subscribe(B)
        clock.advance_by(20.0)
        stats = system.propagation.stats()
        assert stats["waves"] >= 2
        assert stats["refreshes"] >= 2
        subscription.cancel()

    def test_periodic_dependent_not_refreshed_by_wave(self, make_owner, clock):
        """Periodic handlers keep their own cadence; only triggered handlers
        react to dependency changes."""
        owner = make_owner()
        make_periodic(owner.metadata, A, [1, 2, 3, 4, 5], period=10.0)
        counter = {"n": 0}

        def compute_b(ctx):
            counter["n"] += 1
            return ctx.value(A)

        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, period=100.0, compute=compute_b,
            dependencies=[SelfDep(A)],
        ))
        subscription = owner.metadata.subscribe(B)
        clock.advance_by(40.0)  # A updated 4x; B's own period not yet due
        assert counter["n"] == 1  # only the seed computation
        subscription.cancel()


class _FakeHandler:
    """Minimal handler standing in for wave-collection unit tests."""

    def __init__(self, name, reacts=True):
        self.name = name
        self.removed = False
        self.reacts = reacts
        self.reaction_calls = 0
        self.recomputes = 0
        self.dependency_handlers = []
        self._dependents = []

    def dependents(self):
        return tuple(self._dependents)

    def depends_on(self, *handlers):
        for handler in handlers:
            handler._dependents.append(self)
            self.dependency_handlers.append((None, handler))

    def on_dependency_changed(self, dependency):
        self.reaction_calls += 1
        return self.reacts

    def recompute_for_propagation(self):
        self.recomputes += 1
        return True

    @property
    def propagates_always(self):
        return False

    def __repr__(self):
        return f"_FakeHandler({self.name})"


class TestWaveCollection:
    def test_reaction_hook_memoized_per_edge(self):
        """Longest-path relaxation revisits nodes when depths grow; the
        on_dependency_changed hook must still run at most once per edge."""
        engine = PropagationEngine()
        source = _FakeHandler("src")
        left = _FakeHandler("left")
        mid = _FakeHandler("mid")
        sink = _FakeHandler("sink")
        # src -> left -> mid -> sink, plus shortcuts src -> mid and
        # src -> sink: sink's depth is relaxed repeatedly.
        left.depends_on(source)
        mid.depends_on(source, left)
        sink.depends_on(source, mid)
        engine.value_changed(source)
        for handler in (left, mid, sink):
            assert handler.recomputes == 1
        # Edges: src->left, src->mid, src->sink, left->mid, mid->sink = 5
        total_calls = left.reaction_calls + mid.reaction_calls + sink.reaction_calls
        assert total_calls == 5

    def test_wave_order_is_topological(self):
        engine = PropagationEngine()
        order = []

        class Recording(_FakeHandler):
            def recompute_for_propagation(self):
                order.append(self.name)
                return super().recompute_for_propagation()

        source = Recording("src")
        b = Recording("b")
        c = Recording("c")
        d = Recording("d")
        b.depends_on(source)
        c.depends_on(source, b)
        d.depends_on(b, c)
        engine.value_changed(source)
        assert order == ["b", "c", "d"]

    def test_quarantined_outcome_poisons_instead_of_refreshing(self):
        """Quarantine is the handler's answer; the engine only maps it: the
        member is skipped, never counted as a refresh, and its dependents
        are poisoned rather than suppressed on a stale input."""
        engine = PropagationEngine()
        source = _FakeHandler("src")

        class Resting(_FakeHandler):
            def recompute_for_propagation(self):
                self.recomputes += 1
                return QUARANTINED

        resting = Resting("resting")
        resting.depends_on(source)
        below = _FakeHandler("below")
        below.depends_on(resting)
        engine.value_changed(source)
        stats = engine.stats()
        assert resting.recomputes == 1 and below.recomputes == 0
        assert (stats["planned"], stats["refreshes"], stats["suppressed"],
                stats["skipped_poisoned"]) == (2, 0, 0, 2)

    def test_concurrently_removed_handler_counts_as_suppressed(self):
        engine = PropagationEngine()
        source = _FakeHandler("src")
        dep = _FakeHandler("dep")
        dep.depends_on(source)

        class Vanishing(_FakeHandler):
            def recompute_for_propagation(self):
                from repro.common.errors import MetadataNotIncludedError

                raise MetadataNotIncludedError("removed mid-wave")

        ghost = Vanishing("ghost")
        ghost.depends_on(source)
        engine.value_changed(source)
        stats = engine.stats()
        assert stats["errors"] == 0
        assert stats["suppressed"] == 1
        assert dep.recomputes == 1


class TestNestedEvents:
    def test_event_during_wave_queued_not_recursive(self, make_owner):
        """A compute that fires another event must not re-enter the engine."""
        owner = make_owner()
        state = {"x": 1, "y": 10}
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND, compute=lambda ctx: state["x"],
        ))
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.ON_DEMAND, compute=lambda ctx: state["y"],
        ))

        def compute_b(ctx):
            # Refreshing B bumps y and fires C's event: a nested wave.
            state["y"] += 1
            owner.metadata.notify_changed(C)
            return ctx.value(A)

        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, compute=compute_b, dependencies=[SelfDep(A)],
        ))
        owner.metadata.define(MetadataDefinition(
            D, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(C),
            dependencies=[SelfDep(C)],
        ))
        sb = owner.metadata.subscribe(B)
        sd = owner.metadata.subscribe(D)
        state["x"] = 2
        owner.metadata.notify_changed(A)
        # B refreshed; the nested C event was queued and D refreshed after.
        assert sb.get() == 2
        assert sd.get() == state["y"]
        sb.cancel()
        sd.cancel()


class TestCrossRegistryWaves:
    """A wave crossing registries is one wave on the one engine: it takes
    no graph lock and recomputes each member once."""

    @pytest.fixture
    def system(self, clock):
        return MetadataSystem(clock, VirtualTimeScheduler(clock),
                              lock_policy=FineGrainedLockPolicy())

    def ring(self, make_owner, count: int):
        """``count`` owners; owner i's B reads owner i+1's on-demand A."""
        owners = [make_owner(f"node{i}") for i in range(count)]
        states = [{"v": 0} for _ in owners]
        for owner, state in zip(owners, states):
            owner.metadata.define(MetadataDefinition(
                A, Mechanism.ON_DEMAND, compute=lambda ctx, state=state: state["v"]))
        for i, owner in enumerate(owners):
            owner.metadata.define(MetadataDefinition(
                B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A) + 1,
                dependencies=[NodeDep(owners[(i + 1) % count], A)]))
        return owners, states

    def test_wave_takes_no_graph_lock(self, make_owner, system):
        owners, states = self.ring(make_owner, 2)
        subscription = owners[0].metadata.subscribe(B)  # reads node1's A
        assert subscription.get() == 1
        lock = system.structure_lock.stats.snapshot()
        before = system.propagation.stats()
        states[1]["v"] = 5
        owners[1].metadata.notify_changed(A)
        assert subscription.get() == 6
        after = system.propagation.stats()
        assert system.structure_lock.stats.snapshot() == lock
        assert {key: after[key] - before[key]
                for key in ("waves", "drains", "refreshes")} == {
            "waves": 1, "drains": 1, "refreshes": 1}
        subscription.cancel()

    def test_events_fired_batch_is_one_merged_wave(self, make_owner, system):
        owners, states = self.ring(make_owner, 2)
        # C on node0 reads both owners' A.
        owners[0].metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, compute=lambda ctx: sum(ctx.values(A)),
            dependencies=[SelfDep(A), NodeDep(owners[1], A)]))
        subscriptions = [owner.metadata.subscribe(B) for owner in owners]
        subscriptions.append(owners[0].metadata.subscribe(C))
        before = system.propagation.stats()
        for state in states:
            state["v"] += 1
        system.propagation.events_fired(
            [owner.metadata.handler(A) for owner in owners])
        after = system.propagation.stats()
        # Both sources travel as one wave: the shared C recomputes once
        # beside the two B items.
        assert {key: after[key] - before[key]
                for key in ("waves", "drains", "merged_waves", "refreshes")} == {
            "waves": 2, "drains": 1, "merged_waves": 1, "refreshes": 3}
        assert [s.get() for s in subscriptions] == [2, 2, 2]
        for subscription in subscriptions:
            subscription.cancel()

    def test_explain_refresh_of_a_cross_registry_chain(self, make_owner, system):
        """``node0/a -> node1/b -> node2/c``: the top's explanation is the one
        wave's causal chain, each hop naming the edge it came over."""
        owners = [make_owner(f"node{i}") for i in range(3)]
        state = {"v": 1}
        owners[0].metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND, compute=lambda ctx: state["v"]))
        owners[1].metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, dependencies=[NodeDep(owners[0], A)],
            compute=lambda ctx: ctx.value(A) + 1))
        owners[2].metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, dependencies=[NodeDep(owners[1], B)],
            compute=lambda ctx: ctx.value(B) + 1))
        subscription = owners[2].metadata.subscribe(C)
        tel = system.enable_telemetry()
        state["v"] = 5
        owners[0].metadata.notify_changed(A)
        assert subscription.get() == 7
        report = explain_refresh(tel, "node2", C)
        assert re.sub(r"\(\d+\.\dus\)", "(…us)", report) == """\
why did node2/c refresh?  (last refresh at t=0)
span 1 (7 events)
  t=0 enqueued by change of node0/a (queue depth 1)
  t=0 wave started at node0/a covering 3 handler(s)
    hop node0/a -> node1/b
    refresh node1/b [changed] (…us)
    hop node1/b -> node2/c
    refresh node2/c [changed] (…us)
  wave end: 2 refreshed, 0 suppressed, 0 error(s)"""
        subscription.cancel()

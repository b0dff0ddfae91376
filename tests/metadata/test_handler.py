"""Tests for the four handler types (Section 3.2)."""

from __future__ import annotations

import pytest

from repro.common.errors import HandlerError, MetadataNotIncludedError
from repro.metadata.handler import (
    OnDemandHandler,
    PeriodicHandler,
    StaticHandler,
    TriggeredHandler,
)
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep

A, B, C = MetadataKey("a"), MetadataKey("b"), MetadataKey("c")


class TestStaticHandler:
    def test_value_fixed_at_inclusion(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(A, Mechanism.STATIC, value=3))
        subscription = owner.metadata.subscribe(A)
        assert isinstance(subscription.handler, StaticHandler)
        assert subscription.get() == 3
        assert subscription.handler.update_count == 1  # the initial store
        subscription.cancel()

    def test_static_compute_evaluated_once(self, make_owner):
        owner = make_owner()
        calls = []
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.STATIC, compute=lambda ctx: calls.append(1) or 7,
        ))
        subscription = owner.metadata.subscribe(A)
        subscription.get()
        subscription.get()
        assert calls == [1]
        subscription.cancel()


class TestOnDemandHandler:
    def test_recomputes_on_every_access(self, make_owner):
        owner = make_owner()
        counter = {"n": 0}

        def compute(ctx):
            counter["n"] += 1
            return counter["n"]

        owner.metadata.define(MetadataDefinition(A, Mechanism.ON_DEMAND, compute=compute))
        subscription = owner.metadata.subscribe(A)
        assert isinstance(subscription.handler, OnDemandHandler)
        assert subscription.get() == 1
        assert subscription.get() == 2
        assert subscription.handler.access_count == 2
        subscription.cancel()

    def test_failing_compute_wrapped(self, make_owner):
        owner = make_owner()
        state = {"ok": True}

        def compute(ctx):
            if not state["ok"]:
                raise ValueError("sensor broke")
            return 1

        owner.metadata.define(MetadataDefinition(A, Mechanism.ON_DEMAND, compute=compute))
        subscription = owner.metadata.subscribe(A)
        assert subscription.get() == 1
        state["ok"] = False
        with pytest.raises(HandlerError):
            subscription.get()
        subscription.cancel()


class TestPeriodicHandler:
    def test_refreshes_on_period_boundaries(self, make_owner, clock):
        owner = make_owner()
        values = iter(range(100))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: next(values),
        ))
        subscription = owner.metadata.subscribe(A)
        assert isinstance(subscription.handler, PeriodicHandler)
        assert subscription.get() == 0  # seeded at inclusion
        clock.advance_by(9.9)
        assert subscription.get() == 0
        clock.advance_by(0.1)
        assert subscription.get() == 1
        clock.advance_by(30.0)
        assert subscription.get() == 4
        subscription.cancel()

    def test_access_between_periods_is_stable(self, make_owner, clock):
        """Isolation: all consumers see the same pre-computed value."""
        owner = make_owner()
        counter = {"n": 0}

        def compute(ctx):
            counter["n"] += 1
            return counter["n"]

        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=50.0, compute=compute,
        ))
        s1 = owner.metadata.subscribe(A)
        s2 = owner.metadata.subscribe(A)
        clock.advance_by(60.0)
        assert s1.get() == s2.get() == 2
        # Accessing did not trigger any recomputation.
        assert counter["n"] == 2
        s1.cancel()
        s2.cancel()

    def test_unsubscribe_stops_periodic_updates(self, make_owner, clock, system):
        owner = make_owner()
        counter = {"n": 0}

        def compute(ctx):
            counter["n"] += 1
            return counter["n"]

        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=compute,
        ))
        subscription = owner.metadata.subscribe(A)
        clock.advance_by(20.0)
        subscription.cancel()
        count_at_cancel = counter["n"]
        clock.advance_by(100.0)
        assert counter["n"] == count_at_cancel
        assert system.scheduler.active_task_count() == 0

    def test_update_grid_has_no_drift(self, make_owner, clock):
        owner = make_owner()
        times = []
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0,
            compute=lambda ctx: times.append(ctx.now),
        ))
        subscription = owner.metadata.subscribe(A)
        clock.advance_by(35.0)
        assert times[1:] == [10.0, 20.0, 30.0]
        subscription.cancel()


class TestTriggeredHandler:
    def test_initial_value_computed_on_first_subscription(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(B, Mechanism.STATIC, value=5))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B) * 2,
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(A)
        assert isinstance(subscription.handler, TriggeredHandler)
        assert subscription.get() == 10
        assert subscription.handler.compute_count == 1
        subscription.cancel()

    def test_registry_handlers_share_one_dependents_mutex(self, make_owner):
        owner, other = make_owner("n"), make_owner("m")
        for registry in (owner.metadata, other.metadata):
            registry.define(MetadataDefinition(B, Mechanism.STATIC, value=5))
            registry.define(MetadataDefinition(
                A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B),
                dependencies=[SelfDep(B)],
            ))
        a, b = owner.metadata.subscribe(A), owner.metadata.subscribe(B)
        c = other.metadata.subscribe(A)
        assert a.handler._dependents_mutex is b.handler._dependents_mutex
        assert a.handler._dependents_mutex is owner.metadata.dependents_mutex
        assert c.handler._dependents_mutex is not a.handler._dependents_mutex
        assert b.handler.dependents() == (a.handler,)
        for subscription in (a, b, c):
            subscription.cancel()

    def test_refreshes_when_dependency_changes(self, make_owner, clock):
        owner = make_owner()
        values = iter([1, 2, 3, 4])
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: next(values),
        ))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B) * 10,
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(A)
        assert subscription.get() == 10
        clock.advance_by(10.0)
        assert subscription.get() == 20
        clock.advance_by(10.0)
        assert subscription.get() == 30
        subscription.cancel()

    def test_periodic_dependency_publishes_every_sample(self, make_owner, clock):
        """A periodic measurement propagates every refresh even when the
        value repeats — dependent aggregates must fold each sample
        (Section 3.2.3's average-input-rate example)."""
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: 42,
        ))
        samples = []

        def fold(ctx):
            samples.append(ctx.value(B))
            return len(samples)

        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=fold, dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(A)
        clock.advance_by(50.0)
        # Seed + one fold per periodic sample.
        assert samples == [42] * 6
        subscription.cancel()

    def test_unchanged_triggered_value_does_not_repropagate(self, make_owner, clock):
        """A *triggered* intermediate whose value did not change cuts the
        wave: derived values are pure functions of their inputs."""
        owner = make_owner()
        values = iter([1, 2, 3, 4, 5, 6])
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: next(values),
        ))
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B) > 0,
            dependencies=[SelfDep(B)],  # constant True after first compute
        ))
        top = MetadataKey("top")
        owner.metadata.define(MetadataDefinition(
            top, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(C),
            dependencies=[SelfDep(C)],
        ))
        subscription = owner.metadata.subscribe(top)
        clock.advance_by(50.0)
        # C recomputed per sample, but its value never changed after the
        # seed, so `top` was computed exactly once.
        assert subscription.handler.compute_count == 1
        subscription.cancel()

    def test_manual_event_notification_triggers_dependents(self, make_owner):
        """Section 3.2.3: events fired for on-demand items refresh dependents."""
        owner = make_owner()
        state = {"value": 1}
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.ON_DEMAND, compute=lambda ctx: state["value"],
        ))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B) * 100,
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(A)
        assert subscription.get() == 100
        state["value"] = 2
        # Without notification the triggered value is stale.
        assert subscription.get() == 100
        owner.metadata.notify_changed(B)
        assert subscription.get() == 200
        subscription.cancel()

    def test_notify_changed_without_handler_is_noop(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.ON_DEMAND, compute=lambda ctx: 1,
        ))
        owner.metadata.notify_changed(B)  # nothing included: no error


class TestRemovedHandlerAccess:
    def test_get_after_removal_raises(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        subscription = owner.metadata.subscribe(A)
        handler = subscription.handler
        subscription.cancel()
        with pytest.raises(MetadataNotIncludedError):
            handler.get()

    def test_peek_without_value_raises(self, make_owner, system):
        from repro.metadata.handler import TriggeredHandler as TH

        owner = make_owner()
        definition = MetadataDefinition(A, Mechanism.TRIGGERED, compute=lambda ctx: 1)
        handler = TH(owner.metadata, definition)
        with pytest.raises(HandlerError):
            handler.peek()

"""Tests for batch subscription (``MetadataRegistry.subscribe_many``).

The batch path must be semantically identical to a subscribe loop — same
handlers, same include counts, same subscription order — while resolving
the whole closure under one structure-lock acquisition, and it must be
atomic: one bad key rolls the entire batch back.
"""

from __future__ import annotations

import pytest

from repro.common.errors import HandlerError, UnknownMetadataError
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)

A, B, C, D = (MetadataKey(k) for k in "abcd")
Q1, Q2, Q3 = (MetadataKey(f"q{i}") for i in (1, 2, 3))


def define_chain(registry):
    """Base A <- B, plus query items Q1/Q2/Q3 all depending on B."""
    registry.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
    registry.define(MetadataDefinition(
        B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A) + 1,
        dependencies=[SelfDep(A)],
    ))
    for key in (Q1, Q2, Q3):
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B) * 2,
            dependencies=[SelfDep(B)],
        ))


def fingerprint(registry):
    return {
        key: registry.handler(key).include_count
        for key in registry.included_keys()
    }


class TestSubscribeMany:
    def test_matches_subscribe_loop_structure(self, make_owner):
        loop_owner, batch_owner = make_owner("loop"), make_owner("batch")
        define_chain(loop_owner.metadata)
        define_chain(batch_owner.metadata)
        loop_subs = [loop_owner.metadata.subscribe(k) for k in (Q1, Q2, Q3)]
        batch_subs = batch_owner.metadata.subscribe_many([Q1, Q2, Q3])
        assert fingerprint(loop_owner.metadata) == fingerprint(batch_owner.metadata)
        assert [s.key for s in batch_subs] == [s.key for s in loop_subs]
        assert [s.get() for s in batch_subs] == [s.get() for s in loop_subs]

    def test_shared_closure_resolved_once_per_reference(self, make_owner):
        owner = make_owner()
        define_chain(owner.metadata)
        owner.metadata.subscribe_many([Q1, Q2, Q3])
        handler_b = owner.metadata.handler(B)
        # B is included once per dependent query, sharing one handler.
        assert handler_b.include_count == 3
        assert owner.metadata.handler(A).include_count == 1

    def test_returns_subscriptions_in_input_order_with_duplicates(self, make_owner):
        owner = make_owner()
        define_chain(owner.metadata)
        subscriptions = owner.metadata.subscribe_many([Q2, Q1, Q2])
        assert [s.key for s in subscriptions] == [Q2, Q1, Q2]
        # Duplicates share the handler but are independent subscriptions.
        assert subscriptions[0].handler is subscriptions[2].handler
        subscriptions[0].cancel()
        assert subscriptions[2].get() == 4  # still alive

    def test_atomic_rollback_on_unknown_key(self, make_owner):
        owner = make_owner()
        define_chain(owner.metadata)
        with pytest.raises(UnknownMetadataError):
            owner.metadata.subscribe_many([Q1, MetadataKey("nope"), Q2])
        # Nothing stays included: the whole batch rolled back.
        assert owner.metadata.included_keys() == []

    def test_rollback_keeps_prior_subscribers_alive(self, make_owner):
        owner = make_owner()
        define_chain(owner.metadata)
        existing = owner.metadata.subscribe(Q1)
        with pytest.raises(UnknownMetadataError):
            owner.metadata.subscribe_many([Q2, MetadataKey("nope")])
        # The failed batch must not tear down the pre-existing subscription.
        assert existing.get() == 4
        assert owner.metadata.handler(B).include_count == 1

    def test_cancel_releases_batch_subscriptions(self, make_owner):
        owner = make_owner()
        define_chain(owner.metadata)
        subscriptions = owner.metadata.subscribe_many([Q1, Q2, Q3])
        for subscription in subscriptions:
            subscription.cancel()
        assert owner.metadata.included_keys() == []

    def test_single_span_with_one_event_per_key(self, make_owner, system):
        owner = make_owner()
        define_chain(owner.metadata)
        telemetry = system.enable_telemetry()
        owner.metadata.subscribe_many([Q1, Q2])
        events = telemetry.bus.events(kind="subscribe")
        assert len(events) == 2
        # One batch = one causal span covering both subscribes.
        assert len({event.span for event in events}) == 1

    def test_subscribe_all_uses_batch_path(self, make_owner, system):
        owner = make_owner()
        define_chain(owner.metadata)
        subscriptions = system.subscribe_all()
        assert [s.key for s in subscriptions] == owner.metadata.available_keys()
        values = {s.key: s.get() for s in subscriptions}
        assert values[B] == 2
        assert values[Q3] == 4


class TestCrossRegistryRollback:
    """A batch whose second key fails in another registry's initial
    computation leaves both registries exactly as if the call never
    happened."""

    def build_pair(self, make_owner):
        node0, node1 = make_owner("node0"), make_owner("node1")
        state = {"v": 0}
        node1.metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND, compute=lambda ctx: state["v"]))
        # Q1 (node0) reads node1's A: it includes cleanly.
        node0.metadata.define(MetadataDefinition(
            Q1, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A) + 1,
            dependencies=[NodeDep(node1, A)]))
        # Q2 (node0) reads node1's static C, whose initial computation
        # raises after Q1's closure is already included.
        node1.metadata.define(MetadataDefinition(
            C, Mechanism.STATIC, compute=lambda ctx: (_ for _ in ()).throw(
                RuntimeError("inclusion failure on node1"))))
        node0.metadata.define(MetadataDefinition(
            Q2, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(C),
            dependencies=[NodeDep(node1, C)]))
        return node0, node1, state

    def test_failing_include_in_one_registry_rolls_back_the_other(
            self, make_owner, system):
        node0, node1, _state = self.build_pair(make_owner)
        with pytest.raises(HandlerError):
            node0.metadata.subscribe_many([Q1, Q2])
        assert node0.metadata.included_keys() == []
        assert node1.metadata.included_keys() == []
        stats = system.stats()
        assert stats["handlers_created"] == stats["handlers_removed"]
        assert stats["handlers_included"] == 0

    def test_behavior_after_rollback_matches_a_fresh_system(self, make_owner, system):
        def run(node0, node1, state):
            (subscription,) = node0.metadata.subscribe_many([Q1])
            state["v"] += 7
            node1.metadata.notify_changed(A)
            value = subscription.get()
            subscription.cancel()
            return value

        fresh = self.build_pair(make_owner)
        before = system.propagation.stats()
        expected = run(*fresh)
        counts = {key: system.propagation.stats()[key] - before[key]
                  for key in ("waves", "refreshes")}
        node0, node1, state = self.build_pair(make_owner)
        with pytest.raises(HandlerError):
            node0.metadata.subscribe_many([Q1, Q2])
        before = system.propagation.stats()
        assert run(node0, node1, state) == expected == 8
        assert {key: system.propagation.stats()[key] - before[key]
                for key in ("waves", "refreshes")} == counts

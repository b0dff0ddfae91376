"""Tests for ComputeContext and the always_propagate flag."""

from __future__ import annotations

import pytest

from repro.common.errors import MetadataError
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)

A, B, C = MetadataKey("a"), MetadataKey("b"), MetadataKey("c")


class TestComputeContext:
    def test_value_with_duplicate_key_rejected(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(B, Mechanism.STATIC, value=1))

        def compute(ctx):
            return ctx.value(B)  # ambiguous: two dependency entries share B

        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=compute,
            dependencies=[SelfDep(B), SelfDep(B)],
        ))
        with pytest.raises(MetadataError, match=r"has 2 dependencies with key "
                                                r"<b>; use values\(\)"):
            owner.metadata.subscribe(A)

    def test_value_with_missing_key_rejected(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(B, Mechanism.STATIC, value=1))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(C),
            dependencies=[SelfDep(B)],
        ))
        with pytest.raises(MetadataError, match="has no dependency with key <c>"):
            owner.metadata.subscribe(A)

    def test_values_by_key_in_resolution_order(self, make_owner):
        """Reads go through the handler's key index; it must keep the order
        the dependencies were resolved in and follow a list that grew."""
        owner, other = make_owner("n"), make_owner("other")
        owner.metadata.define(MetadataDefinition(B, Mechanism.STATIC, value=1))
        other.metadata.define(MetadataDefinition(B, Mechanism.STATIC, value=2))
        other.metadata.define(MetadataDefinition(C, Mechanism.STATIC, value=3))
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND,
            compute=lambda ctx: (ctx.values(B), ctx.values(C), ctx.value(C)),
            dependencies=[NodeDep(other, B), NodeDep(other, C), SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(A)
        assert subscription.get() == ([2, 1], [3], 3)
        handler = subscription.handler
        extra = other.metadata.subscribe(C)
        handler.dependency_handlers.append((NodeDep(other, C), extra.handler))
        try:
            assert list(handler.dependencies_with_key(C)) == [extra.handler] * 2
        finally:
            handler.dependency_handlers.pop()
        assert list(handler.dependencies_with_key(C)) == [extra.handler]
        extra.cancel()
        subscription.cancel()

    def test_dependency_refs_lists_resolved_pairs(self, make_owner):
        owner = make_owner()
        owner.metadata.define(MetadataDefinition(B, Mechanism.STATIC, value=1))
        refs_seen = []
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.TRIGGERED,
            compute=lambda ctx: refs_seen.extend(ctx.dependency_refs()) or 0,
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(A)
        assert refs_seen == [(owner, B)]
        subscription.cancel()

    def test_node_and_now_accessible(self, make_owner, clock):
        owner = make_owner()
        seen = {}

        def compute(ctx):
            seen["node"] = ctx.node
            seen["now"] = ctx.now
            return 0

        owner.metadata.define(MetadataDefinition(A, Mechanism.ON_DEMAND,
                                                 compute=compute))
        subscription = owner.metadata.subscribe(A)
        clock.advance_by(7.0)
        subscription.get()
        assert seen["node"] is owner
        assert seen["now"] == 7.0
        subscription.cancel()


class TestAlwaysPropagate:
    def test_stateful_triggered_chain_folds_repeats(self, make_owner, clock):
        """Without always_propagate, a repeated intermediate value would cut
        the wave; with it, the downstream aggregate sees every sample."""
        owner = make_owner()
        values = iter([5, 5, 5, 5])
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: next(values),
        ))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A),
            dependencies=[SelfDep(A)], always_propagate=True,
        ))
        samples = []
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED,
            compute=lambda ctx: samples.append(ctx.value(B)) or len(samples),
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(C)
        clock.advance_by(30.0)
        # Seed + 3 periodic samples, all forwarded despite B never changing.
        assert samples == [5, 5, 5, 5]
        subscription.cancel()

    def test_without_flag_repeats_are_cut(self, make_owner, clock):
        owner = make_owner()
        values = iter([5, 5, 5, 5])
        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=lambda ctx: next(values),
        ))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(A),
            dependencies=[SelfDep(A)],  # no always_propagate
        ))
        samples = []
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED,
            compute=lambda ctx: samples.append(ctx.value(B)) or len(samples),
            dependencies=[SelfDep(B)],
        ))
        subscription = owner.metadata.subscribe(C)
        clock.advance_by(30.0)
        assert samples == [5]  # only the seed; B never reported a change
        subscription.cancel()

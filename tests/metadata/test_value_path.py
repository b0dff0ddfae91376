"""The metadata value path: pinned by call count, and the handler as context.

A consumer read and a wave recompute are the runtime's most executed paths.
The counting tests record every Python call into the ``repro`` package that
one read or one recompute makes — under ``NoOpLockPolicy`` on the virtual
clock, so nothing else runs — and assert the calls exactly: a new frame on
the path (a wrapper, a property, a per-compute object) fails them.  The
counted paths hold no comprehension, so Python 3.11 and 3.12 (which inlines
comprehensions) count the same.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Any, Callable

import pytest

import repro
from repro.common.errors import HandlerError
from repro.metadata.handler import TriggeredHandler
from repro.metadata.item import (
    ComputeContext,
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    SelfDep,
)
from repro.metadata.locks import NoOpLock
from repro.metadata.registry import MetadataRegistry

SRC, OD, TRIG = MetadataKey("src"), MetadataKey("od"), MetadataKey("trig")

_PACKAGE = os.path.dirname(repro.__file__) + os.sep


def _calls(fn: Callable[[], Any]) -> Counter:
    """Qualified names of the ``repro`` functions ``fn()`` calls."""
    calls: Counter = Counter()

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(_PACKAGE):
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture
def registry(make_owner) -> MetadataRegistry:
    owner = make_owner("n")
    assert isinstance(owner.metadata.system.structure_lock, NoOpLock)
    state = [1]
    owner.metadata.define(MetadataDefinition(
        SRC, Mechanism.ON_DEMAND, compute=lambda ctx: state[0]))
    owner.metadata.define(MetadataDefinition(
        OD, Mechanism.ON_DEMAND, compute=lambda ctx: state[0]))
    owner.metadata.define(MetadataDefinition(
        TRIG, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC) * 2,
        dependencies=[SelfDep(SRC)]))
    return owner.metadata


class TestCallCounts:
    def test_stored_value_read(self, registry):
        handler = registry.subscribe(TRIG).handler
        assert _calls(handler.get) == {
            "MetadataHandler.get": 1,
            "NoOpLock.read": 1,
            "_NullGuard.__enter__": 1,
            "_NullGuard.__exit__": 1,
        }

    def test_on_demand_read(self, registry):
        handler = registry.subscribe(OD).handler
        assert _calls(handler.get) == {
            "OnDemandHandler.get": 1,
            "NoOpLock.write": 1,
            "_NullGuard.__enter__": 1,
            "VirtualClock.now": 1,
            "_NullGuard.__exit__": 1,
        }

    def test_wave_recompute(self, registry):
        """A triggered recompute that reads one on-demand input."""
        handler = registry.subscribe(TRIG).handler
        assert _calls(handler.recompute_for_propagation) == {
            "MetadataHandler._attempt": 1,
            "MetadataHandler._update": 1,
            "ComputeContext.value": 1,
            "MetadataHandler.dependencies_with_key": 1,
            "OnDemandHandler.get": 1,
            "NoOpLock.write": 2,
            "_NullGuard.__enter__": 2,
            "VirtualClock.now": 2,
            "_NullGuard.__exit__": 2,
        }


class TestHandlerIsTheContext:
    def test_compute_receives_its_handler(self, registry):
        seen: list = []
        key = MetadataKey("seen")
        registry.define(MetadataDefinition(
            key, Mechanism.ON_DEMAND,
            compute=lambda ctx: seen.append(ctx) or len(seen)))
        subscription = registry.subscribe(key)
        assert (subscription.get(), subscription.get()) == (1, 2)
        handler = subscription.handler
        assert seen == [handler, handler]
        assert isinstance(handler, ComputeContext)
        assert handler.handler is handler
        assert handler.registry is registry and handler.node is registry.owner
        assert handler.now == registry.clock.now()
        subscription.cancel()

    def test_read_before_the_first_value_raises(self, registry):
        handler = TriggeredHandler(registry, registry.describe(TRIG))
        with pytest.raises(HandlerError, match="has no value yet"):
            handler.get()


class TestDependentsCopyOnWrite:
    def test_a_taken_snapshot_never_changes(self, registry):
        source = registry.subscribe(SRC).handler
        before = source.dependents()
        assert before == ()
        trig = registry.subscribe(TRIG)
        after = source.dependents()
        assert before == () and after == (trig.handler,)
        assert source.attach_dependent(trig.handler) is False
        assert source.dependents() is after
        source.detach_dependent(trig.handler)
        source.detach_dependent(trig.handler)  # not attached: a no-op
        assert after == (trig.handler,) and source.dependents() == ()

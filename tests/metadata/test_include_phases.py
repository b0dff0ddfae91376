"""The two-phase include: initial computations run outside the graph lock.

A subscribe links its closure under the graph write lock and runs the new
handlers' initial computations after releasing it, so a slow computation
holds up only the subscribes that share its handler.  Those wait until it
is ready, and raise its error if it failed.  Every wait here has a timeout,
so a regression fails instead of hanging.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import HandlerError
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

SLOW = MetadataKey("slow")
FAST = MetadataKey("fast")
TIMEOUT = 5.0


class _Owner:
    def __init__(self, name: str) -> None:
        self.name = name
        self.metadata: MetadataRegistry | None = None


def _system() -> MetadataSystem:
    clock = VirtualClock()
    return MetadataSystem(clock, VirtualTimeScheduler(clock),
                          lock_policy=FineGrainedLockPolicy())


def _registry(system: MetadataSystem, name: str) -> MetadataRegistry:
    owner = _Owner(name)
    owner.metadata = MetadataRegistry(owner, system)
    return owner.metadata


class _Gate:
    """A STATIC compute that blocks until released, counting its calls."""

    def __init__(self, fail: bool = False) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self.fail = fail

    def compute(self, ctx):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(TIMEOUT)
        if self.fail:
            raise RuntimeError("initial computation fails")
        return 42


def _start(target) -> tuple[threading.Thread, list]:
    """Run ``target`` on a thread; the list receives its result or error."""
    outcome: list = []

    def run():
        try:
            outcome.append(target())
        except BaseException as exc:  # noqa: BLE001 - inspected by the test
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _wait_until(condition) -> None:
    event = threading.Event()
    for _ in range(int(TIMEOUT / 0.005)):
        if condition():
            return
        event.wait(0.005)
    pytest.fail("condition not reached in time")


class TestTwoPhaseInclude:
    def test_slow_initial_compute_does_not_block_another_registry(self):
        system = _system()
        slow, fast = _registry(system, "slow"), _registry(system, "fast")
        gate = _Gate()
        slow.define(MetadataDefinition(SLOW, Mechanism.STATIC, compute=gate.compute))
        fast.define(MetadataDefinition(FAST, Mechanism.ON_DEMAND, compute=lambda ctx: 7))
        blocked, blocked_outcome = _start(lambda: slow.subscribe(SLOW))
        try:
            assert gate.entered.wait(TIMEOUT)
            other, other_outcome = _start(lambda: fast.subscribe(FAST))
            other.join(TIMEOUT)
            # The other subscribe completed while the slow compute still runs.
            assert not other.is_alive()
            assert blocked.is_alive()
            assert other_outcome[0].get() == 7
        finally:
            gate.release.set()
            blocked.join(TIMEOUT)
        assert not blocked.is_alive()
        assert blocked_outcome[0].get() == 42
        blocked_outcome[0].cancel()
        other_outcome[0].cancel()
        assert system.included_handler_count == 0

    def test_concurrent_subscribes_share_one_initial_compute(self):
        system = _system()
        registry = _registry(system, "node")
        gate = _Gate()
        registry.define(MetadataDefinition(SLOW, Mechanism.STATIC, compute=gate.compute))
        first, first_outcome = _start(lambda: registry.subscribe(SLOW))
        try:
            assert gate.entered.wait(TIMEOUT)
            second, second_outcome = _start(lambda: registry.subscribe(SLOW))
            # The second subscribe has linked (shared) the pending handler.
            _wait_until(lambda: registry.handler(SLOW).include_count == 2)
            assert second.is_alive()  # ...and waits for it to be ready
        finally:
            gate.release.set()
            first.join(TIMEOUT)
            second.join(TIMEOUT)
        assert not first.is_alive() and not second.is_alive()
        subscriptions = [first_outcome[0], second_outcome[0]]
        assert [s.get() for s in subscriptions] == [42, 42]
        assert gate.calls == 1
        assert subscriptions[0].handler is subscriptions[1].handler
        for subscription in subscriptions:
            subscription.cancel()
        stats = system.stats()
        assert stats["handlers_created"] == stats["handlers_removed"] == 1

    def test_failed_initial_compute_fails_every_sharer(self):
        system = _system()
        policy = system.lock_policy
        registry = _registry(system, "node")
        locks_before = policy.lock_count
        gate = _Gate(fail=True)
        registry.define(MetadataDefinition(SLOW, Mechanism.STATIC, compute=gate.compute))
        first, first_outcome = _start(lambda: registry.subscribe(SLOW))
        try:
            assert gate.entered.wait(TIMEOUT)
            second, second_outcome = _start(lambda: registry.subscribe(SLOW))
            _wait_until(lambda: registry.handler(SLOW).include_count == 2)
        finally:
            gate.release.set()
            first.join(TIMEOUT)
            second.join(TIMEOUT)
        assert not first.is_alive() and not second.is_alive()
        error = first_outcome[0]
        assert isinstance(error, HandlerError)
        assert second_outcome[0] is error  # the sharer raises the same error
        assert gate.calls == 1
        assert registry.included_keys() == []
        stats = system.stats()
        assert stats["handlers_created"] == stats["handlers_removed"]
        assert stats["handlers_included"] == 0
        # The failed handler's item lock left the policy with it.
        assert policy.lock_count == locks_before
        assert not any(lock["name"].startswith("item:")
                       for lock in policy.hot_locks(limit=100))
        # A later subscribe computes afresh.
        gate.fail = False
        with registry.subscribe(SLOW) as subscription:
            assert subscription.get() == 42
        assert gate.calls == 2

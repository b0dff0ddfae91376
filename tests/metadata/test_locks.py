"""Tests for the lock policies (Sections 4.2-4.3)."""

from __future__ import annotations

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import HandlerError
from repro.common.rwlock import ReentrantRWLock
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    SelfDep,
)
from repro.metadata.locks import (
    CoarseLockPolicy,
    FineGrainedLockPolicy,
    NoOpLock,
    NoOpLockPolicy,
)
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

A = MetadataKey("a")
B = MetadataKey("b")


class _Owner:
    name = "n"


class TestFineGrainedPolicy:
    def test_distinct_locks_per_level(self):
        policy = FineGrainedLockPolicy()
        graph = policy.graph_lock()
        node = policy.node_lock(_Owner())

        class FakeHandler:
            key = A

        item = policy.item_lock(FakeHandler())
        assert graph is not node is not item
        assert policy.lock_count == 3
        assert (graph.name, node.name, item.name) == ("graph", "node:n", "item:<a>")

    def test_item_lock_named_after_its_key_in_reports(self):
        policy = FineGrainedLockPolicy()
        _, registry = _system(policy)
        key = A.q(0, "l")
        registry.define(MetadataDefinition(key, Mechanism.STATIC, value=1))
        subscription = registry.subscribe(key)
        subscription.get()
        names = [entry["name"] for entry in policy.hot_locks(limit=10)]
        assert "item:<a[0,'l']>" in names
        assert subscription.handler._lock.name == "item:<a[0,'l']>"
        subscription.cancel()

    def test_aggregate_stats_sums_all_locks(self):
        policy = FineGrainedLockPolicy()
        l1, l2 = policy.graph_lock(), policy.node_lock(_Owner())
        with l1.read():
            pass
        with l2.write():
            pass
        stats = policy.aggregate_stats()
        assert stats.read_acquired == 1
        assert stats.write_acquired == 1

    def test_hot_locks_skips_idle_and_orders_by_activity(self):
        policy = FineGrainedLockPolicy()
        graph = policy.graph_lock()
        node = policy.node_lock(_Owner())
        policy.item_lock(type("H", (), {"key": A})())  # never touched
        with graph.read():
            pass
        for _ in range(3):
            with node.write():
                pass
        hot = policy.hot_locks()
        assert [entry["name"] for entry in hot] == ["node:n", "graph"]
        assert hot[0]["write_acquired"] == 3
        assert set(hot[0]) == {
            "name", "read_acquired", "write_acquired", "read_contended",
            "write_contended", "read_wait_seconds", "write_wait_seconds",
        }

    def test_hot_locks_respects_limit(self):
        policy = FineGrainedLockPolicy()
        for i in range(8):
            lock = policy.node_lock(type("O", (), {"name": f"n{i}"})())
            with lock.read():
                pass
        assert len(policy.hot_locks(limit=3)) == 3


class TestCoarsePolicy:
    def test_single_shared_lock(self):
        policy = CoarseLockPolicy()

        class FakeHandler:
            key = A

        assert policy.graph_lock() is policy.node_lock(_Owner())
        assert policy.graph_lock() is policy.item_lock(FakeHandler())

    def test_hot_locks_single_entry_when_used(self):
        policy = CoarseLockPolicy()
        assert policy.hot_locks() == []
        with policy.graph_lock().write():
            pass
        hot = policy.hot_locks()
        assert [entry["name"] for entry in hot] == ["global"]
        assert hot[0]["write_acquired"] == 1

    def test_noop_policy_has_no_hot_locks(self):
        assert NoOpLockPolicy().hot_locks() == []


class TestNoOpPolicy:
    def test_noop_locks_do_nothing(self):
        policy = NoOpLockPolicy()
        lock = policy.graph_lock()
        assert isinstance(lock, NoOpLock)
        with lock.read():
            with lock.write():  # upgrade would deadlock a real lock
                pass
        assert lock.acquire_write() is True
        lock.release_write()

    def test_items_share_one_lock(self):
        system, registry = _system(NoOpLockPolicy())
        registry.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        registry.define(MetadataDefinition(B, Mechanism.STATIC, value=2))
        a, b = registry.subscribe(A), registry.subscribe(B)
        assert a.handler._lock is b.handler._lock
        assert a.handler._lock is registry.node_lock is system.structure_lock
        a.cancel()
        b.cancel()


def _system(policy):
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock), lock_policy=policy)
    owner = _Owner()
    registry = MetadataRegistry(owner, system)
    owner.metadata = registry
    return system, registry


class TestPolicyInSystem:

    def test_only_included_items_get_real_locks(self):
        """Section 4.3: only locks of currently included items are used."""
        policy = FineGrainedLockPolicy()
        system, registry = _system(policy)
        registry.define(MetadataDefinition(A, Mechanism.STATIC, value=1))
        registry.define(MetadataDefinition(B, Mechanism.STATIC, value=2))
        locks_before = policy.lock_count  # graph + node lock
        subscription = registry.subscribe(A)
        assert policy.lock_count == locks_before + 1  # one item lock, not two
        subscription.cancel()

    def test_default_policy_is_noop(self):
        clock = VirtualClock()
        system = MetadataSystem(clock, VirtualTimeScheduler(clock))
        assert isinstance(system.lock_policy, NoOpLockPolicy)

    def test_real_locks_guard_handler_access(self):
        policy = FineGrainedLockPolicy()
        system, registry = _system(policy)
        registry.define(MetadataDefinition(A, Mechanism.STATIC, value=5))
        subscription = registry.subscribe(A)
        assert subscription.get() == 5
        handler_lock = subscription.handler._lock
        assert isinstance(handler_lock, ReentrantRWLock)
        assert handler_lock.stats.read_acquired >= 1
        subscription.cancel()


class TestLockRetirement:
    """A handler that leaves its registry hands its lock back: the policy
    tracks live locks only, and the counters of retired ones live on."""

    def test_retire_folds_counters_and_forgets_the_lock(self):
        policy = FineGrainedLockPolicy()
        graph, node = policy.graph_lock(), policy.node_lock(_Owner())
        for _ in range(3):
            with node.write():
                pass
        with graph.read():
            pass
        policy.retire(node)
        policy.retire(node)  # a second retirement must not count twice
        assert policy.lock_count == 1
        stats = policy.aggregate_stats()
        assert (stats.read_acquired, stats.write_acquired) == (1, 3)
        assert [entry["name"] for entry in policy.hot_locks()] == ["graph"]

    def test_other_policies_ignore_retire(self):
        coarse = CoarseLockPolicy()
        lock = coarse.graph_lock()
        with lock.write():
            pass
        coarse.retire(lock)
        assert coarse.aggregate_stats().write_acquired == 1
        noop = NoOpLockPolicy()
        noop.retire(noop.graph_lock())

    def test_churn_returns_lock_count_to_baseline(self):
        policy = FineGrainedLockPolicy()
        _, registry = _system(policy)
        registry.define(MetadataDefinition(B, Mechanism.STATIC, value=2))
        registry.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B) + 1,
            dependencies=[SelfDep(B)]))
        baseline = policy.lock_count
        acquisitions = policy.aggregate_stats().write_acquired
        for _ in range(1000):
            subscription = registry.subscribe(A)
            assert policy.lock_count == baseline + 2
            assert subscription.get() == 3
            subscription.cancel()
            assert policy.lock_count == baseline
            now = policy.aggregate_stats().write_acquired
            assert now > acquisitions
            acquisitions = now

    def test_failed_include_retires_the_half_built_lock(self):
        policy = FineGrainedLockPolicy()
        _, registry = _system(policy)

        def boom(ctx):
            raise ValueError("no value")

        registry.define(MetadataDefinition(B, Mechanism.STATIC, compute=boom))
        registry.define(MetadataDefinition(
            A, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(B),
            dependencies=[SelfDep(B)]))
        baseline = policy.lock_count
        # B's first computation fails (its own inclusion is undone) while A,
        # already created, is waiting for it (A's inclusion is rolled back).
        with pytest.raises(HandlerError):
            registry.subscribe(A)
        assert policy.lock_count == baseline
        assert policy.aggregate_stats().write_acquired >= 1

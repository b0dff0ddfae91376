"""Concurrency stress tests for the metadata runtime.

Section 3.2.3 requires triggered updates to be "performed in the right
order" and "synchronized"; Section 4.3 runs periodic refreshes on a pool of
worker threads.  These tests drive the runtime from many real threads and
assert the hard invariants:

* **no lost waves** — every ``notify_changed`` / propagating refresh results
  in exactly one wave (the pre-fix ``PropagationEngine`` dropped waves when
  two threads raced on its unguarded ``_propagating`` flag);
* **balanced accounting** — ``handlers_created - handlers_removed`` equals
  the number of live handlers, probes return to zero activations, and the
  scheduler ends with zero active tasks;
* **no deadlock** — everything completes within the harness timeout.

All tests are also marked ``stress`` so CI can re-run them in a loop.  The
tests that build a threaded system run it at one shard and at four (looped
inside the test, so the test ids stay put).
"""

from __future__ import annotations

import threading

import pytest

from repro.common.clock import SystemClock, VirtualClock
from repro.common.racecheck import RaceCheck
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.propagation import PropagationEngine
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import ThreadedScheduler, VirtualTimeScheduler

pytestmark = pytest.mark.stress

SRC = MetadataKey("src")
MID = MetadataKey("mid")
TOP = MetadataKey("top")
CHURN = MetadataKey("churn")
FAST = MetadataKey("fast")
REMOTE = MetadataKey("remote")

THREADS = 4
ITERATIONS = 250  # >= 200 per the acceptance criteria
SHARD_COUNTS = (1, 4)


class _Owner:
    def __init__(self, name: str) -> None:
        self.name = name
        self.metadata = None

    def __repr__(self) -> str:
        return f"_Owner({self.name!r})"


def _attach_registry(system: MetadataSystem, name: str) -> _Owner:
    owner = _Owner(name)
    owner.metadata = MetadataRegistry(owner, system)
    return owner


class TestNoLostWaves:
    """The tentpole regression: concurrent event storms must not drop waves.

    Pre-fix, ``PropagationEngine._start`` checked an unguarded
    ``_propagating`` flag: worker B could append to ``_pending`` after
    worker A had drained the list but before A cleared the flag, silently
    discarding B's wave.  (On current CPython the GIL happens to make the
    check-append and drain-clear windows switch-point free, so the loss is
    latent there — but it is real on free-threaded builds and under any
    bytecode/interpreter change.)  This test pins the exact-accounting
    contract the fixed engine provides — one wave per event, nothing queued
    after quiescence — which the pre-fix engine cannot even express: it
    fails this test deterministically.
    """

    def test_concurrent_notify_changed_accounts_every_wave(self):
        for shards in SHARD_COUNTS:
            self.run_storm(shards)

    def run_storm(self, shards: int) -> None:
        clock = VirtualClock()
        system = MetadataSystem(
            clock,
            VirtualTimeScheduler(clock),
            lock_policy=FineGrainedLockPolicy(),
            shards=shards,
        )
        owner = _attach_registry(system, "node")
        state = {"n": 0}
        state_lock = threading.Lock()

        def bump(ctx):
            with state_lock:
                state["n"] += 1
                return state["n"]

        owner.metadata.define(MetadataDefinition(SRC, Mechanism.ON_DEMAND, compute=bump))
        owner.metadata.define(MetadataDefinition(
            MID, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC),
            dependencies=[SelfDep(SRC)],
        ))
        owner.metadata.define(MetadataDefinition(
            TOP, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(MID),
            dependencies=[SelfDep(MID)],
        ))
        anchor = owner.metadata.subscribe(TOP)

        check = RaceCheck(iterations=ITERATIONS, timeout=60.0, name="lost-waves")
        check.add(
            lambda worker, i: owner.metadata.notify_changed(SRC),
            threads=THREADS, name="notify",
        )
        check.run()

        stats = system.propagation.stats()
        # Every fired event became exactly one wave: nothing lost, nothing
        # still queued, no wave ran twice.
        assert stats["waves"] == THREADS * ITERATIONS
        assert stats["pending"] == 0
        assert stats["errors"] == 0
        anchor.cancel()
        assert system.included_handler_count == 0


class TestMixedWorkloadStress:
    """Subscribe/unsubscribe churn + event storms + a threaded worker pool."""

    def test_pool_of_four_with_churn_and_events(self):
        for shards in SHARD_COUNTS:
            self.run_pool(shards)

    def run_pool(self, shards: int) -> None:
        clock = SystemClock()
        scheduler = ThreadedScheduler(clock, pool_size=4)
        system = MetadataSystem(
            clock, scheduler, lock_policy=FineGrainedLockPolicy(),
            shards=shards,
        )
        node_a = _attach_registry(system, "a")
        node_b = _attach_registry(system, "b")

        state = {"n": 0}
        state_lock = threading.Lock()

        def bump(ctx):
            with state_lock:
                state["n"] += 1
                return state["n"]

        node_a.metadata.define(MetadataDefinition(SRC, Mechanism.ON_DEMAND, compute=bump))
        node_a.metadata.define(MetadataDefinition(
            MID, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC),
            dependencies=[SelfDep(SRC)],
        ))
        node_a.metadata.define(MetadataDefinition(
            TOP, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(MID),
            dependencies=[SelfDep(MID)],
        ))
        node_a.metadata.define(MetadataDefinition(
            CHURN, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC),
            dependencies=[SelfDep(SRC)],
        ))
        node_a.metadata.define(MetadataDefinition(
            FAST, Mechanism.PERIODIC, period=0.002, compute=lambda ctx: ctx.now,
        ))
        node_b.metadata.define(MetadataDefinition(
            REMOTE, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(TOP),
            dependencies=[NodeDep(node_a, TOP)],
        ))

        notify_total = 2 * ITERATIONS

        def notify(worker, i):
            node_a.metadata.notify_changed(SRC)

        def churn(worker, i):
            subscription = node_a.metadata.subscribe(CHURN)
            subscription.get()
            subscription.cancel()

        def read(worker, i):
            anchor_remote.get()

        with scheduler:
            anchor_remote = node_b.metadata.subscribe(REMOTE)
            anchor_fast = node_a.metadata.subscribe(FAST)
            check = RaceCheck(iterations=ITERATIONS, timeout=60.0, name="mixed")
            check.add(notify, threads=2)
            check.add(churn, threads=2)
            check.add(read, threads=2)
            check.run()

            fast_task = anchor_fast.handler._task
            anchor_fast.cancel()  # waits out any in-flight periodic refresh
            fired = scheduler.task_snapshot(fast_task)["fire_count"]
            anchor_remote.cancel()

        stats = system.stats()
        # Handler accounting balances exactly once everything is cancelled.
        assert stats["handlers_included"] == 0
        assert stats["handlers_created"] == stats["handlers_removed"]
        # Churn created fresh handlers whenever no other subscription was
        # live (overlapping subscribes share one handler, so the count is
        # below 2 x ITERATIONS — but far above the 6 base handlers).
        assert stats["handlers_created"] > 6
        assert stats["periodic_tasks"] == 0
        assert stats["pending"] == 0
        # Wave accounting: one wave per notify_changed, plus one per periodic
        # refresh that propagated.  At most one in-flight periodic refresh
        # can have been skipped by the removal flag at cancel time.
        assert notify_total + fired - 1 <= stats["waves"] <= notify_total + fired
        assert stats["errors"] == 0


class TestSchedulerCancelRace:
    """A task cancelled while (or just before) firing must never refresh
    after ``unregister`` / ``subscription.cancel()`` returns.

    The compute sleeps longer than the period, so a refresh is essentially
    always in flight when ``cancel()`` lands.  Pre-fix, ``unregister`` did
    not wait for in-flight work, so the refresh completed *after* cancel
    returned and this failed on every round; post-fix ``cancel()`` blocks
    until the in-flight refresh is done.
    """

    def test_no_fire_after_cancel_returns(self):
        for shards in SHARD_COUNTS:
            self.run_cancel_race(shards)

    def run_cancel_race(self, shards: int) -> None:
        clock = SystemClock()
        scheduler = ThreadedScheduler(clock, pool_size=4)
        system = MetadataSystem(
            clock, scheduler, lock_policy=FineGrainedLockPolicy(),
            shards=shards,
        )
        owner = _attach_registry(system, "node")
        fires: list[int] = []
        fires_lock = threading.Lock()

        def record(ctx):
            # Sleep first: an in-flight refresh that survives cancel() will
            # record its fire only after cancel() has returned.  The wait
            # under the item lock is the point of the test, not a hazard.
            threading.Event().wait(0.005)  # analysis: ignore[LD003]
            with fires_lock:
                fires.append(1)
            return len(fires)

        owner.metadata.define(MetadataDefinition(
            FAST, Mechanism.PERIODIC, period=0.001, compute=record,
        ))
        with scheduler:
            for _ in range(25):
                subscription = owner.metadata.subscribe(FAST)
                # Let it fire at least once, racing cancel against the pool.
                threading.Event().wait(0.003)
                subscription.cancel()
                with fires_lock:
                    count_at_cancel = len(fires)
                threading.Event().wait(0.01)
                with fires_lock:
                    assert len(fires) == count_at_cancel, (
                        "periodic refresh fired after cancel() returned"
                    )
        assert scheduler.active_task_count() == 0
        assert system.included_handler_count == 0


class TestCachedPlanStressEquivalence:
    """The wave-plan cache must change cost, never accounting.

    An always-changing chain makes per-wave work deterministic (every wave
    refreshes the full chain), so the cached and uncached engines must
    produce *identical* counters under the same concurrent storm — and the
    cached engine must actually have served the storm from one plan.
    """

    DEPTH = 6

    def _storm(self, backend: PropagationEngine) -> dict:
        clock = VirtualClock()
        system = MetadataSystem(
            clock,
            VirtualTimeScheduler(clock),
            lock_policy=FineGrainedLockPolicy(),
            propagation=backend,
        )
        owner = _attach_registry(system, "node")
        state = {"n": 0}
        state_lock = threading.Lock()

        def bump(ctx):
            with state_lock:
                state["n"] += 1
                return state["n"]

        owner.metadata.define(MetadataDefinition(SRC, Mechanism.ON_DEMAND, compute=bump))
        previous = SRC
        for i in range(self.DEPTH):
            key = MetadataKey(f"chain{i}")
            owner.metadata.define(MetadataDefinition(
                key, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
                dependencies=[SelfDep(previous)],
            ))
            previous = key
        anchor = owner.metadata.subscribe(previous)

        check = RaceCheck(iterations=ITERATIONS, timeout=60.0,
                          name="plan-cache-equivalence")
        check.add(
            lambda worker, i: owner.metadata.notify_changed(SRC),
            threads=THREADS, name="notify",
        )
        check.run()

        stats = backend.stats()
        anchor.cancel()
        return stats

    def test_identical_accounting_cached_vs_uncached(self):
        # Coalescing off on both sides: merging depends on queue timing, so
        # only the cache dimension varies — the property under test.
        cached = self._storm(PropagationEngine(coalesce=False))
        uncached = self._storm(PropagationEngine(plan_cache=False,
                                                 coalesce=False))
        for key in ("waves", "refreshes", "suppressed", "errors"):
            assert cached[key] == uncached[key], (cached, uncached)
        assert cached["waves"] == THREADS * ITERATIONS
        assert cached["refreshes"] == THREADS * ITERATIONS * self.DEPTH
        assert cached["suppressed"] == 0
        assert cached["pending"] == 0
        # The storm ran off one memoized plan: built once, reused throughout.
        assert cached["plan_misses"] == 1
        assert cached["plan_hits"] == cached["waves"] - 1
        assert uncached["plan_hits"] == 0

    def test_coalescing_storm_keeps_exact_wave_accounting(self):
        """Default engine (coalescing on) under the same storm plus
        concurrent wiring churn: every notification is accounted exactly
        once, merged or not, while epoch bumps invalidate plans mid-storm."""
        clock = VirtualClock()
        system = MetadataSystem(
            clock,
            VirtualTimeScheduler(clock),
            lock_policy=FineGrainedLockPolicy(),
        )
        owner = _attach_registry(system, "node")
        state = {"n": 0}
        state_lock = threading.Lock()

        def bump(ctx):
            with state_lock:
                state["n"] += 1
                return state["n"]

        owner.metadata.define(MetadataDefinition(SRC, Mechanism.ON_DEMAND, compute=bump))
        owner.metadata.define(MetadataDefinition(
            MID, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC),
            dependencies=[SelfDep(SRC)],
        ))
        owner.metadata.define(MetadataDefinition(
            CHURN, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC),
            dependencies=[SelfDep(SRC)],
        ))
        anchor = owner.metadata.subscribe(MID)

        def churn(worker, i):
            subscription = owner.metadata.subscribe(CHURN)
            subscription.get()
            subscription.cancel()

        check = RaceCheck(iterations=ITERATIONS, timeout=60.0,
                          name="coalesce-churn")
        check.add(
            lambda worker, i: owner.metadata.notify_changed(SRC),
            threads=THREADS, name="notify",
        )
        check.add(churn, threads=2, name="churn")
        check.run()

        stats = system.propagation.stats()
        anchor.cancel()
        # Exact lost-wave accounting survives coalescing: each notification
        # is either its own drain or folded into a merged one, never both.
        assert stats["waves"] == THREADS * ITERATIONS
        single_drains = stats["drains"] - stats["merged_waves"]
        assert single_drains + stats["coalesced_sources"] == stats["waves"]
        assert stats["pending"] == 0
        assert stats["errors"] == 0
        # The churn threads bumped the topology epoch mid-storm, forcing
        # plan rebuilds — the cache invalidation path under real contention.
        assert stats["topology_epoch"] > 0
        assert stats["plan_misses"] >= 1
        assert system.included_handler_count == 0

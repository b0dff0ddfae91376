"""Wave-level fault containment and its exact accounting invariant.

Every member a wave intends to recompute is *planned*; it then either
recomputes (``refreshes``) or is skipped because its subtree is poisoned
(``skipped_poisoned``).  The conservation law

    planned == refreshes + skipped_poisoned

is exact — pinned here over hand-built diamonds, seeded random DAGs whose
edges cross registries (same counters cached or uncached, traced or
untraced; and the trace's own events recount them), and a threaded chaos
run mixing injected faults with subscription churn.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.common.clock import SystemClock, VirtualClock
from repro.common.errors import HandlerError
from repro.common.faultcheck import FaultPlan
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
from repro.reliability import FailurePolicy
from repro.telemetry.hub import explain_refresh

A = MetadataKey("a")
B = MetadataKey("b")
C = MetadataKey("c")
D = MetadataKey("d")


def assert_invariant(backend: PropagationEngine) -> dict:
    stats = backend.stats()
    assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]
    return stats


class TestDiamondContainment:
    """A -> (B, C) -> D with B failing: C refreshes, D is skipped."""

    def build(self, make_owner, plan):
        owner = make_owner("node")
        state = {"a": 0}

        def src(ctx):
            state["a"] += 1
            return state["a"]

        owner.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=src))
        owner.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, dependencies=[SelfDep(A)],
            compute=plan.wrap("b", lambda ctx: ctx.value(A) * 10)))
        owner.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, dependencies=[SelfDep(A)],
            compute=plan.wrap("c", lambda ctx: ctx.value(A) * 100)))
        owner.metadata.define(MetadataDefinition(
            D, Mechanism.TRIGGERED, dependencies=[SelfDep(B), SelfDep(C)],
            compute=plan.wrap("d", lambda ctx: ctx.value(B) + ctx.value(C))))
        return owner, [owner.metadata.subscribe(k) for k in (B, C, D)]

    def test_failed_member_poisons_exactly_its_subtree(self, make_owner,
                                                       clock, system):
        plan = FaultPlan().fail_on("b", [2])  # call 1 = seed, call 2 = wave
        owner, subs = self.build(make_owner, plan)
        sb, sc, sd = subs
        clock.advance_by(10.0)  # A: 1 -> 2; B's recompute fails in the wave
        assert sb.get() == 10       # last-good value (from the seed)
        assert sc.get() == 200      # sibling refreshed normally
        assert sd.get() == 110      # skipped: inputs were half-updated
        stats = assert_invariant(system.propagation)
        assert stats["skipped_poisoned"] == 1  # exactly D
        assert stats["errors"] == 1
        # Poisoning is engine-level: no FailurePolicy was attached anywhere.
        assert sb.handler.breaker is None
        clock.advance_by(10.0)  # A: 2 -> 3; everything recovers
        assert sd.get() == 330
        assert_invariant(system.propagation)
        for sub in subs:
            sub.cancel()

    def test_traced_wave_emits_poisoning_causality(self, make_owner, clock,
                                                   system):
        tel = system.enable_telemetry()
        plan = FaultPlan().fail_on("b", [2])
        owner, subs = self.build(make_owner, plan)
        clock.advance_by(10.0)
        events = tel.bus.events(kind="wave.poisoned")
        assert [(e.key, e.reason) for e in events] == \
            [("b", "compute-failed"), ("d", "poisoned-input")]
        end = tel.bus.events(kind="wave.summary")[-1]
        assert end.poisoned == 2
        assert tel.metrics.counter("wave_poisoned_total",
                                   {"reason": "compute-failed"}).value == 1
        assert_invariant(system.propagation)
        for sub in subs:
            sub.cancel()

    def test_explain_refresh_names_the_poison(self, make_owner, clock,
                                              system):
        tel = system.enable_telemetry()
        plan = FaultPlan().fail_on("b", [2])
        owner, subs = self.build(make_owner, plan)
        clock.advance_by(10.0)
        explanation = explain_refresh(tel, "node", D)
        assert "stale" in explanation and "poisoned-input" in explanation
        for sub in subs:
            sub.cancel()

    def test_quarantined_member_is_skipped_not_recomputed(self, make_owner,
                                                          clock, system):
        tel = system.enable_telemetry()
        plan = FaultPlan().fail_on("b", range(2, 100))
        owner, subs = self.build(make_owner, plan)
        sb, sc, sd = subs
        policy_plan_calls = plan.calls("b")
        # No policy on B: the first failing wave poisons via compute-failed.
        # Attach quarantine behaviour by rebuilding with a policy instead.
        for sub in subs:
            sub.cancel()
        owner2 = make_owner("node2")
        state = {"a": 0}

        def src(ctx):
            state["a"] += 1
            return state["a"]

        policy = FailurePolicy(max_retries=0, jitter=0.0, probe_interval=100.0)
        owner2.metadata.define(MetadataDefinition(
            A, Mechanism.PERIODIC, period=10.0, compute=src))
        owner2.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, dependencies=[SelfDep(A)],
            compute=plan.wrap("b2", lambda ctx: ctx.value(A) * 10),
            failure_policy=policy))
        owner2.metadata.define(MetadataDefinition(
            D, Mechanism.TRIGGERED, dependencies=[SelfDep(B)],
            compute=lambda ctx: ctx.value(B) + 1))
        plan.fail_on("b2", range(2, 100))
        sb = owner2.metadata.subscribe(B)
        sd = owner2.metadata.subscribe(D)
        clock.advance_by(10.0)  # wave 1: B fails -> quarantined, D poisoned
        calls_after_first = plan.calls("b2")
        clock.advance_by(10.0)  # wave 2: B rests — no compute attempt at all
        assert plan.calls("b2") == calls_after_first
        reasons = [e.reason for e in tel.bus.events(kind="wave.poisoned")]
        assert "quarantined" in reasons
        assert sb.stale is True
        assert sd.get() == 11  # built from B's stale last-good value
        assert_invariant(system.propagation)
        sb.cancel()
        sd.cancel()


class TestHealthyPolicyIsInvisible:
    """A healthy circuit breaker changes no propagation work: one seeded
    chain, built policy-free and with a policy on every item, fired with
    the same waves, moves the engine's counters alike."""

    COUNTERS = ("waves", "refreshes", "planned", "suppressed", "errors",
                "skipped_poisoned")

    def run_chain(self, seed: int, policy: FailurePolicy | None):
        clock = VirtualClock()
        system = MetadataSystem(clock, VirtualTimeScheduler(clock))

        class Owner:
            name = "chain"
            upstream_nodes: list = []
            downstream_nodes: list = []

        registry = MetadataRegistry(Owner(), system)
        state = {"v": 0}
        registry.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND, compute=lambda ctx: state["v"],
            failure_policy=policy))
        keys = [A]
        for depth in range(12):
            key = MetadataKey(f"c{depth}")
            # Halving links cut some waves short (unchanged inputs).
            registry.define(MetadataDefinition(
                key, Mechanism.TRIGGERED, dependencies=[SelfDep(keys[-1])],
                compute=lambda ctx, dep=keys[-1], halve=depth % 3 == 0:
                    ctx.value(dep) // 2 if halve else ctx.value(dep) + 1,
                failure_policy=policy))
            keys.append(key)
        subscription = registry.subscribe(keys[-1])
        rng = random.Random(seed)
        for _ in range(200):
            if rng.random() < 0.8:
                state["v"] = rng.randrange(64)
                registry.notify_changed(A)
            else:  # a coalesced wave of two links, one downstream of the other
                registry.notify_changed_many(rng.sample(keys[1:], k=2))
        stats = system.propagation.stats()
        value = subscription.get()
        subscription.cancel()
        return {k: stats[k] for k in self.COUNTERS}, value

    @pytest.mark.parametrize("seed", [0, 3])
    def test_healthy_policy_does_the_policy_free_work(self, seed):
        plain = self.run_chain(seed, None)
        guarded = self.run_chain(seed, FailurePolicy(max_retries=1,
                                                     jitter=0.0))
        assert guarded == plain
        counters = plain[0]
        assert counters["refreshes"] > 0 and counters["suppressed"] > 0
        assert counters["errors"] == counters["skipped_poisoned"] == 0
        assert counters["planned"] == counters["refreshes"]


class TestCrossRegistryPoison:
    """``node0``'s B reads its on-demand A; ``node1``'s C reads ``node0``'s
    B.  When B fails in a wave, the poison reaches across the registry
    boundary within the same pass."""

    def build(self, make_owner):
        node0, node1 = make_owner("node0"), make_owner("node1")
        state = {"v": 1, "fail": False}

        def derived(ctx):
            if state["fail"]:
                raise RuntimeError("injected provider failure")
            return ctx.value(A)

        node0.metadata.define(MetadataDefinition(
            A, Mechanism.ON_DEMAND, compute=lambda ctx: state["v"]))
        node0.metadata.define(MetadataDefinition(
            B, Mechanism.TRIGGERED, dependencies=[SelfDep(A)], compute=derived))
        node1.metadata.define(MetadataDefinition(
            C, Mechanism.TRIGGERED, dependencies=[NodeDep(node0, B)],
            compute=lambda ctx: ctx.value(B) + 1))
        return node0, node1.metadata.subscribe(C), state

    def test_poison_crosses_the_boundary_as_planned_and_skipped(
            self, make_owner, system):
        node0, subscription, state = self.build(make_owner)
        assert subscription.get() == 2
        state["fail"] = True
        node0.metadata.notify_changed(A)
        state["fail"] = False
        # One wave: B failed, C was planned and skipped in the same pass,
        # keeping its stale value.
        assert subscription.get() == 2
        stats = assert_invariant(system.propagation)
        assert (stats["waves"], stats["drains"]) == (1, 1)
        assert (stats["errors"], stats["refreshes"],
                stats["skipped_poisoned"]) == (1, 1, 1)
        state["v"] = 3
        node0.metadata.notify_changed(A)
        assert subscription.get() == 4  # recovers on the next healthy wave
        assert_invariant(system.propagation)
        subscription.cancel()

    def test_poisoned_member_is_traced_in_the_failing_wave(self, make_owner, system):
        node0, subscription, state = self.build(make_owner)
        tel = system.enable_telemetry()
        state["fail"] = True
        node0.metadata.notify_changed(A)
        (summary,) = tel.bus.events(kind="wave.summary")
        poisoned = tel.bus.events(kind="wave.poisoned")
        assert [(e.node, e.reason) for e in poisoned] == [
            ("node0", "compute-failed"), ("node1", "poisoned-input")]
        assert all(e.span == summary.span for e in poisoned)
        assert summary.poisoned == 2
        assert tel.metrics.counter(
            "wave_poisoned_total", {"reason": "poisoned-input"}).value == 1
        assert_invariant(system.propagation)
        subscription.cancel()


def build_random_dag(system, rng: random.Random, plan: FaultPlan,
                     nodes: int = 30, owners: int = 1):
    """Seeded random DAG: one periodic source, ``nodes`` triggered items,
    dealt round-robin over ``owners`` registries (item ``i`` lives on owner
    ``i % owners``, so with several owners most edges are inter-node)."""

    class Owner:
        upstream_nodes: list = []
        downstream_nodes: list = []

        def __init__(self, index: int) -> None:
            self.index = index
            self.name = "dag" if owners == 1 else f"dag{index}"

    registries = []
    for i in range(owners):
        owner = Owner(i)
        owner.metadata = MetadataRegistry(owner, system)  # NodeDep target
        registries.append(owner.metadata)
    registry = registries[0]
    state = {"tick": 0}

    def src(ctx):
        state["tick"] += 1
        return state["tick"]

    source = MetadataKey("src")
    registry.define(MetadataDefinition(
        source, Mechanism.PERIODIC, period=10.0, compute=src))
    keys = [source]
    home = {source: registry}
    for i in range(nodes):
        key = MetadataKey(f"n{i}")
        deps = rng.sample(keys, k=min(len(keys), rng.randint(1, 3)))
        home[key] = registries[i % owners]
        specs = [SelfDep(d) if home[d] is home[key]
                 else NodeDep(home[d].owner, d) for d in deps]

        def compute(ctx, deps=tuple(deps), fault_key=f"n{i}"):
            plan.check(fault_key)
            return sum(ctx.value(d) for d in deps) + 1

        policy = None
        if rng.random() < 0.5:
            policy = FailurePolicy(max_retries=0, jitter=0.0,
                                   probe_interval=35.0)
        home[key].define(MetadataDefinition(
            key, Mechanism.TRIGGERED, compute=compute,
            dependencies=specs, failure_policy=policy))
        keys.append(key)
    subs = [home[k].subscribe(k) for k in keys[1:]]
    return registry.subscribe(source), subs


class TestRandomDagProperty:
    """Seeded property test over a DAG dealt across four owners, so most
    edges cross a registry boundary: the invariant holds, and neither way
    of obtaining the plan nor the trace recorder moves a counter.

    Plan caching and tracing are independent (one decides where the plan
    comes from, the other what the one loop reports), so each is varied
    once against the default instead of as a 2x2 matrix.
    """

    OWNERS = 4
    VARIANTS = {
        "cached-untraced": (True, False),
        "cached-traced": (True, True),
        "uncached-untraced": (False, False),
    }
    #: The counters a wave moves; plan-cache bookkeeping differs by design
    #: between the cached and uncached variants.
    WAVE_COUNTERS = ("waves", "drains", "merged_waves", "coalesced_sources",
                     "planned", "refreshes", "skipped_poisoned", "suppressed",
                     "errors")

    def run_variant(self, seed: int, plan_cache: bool,
                    traced: bool) -> tuple[dict, list]:
        clock = VirtualClock()
        system = MetadataSystem(
            clock, VirtualTimeScheduler(clock),
            propagation=PropagationEngine(plan_cache=plan_cache))
        if traced:
            system.enable_telemetry(capacity=65536)
        plan = FaultPlan(seed=seed, active=False)
        rng = random.Random(seed)
        for i in range(30):
            plan.fail_rate(f"n{i}", 0.2)
        anchor, subs = build_random_dag(system, rng, plan, owners=self.OWNERS)
        plan.activate()
        for _ in range(12):
            clock.advance_by(10.0)
            # Event waves and ticks cross registries (poison included).
            for sub in rng.sample(subs, k=3):
                sub.handler.registry.notify_changed(sub.handler.key)
        stats = assert_invariant(system.propagation)
        values = [sub.get() for sub in subs]
        for sub in subs:
            sub.cancel()
        anchor.cancel()
        return stats, values

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_invariant_and_path_equivalence(self, seed):
        results = {name: self.run_variant(seed, *flags)
                   for name, flags in self.VARIANTS.items()}
        baseline, expected = results["cached-untraced"]
        assert baseline["planned"] > 0
        for name, (stats, values) in results.items():
            assert values == expected, f"{name} values diverged for seed {seed}"
            assert ({k: stats[k] for k in self.WAVE_COUNTERS}
                    == {k: baseline[k] for k in self.WAVE_COUNTERS}), (
                f"{name} diverged from cached-untraced for seed {seed}")


class TestTraceFoldsToCounters:
    """The trace recounts the engine: every counter has one emission site,
    so tallying a storm's events by kind and reason gives ``stats()``."""

    @pytest.mark.parametrize("seed", [1, 2024])
    def test_events_recount_the_accounting(self, seed):
        clock = VirtualClock()
        scheduler = VirtualTimeScheduler(clock)
        system = MetadataSystem(clock, scheduler)
        tel = system.enable_telemetry(capacity=1 << 17)
        plan = FaultPlan(seed=seed, active=False)
        rng = random.Random(seed)
        for i in range(30):
            plan.fail_rate(f"n{i}", 0.2)
        anchor, subs = build_random_dag(system, rng, plan, owners=2)
        plan.activate()
        for _ in range(12):
            clock.advance_by(10.0)
            # A coalesced wave whose sources may sit downstream of each
            # other, next to the periodic source's single-source waves.
            fired: dict[int, list] = {}
            for sub in rng.sample(subs, k=3):
                fired.setdefault(sub.handler.registry.owner.index,
                                 []).append(sub.handler)
            for _, handlers in sorted(fired.items()):
                handlers[0].registry.notify_changed_many(
                    [handler.key for handler in handlers])
        stats = system.propagation.stats()
        assert stats["pending"] == 0 and tel.bus.dropped == 0
        assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]
        assert stats["skipped_poisoned"] > 0 and stats["suppressed"] > 0

        def count(kind, *reasons):
            return sum(1 for e in tel.bus.events(kind=kind)
                       if not reasons or e.reason in reasons)

        excluded = count("wave.suppressed", "excluded")
        assert count("wave.refresh") + excluded == stats["refreshes"]
        assert (count("wave.suppressed", "unchanged-inputs") + excluded
                == stats["suppressed"])
        assert (count("wave.poisoned", "poisoned-input", "quarantined")
                == stats["skipped_poisoned"])
        assert count("wave.poisoned", "compute-failed") <= stats["errors"]
        ends = tel.bus.events(kind="wave.summary")
        assert sum(e.refreshed for e in ends) == count("wave.refresh")
        assert sum(e.poisoned for e in ends) == count("wave.poisoned")
        for sub in subs:
            sub.cancel()
        anchor.cancel()


@pytest.mark.stress
@pytest.mark.chaos
class TestPoisoningUnderChurnStress:
    """RaceCheck: injected compute faults + concurrent include/exclude.

    The invariant must hold under a threaded scheduler with subscription
    churn racing the waves — the accounting is engine-global, so lost or
    double-counted members would break the equality immediately.
    """

    def test_invariant_survives_chaos(self):
        clock = SystemClock()
        scheduler = ThreadedScheduler(clock, pool_size=2)
        system = MetadataSystem(clock, scheduler,
                                lock_policy=FineGrainedLockPolicy())

        class Owner:
            name = "chaos"
            upstream_nodes: list = []
            downstream_nodes: list = []

        registry = MetadataRegistry(Owner(), system)
        plan = FaultPlan(seed=99)
        state = {"n": 0}
        state_lock = threading.Lock()

        def bump(ctx):
            with state_lock:
                state["n"] += 1
                return state["n"]

        SRC, MID, TOP, CHURN = (MetadataKey("src"), MetadataKey("mid"),
                                MetadataKey("top"), MetadataKey("churn"))
        policy = FailurePolicy(max_retries=1, jitter=0.0, probe_interval=0.01)
        registry.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND, compute=bump))
        registry.define(MetadataDefinition(
            MID, Mechanism.TRIGGERED, dependencies=[SelfDep(SRC)],
            compute=plan.wrap("mid", lambda ctx: ctx.value(SRC)),
            failure_policy=policy))
        registry.define(MetadataDefinition(
            TOP, Mechanism.TRIGGERED, dependencies=[SelfDep(MID)],
            compute=lambda ctx: ctx.value(MID) + 1))
        registry.define(MetadataDefinition(
            CHURN, Mechanism.TRIGGERED, dependencies=[SelfDep(SRC)],
            compute=plan.wrap("churn", lambda ctx: ctx.value(SRC)),
            failure_policy=policy))
        plan.fail_rate("mid", 0.2)
        plan.fail_rate("churn", 0.2)

        def notify(worker, i):
            registry.notify_changed(SRC)

        def churn(worker, i):
            try:
                sub = registry.subscribe(CHURN)
            except HandlerError:
                return  # the inclusion seed hit an injected fault
            try:
                sub.get()
            finally:
                sub.cancel()

        def read(worker, i):
            anchor_top.get()

        with scheduler:
            anchor_top = registry.subscribe(TOP)
            check = RaceCheck(iterations=150, timeout=60.0,
                              name="poisoning-churn")
            check.add(notify, threads=2)
            check.add(churn, threads=2)
            check.add(read, threads=2)
            check.run()
            anchor_top.cancel()

        stats = assert_invariant(system.propagation)
        assert stats["pending"] == 0
        assert system.stats()["handlers_included"] == 0
        assert plan.failures("mid") + plan.failures("churn") > 0

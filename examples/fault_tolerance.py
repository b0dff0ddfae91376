#!/usr/bin/env python3
"""Fault-tolerant refresh: retries, quarantine, stale reads, recovery.

A metadata provider that fails — a probe reading a dead socket, a cost
estimate dividing by a briefly-zero count — must degrade *its own item*
and nothing else.  This example walks the whole failure lifecycle under
deterministic virtual time and deterministic fault injection:

1. a periodic item with a :class:`FailurePolicy` starts failing: retries
   ride the scheduler re-arm with exponential backoff, then the circuit
   quarantines the item;
2. while quarantined, reads serve the **last-good value flagged stale**
   (``stale_while_failing``) and the item surfaces in
   ``describe_system()["health"]``;
3. the fault window closes: a half-open probe succeeds and the circuit
   silently recovers;
4. inside a propagation wave, a failing member *poisons* exactly its
   dependent subtree (skipped, not half-updated) with exact accounting
   ``planned == refreshes + skipped_poisoned``; and
5. the telemetry dashboard and ``explain_refresh`` narrate all of it.

Run with::

    python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro.common.clock import VirtualClock
from repro.common.faultcheck import FaultPlan
from repro.metadata.introspect import describe_system
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler
from repro.reliability import FailurePolicy
from repro.telemetry.hub import explain_refresh, render_dashboard

RTT = MetadataKey("net.rtt")
RTT_BUDGET = MetadataKey("net.rtt_budget")
FANOUT = MetadataKey("net.fanout")
COST = MetadataKey("net.cost")
TOTAL = MetadataKey("net.total_cost")


class Node:
    """Minimal registry owner (no query graph needed for this demo)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.upstream_nodes: list = []
        self.downstream_nodes: list = []

    def __repr__(self) -> str:
        return f"Node({self.name!r})"


def main() -> None:
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock))
    telemetry = system.enable_telemetry()
    node = Node("probe")
    registry = MetadataRegistry(node, system)

    # Deterministic fault injection: dormant until activated.  While a
    # window is open, every net.rtt measurement fails; net.cost fails only
    # on its first in-window recompute (dormant calls are not counted).
    faults = FaultPlan(seed=7, active=False).flaky("rtt", 100).flaky("cost", 1)

    rtt_state = {"value": 40.0}

    registry.define(MetadataDefinition(
        RTT, Mechanism.PERIODIC, period=10.0,
        compute=faults.wrap("rtt", lambda ctx: rtt_state["value"]),
        failure_policy=FailurePolicy(
            max_retries=2, backoff_base=5.0, backoff_factor=2.0,
            jitter=0.0, probe_interval=40.0, stale_while_failing=True)))
    registry.define(MetadataDefinition(
        RTT_BUDGET, Mechanism.TRIGGERED, dependencies=[SelfDep(RTT)],
        compute=lambda ctx: 2.5 * ctx.value(RTT)))

    rtt = registry.subscribe(RTT)
    budget = registry.subscribe(RTT_BUDGET)

    print("fault-tolerant refresh walkthrough".center(68, "-"))
    print("\n[1] healthy cadence: net.rtt refreshes on its 10-unit grid")
    clock.advance_by(20.0)
    print(f"    t={clock.now():g}  rtt={rtt.get():g}  stale={rtt.handler.stale}")

    print("\n[2] the probe starts failing -> backoff retries, then quarantine")
    faults.activate()
    rtt_state["value"] = 55.0  # never observed while the probe is down
    clock.advance_by(30.0)     # fail at t=30, retries at t=35, t=45 -> open
    status = rtt.handler.breaker.describe()
    print(f"    t={clock.now():g}  circuit={status['state']}  "
          f"failures={status['consecutive_failures']}")
    print(f"    last error: {status['last_error']}")

    print("\n[3] stale-while-failing: reads keep serving the last-good value")
    print(f"    rtt.get() -> {rtt.get():g}  (stale={rtt.handler.stale})")
    health = describe_system(system)["health"]
    print(f"    describe_system health: {health['unhealthy']} unhealthy, "
          f"{health['quarantined']} quarantined")
    for item in health["items"]:
        print(f"      {item['node']}/{item['key']}: {item['state']}, "
              f"stale={item['stale']}")

    print("\n[4] fault window closes -> half-open probe -> recovered")
    faults.deactivate()
    clock.advance_by(60.0)     # rest expires, probe succeeds, grid resumes
    print(f"    t={clock.now():g}  rtt={rtt.get():g}  "
          f"stale={rtt.handler.stale}  "
          f"circuit={rtt.handler.breaker.describe()['state']}")
    print(f"    dependent followed: rtt_budget={budget.get():g}")

    print("\n[5] wave poisoning: a failing member skips exactly its subtree")
    fanout_state = {"value": 4}
    registry.define(MetadataDefinition(
        FANOUT, Mechanism.ON_DEMAND,
        compute=lambda ctx: fanout_state["value"]))
    registry.define(MetadataDefinition(
        COST, Mechanism.TRIGGERED, dependencies=[SelfDep(FANOUT)],
        compute=faults.wrap("cost", lambda ctx: 100 * ctx.value(FANOUT))))
    registry.define(MetadataDefinition(
        TOTAL, Mechanism.TRIGGERED, dependencies=[SelfDep(COST)],
        compute=lambda ctx: ctx.value(COST) + 50))
    cost, total = registry.subscribe(COST), registry.subscribe(TOTAL)
    fanout_state["value"] = 8
    before = system.propagation.stats()  # step 2's failed ticks poisoned too
    faults.activate()          # net.cost's recompute fails inside the wave
    registry.notify_changed(FANOUT)
    faults.deactivate()
    stats = {name: count - before[name]
             for name, count in system.propagation.stats().items()}
    print(f"    cost.get()  -> {cost.get():g}  (last-good: compute failed)")
    print(f"    total.get() -> {total.get():g}  "
          f"(skipped, not fed a half-updated input)")
    print(f"    accounting: planned={stats['planned']} == "
          f"refreshes={stats['refreshes']} + "
          f"skipped_poisoned={stats['skipped_poisoned']}")
    assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]

    print("\n[6] explain_refresh leads with the failure causality:")
    print(explain_refresh(telemetry, node, TOTAL))

    registry.notify_changed(FANOUT)   # fault gone: the subtree catches up
    print(f"\n    next wave recovers: cost={cost.get():g}, "
          f"total={total.get():g}")

    print("\n" + render_dashboard(telemetry))

    for sub in (rtt, budget, cost, total):
        sub.cancel()


if __name__ == "__main__":
    main()

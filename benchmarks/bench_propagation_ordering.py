"""E12 — ablation: topologically ordered waves vs naive recursive triggering.

Section 3.2.3: "In order to provide correct and consistent metadata values
... (i) updates have to be performed in the right order ... The update order
is basically determined by the inverted dependency graph."

We build a *ladder* of diamonds: item a feeds b1/c1 which feed d1; d1 feeds
b2/c2 which feed d2; and so on.  Each dk computes ``value(bk) + value(ck)``
and checks that both inputs agree (they are equal functions of the same
source) — a disagreement is a **glitch**: a transiently inconsistent pair of
inputs observed mid-propagation.

* The ordered engine refreshes every handler exactly once per change, after
  all of its in-wave dependencies: **0 glitches, O(n) refreshes**.
* The naive recursion (ablation) refreshes once per dependency path:
  **O(2^k) refreshes** on a k-diamond ladder and glitches at every level.

The ablation is :class:`NaiveRecursion` below — the anti-pattern the paper
warns about, overriding the entry points of the
:class:`PropagationEngine` every metadata system holds.  It lives
here, with its only caller, not in the product.
"""

from __future__ import annotations

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.propagation import PropagationEngine
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

DEPTHS = (1, 2, 4, 6, 8)


class _Owner:
    name = "ladder"


class NaiveRecursion(PropagationEngine):
    """Unordered depth-first triggering: every change recurses straight
    into the dependents, so a diamond's bottom recomputes once per path and
    reads one fresh and one stale input in between.  The ladder has no
    periodic items, so no scheduler tick ever reaches it."""

    def value_changed(self, source) -> None:
        for dependent in source.dependents():
            if dependent.on_dependency_changed(source):
                self.refresh_count += 1
                if dependent.recompute_for_propagation():
                    self.value_changed(dependent)

    event_fired = value_changed

    def events_fired(self, sources) -> None:
        for source in sources:
            self.value_changed(source)

    def stats(self) -> dict[str, int]:
        return {"refreshes": self.refresh_count}


def build_ladder(depth: int, ordered: bool):
    clock = VirtualClock()
    system = MetadataSystem(
        clock, VirtualTimeScheduler(clock),
        propagation=None if ordered else NaiveRecursion())
    owner = _Owner()
    registry = MetadataRegistry(owner, system)
    owner.metadata = registry

    state = {"value": 0}
    glitches = {"count": 0}

    a = MetadataKey("a")
    registry.define(MetadataDefinition(
        a, Mechanism.ON_DEMAND, compute=lambda ctx: state["value"],
    ))
    base = a
    for level in range(depth):
        b = MetadataKey(f"b{level}")
        c = MetadataKey(f"c{level}")
        d = MetadataKey(f"d{level}")
        for side in (b, c):
            registry.define(MetadataDefinition(
                side, Mechanism.TRIGGERED,
                compute=lambda ctx, dep=base: ctx.value(dep) + 1,
                dependencies=[SelfDep(base)],
            ))

        def compute_d(ctx, left=b, right=c):
            lv, rv = ctx.value(left), ctx.value(right)
            if lv != rv:  # both are (base + 1): any mismatch is a glitch
                glitches["count"] += 1
            return lv + rv

        registry.define(MetadataDefinition(
            d, Mechanism.TRIGGERED, compute=compute_d,
            dependencies=[SelfDep(b), SelfDep(c)],
        ))
        base = d
    return registry, system, state, glitches, base, a


def run(depth: int, ordered: bool):
    registry, system, state, glitches, top, a = build_ladder(depth, ordered)
    subscription = registry.subscribe(top)
    refreshes_before = system.stats()["refreshes"]
    glitches["count"] = 0
    state["value"] = 10
    registry.notify_changed(a)
    refreshes = system.stats()["refreshes"] - refreshes_before
    value = subscription.get()
    subscription.cancel()
    # Reference: each level doubles (value+1)+(value+1).
    expected = 10
    for _ in range(depth):
        expected = 2 * (expected + 1)
    return refreshes, glitches["count"], value == expected


def test_propagation_ordering(benchmark, report):
    rows = []
    for depth in DEPTHS:
        ordered_refreshes, ordered_glitches, ordered_ok = run(depth, True)
        naive_refreshes, naive_glitches, naive_ok = run(depth, False)
        rows.append((depth, ordered_refreshes, ordered_glitches,
                     naive_refreshes, naive_glitches, ordered_ok, naive_ok))

    lines = ["diamond-ladder dependency graph, one change at the bottom:",
             "",
             f"{'diamonds':>9} | {'ordered:refresh':>15} "
             f"{'ordered:glitch':>14} | {'naive:refresh':>13} "
             f"{'naive:glitch':>12}"]
    for depth, o_r, o_g, n_r, n_g, *_ in rows:
        lines.append(f"{depth:>9} | {o_r:>15} {o_g:>14} | {n_r:>13} {n_g:>12}")
    lines += ["",
              "ordered waves: one refresh per item, zero glitches; naive "
              "recursion: one refresh per PATH (exponential) with transient "
              "inconsistencies at every level"]
    report("E12 / Section 3.2.3 — update ordering along the inverted "
           "dependency graph", lines)

    for depth, o_r, o_g, n_r, n_g, o_ok, n_ok in rows:
        assert o_r == 3 * depth          # b, c, d per diamond, exactly once
        assert o_g == 0                  # never inconsistent
        assert o_ok                      # final value correct
        assert n_ok                      # naive *converges*, but...
    last = rows[-1]
    assert last[3] > last[1] * 10        # ...with exponential refresh blowup
    assert last[4] > 0                   # ...and observable glitches

    benchmark.pedantic(lambda: run(6, True), rounds=5, iterations=1)

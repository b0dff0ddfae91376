"""Property: scheduler ticks equal a from-scratch in-order recompute.

Random DAGs of periodic / triggered / on-demand items (random periods from
{5, 10, 15}), one registry per item so that every edge crosses a registry
boundary, driven by random subscribe / cancel / source-change /
clock-advance sequences.  After every operation each subscribed value must
equal what an independent model gives — a plain simulator that, at every
deadline, walks *all* items in dependency order, recomputing the periodic
items due then and every triggered item one of whose inputs just changed.
That is the correctness criterion of incremental view maintenance: the
batched result equals the full in-order recompute, with each member
computed once per pass — every triggered item's compute count equals the
model's.

Alongside: ``planned == refreshes + skipped_poisoned``, nothing pending, and
no periodic item ever computed more often than its deadlines elapsed (a
second compute of a window-consuming item is the Figure-4 bug).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, NodeDep
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

N = 6  # item i may depend on lower-numbered items only
KEYS = [MetadataKey(f"i{i}") for i in range(N)]
PERIODIC, TRIGGERED, ON_DEMAND = "periodic", "triggered", "on_demand"


class _Owner:
    def __init__(self, index: int) -> None:
        self.name = f"n{index}"
        self.metadata: MetadataRegistry | None = None


kinds_strategy = st.lists(
    st.sampled_from([TRIGGERED, ON_DEMAND, 5.0, 10.0, 15.0]),
    min_size=N, max_size=N)
edges_strategy = st.sets(
    st.tuples(st.integers(1, N - 1), st.integers(0, N - 1)).filter(
        lambda edge: edge[1] < edge[0]),
    min_size=2, max_size=12)
ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("subscribe"), st.integers(0, N - 1)),
        st.tuples(st.just("cancel"), st.integers(0, 50)),
        st.tuples(st.just("change"), st.integers(0, N - 1)),
        st.tuples(st.just("advance"), st.sampled_from([1.0, 5.0, 10.0, 15.0, 22.0])),
        st.tuples(st.just("advance"), st.sampled_from([5.0, 10.0])),
    ),
    min_size=1, max_size=12)


class Model:
    """The oracle: stored values, reference counts and deadlines, updated by
    full passes over all items in index (= dependency) order."""

    def __init__(self, kinds, deps) -> None:
        self.kinds, self.deps = kinds, deps
        self.now = 0.0
        self.state = [0] * N        # external state behind each item
        self.count = [0] * N        # inclusion counters
        self.stored: dict[int, float] = {}
        self.deadline: dict[int, float] = {}
        self.deadlines_elapsed = [0] * N
        self.triggered_computes = [0] * N  # inclusion seeds + pass refreshes

    def is_periodic(self, i: int) -> bool:
        return isinstance(self.kinds[i], float)

    def read(self, i: int) -> float:
        """What a consumer (or a dependent's compute) reads from item i."""
        return self.compute(i) if self.kinds[i] == ON_DEMAND else self.stored[i]

    def compute(self, i: int) -> float:
        value = self.state[i] + i + sum(self.read(j) for j in self.deps[i])
        return value + self.now if self.is_periodic(i) else value

    def include(self, i: int) -> None:
        self.count[i] += 1
        if self.count[i] == 1:
            for j in self.deps[i]:
                self.include(j)
            self.stored[i] = self.compute(i)
            if self.kinds[i] == TRIGGERED:
                self.triggered_computes[i] += 1
            if self.is_periodic(i):
                self.deadline[i] = self.now + self.kinds[i]

    def exclude(self, i: int) -> None:
        self.count[i] -= 1
        if self.count[i] == 0:
            del self.stored[i]
            self.deadline.pop(i, None)
            for j in self.deps[i]:
                self.exclude(j)

    def pass_over(self, changed: set[int], due: set[int]) -> None:
        for i in range(N):
            if self.count[i] == 0:
                continue
            if i in due:
                self.stored[i] = self.compute(i)
                changed.add(i)  # every periodic refresh is published
            elif self.kinds[i] == TRIGGERED and changed.intersection(self.deps[i]):
                self.triggered_computes[i] += 1
                value = self.compute(i)
                if value != self.stored[i]:
                    changed.add(i)
                self.stored[i] = value

    def advance(self, delta: float) -> None:
        end = self.now + delta
        while self.deadline and min(self.deadline.values()) <= end:
            self.now = min(self.deadline.values())
            due = {i for i, at in self.deadline.items() if at == self.now}
            for i in due:
                self.deadline[i] += self.kinds[i]
                self.deadlines_elapsed[i] += 1
            self.pass_over(set(), due)
        self.now = end


@given(kinds=kinds_strategy, edges=edges_strategy, ops=ops_strategy,
       first=st.lists(st.integers(0, N - 1), min_size=1, max_size=3))
# A slow periodic item reading a fast one: at their shared deadline one timer
# per task fired the slow one first (its timer was armed earlier).
@example(kinds=[5.0, 10.0] + [TRIGGERED] * (N - 2), edges={(1, 0)}, first=[1],
         ops=[("advance", 10.0)])
# The hazard: periodic <- triggered <- periodic, plus periodic <- periodic.
@example(kinds=[5.0, 5.0, TRIGGERED, 5.0] + [ON_DEMAND] * (N - 4),
         edges={(1, 0), (2, 0), (3, 2)}, first=[3, 1],
         ops=[("advance", 5.0), ("advance", 5.0)])
# A diamond through an on-demand item: 4 reads 0 directly and 1 through
# on-demand 3.  The wave must not refresh 4 before 1.
@example(kinds=[5.0, TRIGGERED, TRIGGERED, ON_DEMAND, TRIGGERED, TRIGGERED],
         edges={(1, 0), (4, 0), (3, 1), (4, 3)}, first=[4],
         ops=[("advance", 5.0)])
# The same diamond driven by an event wave from an on-demand 0.
@example(kinds=[ON_DEMAND, TRIGGERED, TRIGGERED, ON_DEMAND, TRIGGERED, TRIGGERED],
         edges={(1, 0), (4, 0), (3, 1), (4, 3)}, first=[4],
         ops=[("change", 0)])
# A diamond of triggered items driven by an event wave: 3 reads 0 directly
# and through 1 -> 2.  One wave computes 3 once.
@example(kinds=[ON_DEMAND, TRIGGERED, TRIGGERED, TRIGGERED, ON_DEMAND, ON_DEMAND],
         edges={(1, 0), (2, 1), (3, 0), (3, 2)}, first=[3],
         ops=[("change", 0)])
# One event wave whose two fronts meet at 5 through on-demand 3: 5 must not
# refresh before 2 did.
@example(kinds=[ON_DEMAND, TRIGGERED, TRIGGERED, ON_DEMAND, TRIGGERED, TRIGGERED],
         edges={(1, 0), (2, 0), (3, 2), (5, 1), (5, 3)}, first=[5],
         ops=[("change", 0)])
# A member reading two periodic items, one through an on-demand item: the
# tick must refresh both before the member.
@example(kinds=[TRIGGERED, TRIGGERED, 5.0, 5.0, ON_DEMAND, TRIGGERED],
         edges={(5, 3), (5, 4), (4, 2)}, first=[5],
         ops=[("advance", 5.0)])
# The same chain without the direct edge 4 <- 0: on-demand 3 never notifies,
# so 4 keeps its value.
@example(kinds=[5.0, TRIGGERED, TRIGGERED, ON_DEMAND, TRIGGERED, TRIGGERED],
         edges={(1, 0), (3, 1), (4, 3)}, first=[4],
         ops=[("advance", 5.0)])
@settings(max_examples=150, deadline=None)
def test_ticks_equal_a_full_in_order_recompute(kinds, edges, first, ops):
    ops = [("subscribe", i) for i in first] + ops
    deps = [sorted(j for i, j in edges if i == item) for item in range(N)]
    model = Model(kinds, deps)
    clock = VirtualClock()
    scheduler = VirtualTimeScheduler(clock)
    system = MetadataSystem(clock, scheduler)
    owners = [_Owner(i) for i in range(N)]
    computes = [0] * N
    for i, owner in enumerate(owners):
        owner.metadata = MetadataRegistry(owner, system)

        def compute(ctx, i=i):
            computes[i] += 1
            value = model.state[i] + i + sum(ctx.value(KEYS[j]) for j in deps[i])
            return value + ctx.now if model.is_periodic(i) else value

        periodic = model.is_periodic(i)
        owner.metadata.define(MetadataDefinition(
            KEYS[i],
            Mechanism.PERIODIC if periodic else Mechanism(kinds[i]),
            period=kinds[i] if periodic else None, compute=compute,
            dependencies=[NodeDep(owners[j], KEYS[j]) for j in deps[i]]))
    live: list[tuple[int, object]] = []
    seeds = [0] * N  # computes that were inclusion seeds, not refreshes

    def check() -> None:
        for i, subscription in live:
            assert subscription.get() == model.read(i), (i, kinds, deps)
        stats = system.stats()
        assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]
        assert stats["pending"] == 0 and stats["errors"] == 0
        assert stats["periodic_tasks"] == len(model.deadline)

    for op, arg in ops:
        if op == "subscribe":
            before = [count > 0 for count in model.count]
            live.append((arg, owners[arg].metadata.subscribe(KEYS[arg])))
            model.include(arg)
            for i in range(N):
                if model.count[i] and not before[i] and model.is_periodic(i):
                    seeds[i] += 1
        elif op == "cancel":
            if live:
                i, subscription = live.pop(arg % len(live))
                subscription.cancel()
                model.exclude(i)
        elif op == "change":
            model.state[arg] += 3
            owners[arg].metadata.notify_changed(KEYS[arg])
            if model.count[arg]:
                model.pass_over({arg}, set())
        else:
            clock.advance_by(arg)
            model.advance(arg)
            assert clock.now() == model.now
        check()
        for i in range(N):
            if model.is_periodic(i):
                # Exactly once per elapsed deadline, plus its inclusion seeds.
                assert computes[i] == model.deadlines_elapsed[i] + seeds[i], (
                    i, kinds, deps)
            elif kinds[i] == TRIGGERED:
                # Exactly once per pass that changed one of its inputs.
                assert computes[i] == model.triggered_computes[i], (
                    i, kinds, deps)
    for _, subscription in live:
        subscription.cancel()
    assert system.stats()["handlers_included"] == 0
    assert clock.pending_timers() == 0

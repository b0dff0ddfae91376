"""Sharded metadata graph: placement, cross-shard waves, accounting.

Shards (Section 3.2.3 at scale) partition the registries across per-shard
graph locks; one propagation engine orders every wave.  These tests pin
the contracts:

* **placement** — deterministic hash placement, overridable per system;
* **cross-shard waves** — a wave crossing a boundary is one wave on the one
  engine: it takes no graph lock, recomputes each member once, carries
  poison within the same pass (``planned == refreshes + skipped_poisoned``)
  and writes one wave summary per drain pass;
* **edge table / introspection** — boundary edges are observable while
  subscribed and gone after cancel; ``describe_system`` grows a ``shards``
  section;
* **atomic cross-shard subscribe_many** — a failing include on shard B rolls
  back the batch's provisional handlers *and* inter-shard edge-table entries
  on shard A, leaving both shards exactly as before;
* **one shard** — the default system is the unpartitioned runtime: one lock
  named ``"graph"``.
"""

from __future__ import annotations

import re
import threading
import zlib

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import HandlerError
from repro.common.racecheck import RaceCheck
from repro.metadata.introspect import describe_system
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.propagation import PropagationEngine
from repro.metadata.registry import MetadataRegistry, MetadataSystem, default_placement
from repro.metadata.scheduling import VirtualTimeScheduler
from repro.telemetry.hub import explain_refresh

SRC = MetadataKey("src")
DERIVED = MetadataKey("derived")
ROLLUP = MetadataKey("rollup")
GOOD = MetadataKey("good")
BAD = MetadataKey("bad")
BOOM = MetadataKey("boom")


class _Node:
    def __init__(self, index: int) -> None:
        self.name = f"node{index}"
        self.index = index
        self.metadata: MetadataRegistry | None = None

    def __repr__(self) -> str:
        return f"_Node({self.name!r})"


def _round_robin(owner, shards: int) -> int:
    return owner.index % shards


def _build(shards: int = 2, **kwargs) -> MetadataSystem:
    clock = VirtualClock()
    return MetadataSystem(
        clock, VirtualTimeScheduler(clock),
        lock_policy=FineGrainedLockPolicy(),
        shards=shards, placement=_round_robin, **kwargs)


def _attach(system: MetadataSystem, index: int) -> _Node:
    node = _Node(index)
    node.metadata = MetadataRegistry(node, system)
    return node


def _assert_conservation(system: MetadataSystem) -> dict:
    stats = system.propagation.stats()
    assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]
    assert stats["pending"] == 0
    return stats


class TestPlacement:
    def test_default_placement_is_a_stable_name_hash(self):
        # crc32 of the owner name — reproducible across processes, unlike
        # the salted builtin hash().
        assert default_placement("alpha", 4) == zlib.crc32(b"alpha") % 4
        node = _Node(7)
        assert default_placement(node, 4) == zlib.crc32(b"node7") % 4
        assert default_placement(node, 4) == default_placement(node, 4)

    def test_registry_lands_on_its_placement_shard(self):
        system = _build(shards=2)
        nodes = [_attach(system, i) for i in range(4)]
        for node in nodes:
            assert node.metadata.shard_index == node.index % 2
            assert system.shard_of(node) == node.index % 2

    def test_single_shard_system_places_everything_on_shard_zero(self):
        clock = VirtualClock()
        system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                                lock_policy=FineGrainedLockPolicy())
        node = _attach(system, 3)
        assert node.metadata.shard_index == 0
        assert system.shard_count == 1
        # The one-shard identity: the unpartitioned runtime, not a
        # partitioned one of size one.
        assert isinstance(system.propagation, PropagationEngine)
        assert system.structure_lock.name == "graph"
        assert system.shard_locks == [system.structure_lock]
        node.metadata.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND, compute=lambda ctx: 1))
        node.metadata.define(MetadataDefinition(
            DERIVED, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC),
            dependencies=[SelfDep(SRC)]))
        tel = system.enable_telemetry()
        sub = node.metadata.subscribe(DERIVED)
        node.metadata.notify_changed(SRC)
        assert len(tel.bus.events(kind="wave.summary")) == 1
        assert describe_system(system)["shards"]["count"] == 1
        sub.cancel()

    def test_propagation_is_one_engine_at_any_shard_count(self):
        clock = VirtualClock()
        engine = PropagationEngine(plan_cache=False)
        system = MetadataSystem(clock, VirtualTimeScheduler(clock),
                                propagation=engine, shards=4)
        assert system.propagation is engine
        with pytest.raises(TypeError):
            MetadataSystem(clock, VirtualTimeScheduler(clock),
                           propagation=object())  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            MetadataSystem(clock, VirtualTimeScheduler(clock), shards=0)


class TestCrossShardPropagation:
    def _ring(self, system, count: int):
        """``count`` nodes; node i's DERIVED depends on node i+1's SRC —
        under round-robin placement every dependency edge crosses shards."""
        nodes = [_attach(system, i) for i in range(count)]
        states = [{"v": 0} for _ in nodes]
        for node, state in zip(nodes, states):
            node.metadata.define(MetadataDefinition(
                SRC, Mechanism.ON_DEMAND,
                compute=lambda ctx, state=state: state["v"]))
        for i, node in enumerate(nodes):
            neighbour = nodes[(i + 1) % count]
            node.metadata.define(MetadataDefinition(
                DERIVED, Mechanism.TRIGGERED,
                compute=lambda ctx: ctx.value(SRC) + 1,
                dependencies=[NodeDep(neighbour, SRC)]))
        return nodes, states

    def test_boundary_wave_is_an_enqueue_not_a_foreign_lock(self):
        system = _build(shards=2)
        nodes, states = self._ring(system, 2)
        sub = nodes[0].metadata.subscribe(DERIVED)  # reads node1's SRC
        assert sub.get() == 1  # seed: 0 + 1

        locks = [lock.stats.snapshot() for lock in system.shard_locks]
        before = system.propagation.stats()
        states[1]["v"] = 5
        nodes[1].metadata.notify_changed(SRC)
        assert sub.get() == 6

        # The wave started on shard 1 and refreshed node0's DERIVED on
        # shard 0 in the same pass, taking neither shard's graph lock.
        after = _assert_conservation(system)
        assert [lock.stats.snapshot() for lock in system.shard_locks] == locks
        assert after["waves"] - before["waves"] == 1
        assert after["drains"] - before["drains"] == 1
        assert after["refreshes"] - before["refreshes"] == 1
        sub.cancel()

    def test_poison_crosses_the_boundary_as_planned_and_skipped(self):
        system = _build(shards=2)
        node0, node1 = (_attach(system, i) for i in range(2))
        state = {"v": 1}
        fail = {"on": False}

        def src(ctx):
            if fail["on"]:
                raise RuntimeError("injected provider failure")
            return state["v"]

        node0.metadata.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND, compute=src))
        node0.metadata.define(MetadataDefinition(
            DERIVED, Mechanism.TRIGGERED, dependencies=[SelfDep(SRC)],
            compute=lambda ctx: ctx.value(SRC)))
        # node1 (shard 1) depends on node0's DERIVED (shard 0): when DERIVED
        # fails in a wave, the poison must reach across the boundary.
        node1.metadata.define(MetadataDefinition(
            ROLLUP, Mechanism.TRIGGERED,
            compute=lambda ctx: ctx.value(DERIVED) + 1,
            dependencies=[NodeDep(node0, DERIVED)]))
        sub = node1.metadata.subscribe(ROLLUP)
        assert sub.get() == 2

        fail["on"] = True
        node0.metadata.notify_changed(SRC)
        fail["on"] = False
        # One wave: DERIVED failed on shard 0, the rollup on shard 1 was
        # planned and skipped in the same pass, keeping its stale value.
        assert sub.get() == 2
        stats = _assert_conservation(system)
        assert (stats["waves"], stats["drains"]) == (1, 1)
        assert stats["errors"] == 1
        assert stats["refreshes"] == 1
        assert stats["skipped_poisoned"] == 1

        state["v"] = 3
        node0.metadata.notify_changed(SRC)
        assert sub.get() == 4  # recovers on the next healthy wave
        _assert_conservation(system)
        sub.cancel()

    def test_traced_hops_emit_events_and_metrics_with_span_continuity(self):
        system = _build(shards=2)
        tel = system.enable_telemetry()
        nodes, states = self._ring(system, 2)
        sub = nodes[0].metadata.subscribe(DERIVED)
        states[1]["v"] = 9
        nodes[1].metadata.notify_changed(SRC)
        assert sub.get() == 10

        # The boundary edge is an ordinary hop of the one wave — the ``via``
        # of the refresh it reached — under the span its enqueue allocated.
        (summary,) = tel.bus.events(kind="wave.summary")
        (refresh,) = tel.bus.events(kind="wave.refresh")
        assert (refresh.node, refresh.key) == ("node0", "derived")
        assert refresh.via == ("node1/src",)
        assert summary.source == "node1/src"
        assert refresh.span == summary.span != 0
        assert tel.metrics.counter("wave_hops_total").value == 1
        assert tel.metrics.counter("waves_total").value == 1
        sub.cancel()

    def test_explain_refresh_of_a_cross_shard_chain(self):
        """``node0/src -> node1/mid -> node2/top`` crosses both boundaries
        of a two-shard system; the top's explanation is the one wave's
        causal chain.  One record per refreshed member renders the same log
        the per-hop and framing events used to, minus a ``drainer acquired
        (queue depth 1)`` line."""
        system = _build(shards=2)
        nodes = [_attach(system, i) for i in range(3)]
        mid, top = MetadataKey("mid"), MetadataKey("top")
        state = {"v": 1}
        nodes[0].metadata.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND, compute=lambda ctx: state["v"]))
        nodes[1].metadata.define(MetadataDefinition(
            mid, Mechanism.TRIGGERED, dependencies=[NodeDep(nodes[0], SRC)],
            compute=lambda ctx: ctx.value(SRC) + 1))
        nodes[2].metadata.define(MetadataDefinition(
            top, Mechanism.TRIGGERED, dependencies=[NodeDep(nodes[1], mid)],
            compute=lambda ctx: ctx.value(mid) + 1))
        sub = nodes[2].metadata.subscribe(top)
        tel = system.enable_telemetry()
        state["v"] = 5
        nodes[0].metadata.notify_changed(SRC)
        assert sub.get() == 7
        report = explain_refresh(tel, "node2", top)
        assert re.sub(r"\(\d+\.\dus\)", "(…us)", report) == """\
why did node2/top refresh?  (last refresh at t=0)
span 1 (7 events)
  t=0 enqueued by change of node0/src (queue depth 1)
  t=0 wave started at node0/src covering 3 handler(s)
    hop node0/src -> node1/mid
    refresh node1/mid [changed] (…us)
    hop node1/mid -> node2/top
    refresh node2/top [changed] (…us)
  wave end: 2 refreshed, 0 suppressed, 0 error(s)"""
        sub.cancel()

    def test_one_summary_per_drain_across_shards(self):
        """Every drain pass writes one wave summary under its own span,
        however many boundaries the wave crosses."""
        system = _build(shards=2)
        tel = system.enable_telemetry()
        nodes, states = self._ring(system, 2)
        subs = [node.metadata.subscribe(DERIVED) for node in nodes]
        for _ in range(10):
            states[1]["v"] += 1
            nodes[1].metadata.notify_changed(SRC)
        summaries = tel.bus.events(kind="wave.summary")
        assert len(summaries) == len({e.span for e in summaries}) == 10
        assert all(e.span != 0 and e.refreshed == 1 for e in summaries)
        assert tel.metrics.counter("waves_total").value == 10
        assert _assert_conservation(system)["drains"] == 10
        for sub in subs:
            sub.cancel()

    def test_poisoned_hop_increments_the_poison_counter(self):
        system = _build(shards=2)
        tel = system.enable_telemetry()
        node0, node1 = (_attach(system, i) for i in range(2))
        fail = {"on": False}

        def derived(ctx):
            if fail["on"]:
                raise RuntimeError("boom")
            return ctx.value(SRC)

        node0.metadata.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND, compute=lambda ctx: 1))
        node0.metadata.define(MetadataDefinition(
            DERIVED, Mechanism.TRIGGERED, dependencies=[SelfDep(SRC)],
            compute=derived))
        node1.metadata.define(MetadataDefinition(
            ROLLUP, Mechanism.TRIGGERED,
            compute=lambda ctx: ctx.value(DERIVED),
            dependencies=[NodeDep(node0, DERIVED)]))
        sub = node1.metadata.subscribe(ROLLUP)
        fail["on"] = True
        node0.metadata.notify_changed(SRC)
        fail["on"] = False
        # The failure on shard 0 and the poisoned member on shard 1 are
        # events of one wave.
        (summary,) = tel.bus.events(kind="wave.summary")
        poisoned = tel.bus.events(kind="wave.poisoned")
        assert [(e.node, e.reason) for e in poisoned] == [
            ("node0", "compute-failed"), ("node1", "poisoned-input")]
        assert all(e.span == summary.span for e in poisoned)
        assert summary.poisoned == 2
        assert tel.metrics.counter(
            "wave_poisoned_total", {"reason": "poisoned-input"}).value == 1
        _assert_conservation(system)
        sub.cancel()

    def test_edge_table_tracks_live_boundary_edges(self):
        system = _build(shards=2)
        nodes, _states = self._ring(system, 4)
        assert system.cross_shard_edges() == ()
        subs = [node.metadata.subscribe(DERIVED) for node in nodes]
        edges = system.cross_shard_edges()
        assert len(edges) == 4
        for dependency, dependent in edges:
            assert (dependency.registry.shard_index
                    != dependent.registry.shard_index)
        described = system.describe_shards()
        assert described["count"] == 2
        assert described["cross_shard_edges"] == 4
        assert sum(s["registries"] for s in described["shards"]) == 4
        for sub in subs:
            sub.cancel()
        assert system.cross_shard_edges() == ()

    def test_describe_system_grows_a_shards_section(self):
        system = _build(shards=2)
        self._ring(system, 2)
        snapshot = describe_system(system)
        assert snapshot["shards"]["count"] == 2
        assert len(snapshot["shards"]["shards"]) == 2
        # One engine, so one propagation snapshot for the whole system.
        assert snapshot["shards"]["propagation"] == system.propagation.stats()
        assert all("propagation" not in shard
                   for shard in snapshot["shards"]["shards"])

    def test_events_fired_batch_is_one_merged_wave(self):
        system = _build(shards=2)
        nodes, states = self._ring(system, 2)
        # ROLLUP on node0 reads both nodes' SRC, one per shard.
        nodes[0].metadata.define(MetadataDefinition(
            ROLLUP, Mechanism.TRIGGERED,
            compute=lambda ctx: sum(ctx.values(SRC)),
            dependencies=[SelfDep(SRC), NodeDep(nodes[1], SRC)]))
        subs = [node.metadata.subscribe(DERIVED) for node in nodes]
        subs.append(nodes[0].metadata.subscribe(ROLLUP))
        sources = [node.metadata.handler(SRC) for node in nodes]
        before = system.propagation.stats()
        for state in states:
            state["v"] += 1
        system.propagation.events_fired(sources)
        after = _assert_conservation(system)
        delta = {key: after[key] - before[key]
                 for key in ("waves", "drains", "merged_waves", "refreshes")}
        # Both sources, on two shards, travel as one wave: the shared
        # ROLLUP recomputes once beside the two DERIVED items.
        assert delta == {"waves": 2, "drains": 1, "merged_waves": 1,
                         "refreshes": 3}
        assert [sub.get() for sub in subs] == [2, 2, 2]
        for sub in subs:
            sub.cancel()

    def test_frozen_e2e_harness_surface(self):
        """Exactly what ``benchmarks/e2e/workloads.py`` (``mixed_rw``) reads of
        ``src/``.  That harness is frozen, so without this test only the e2e
        smoke test would notice a cleanup breaking it."""
        from repro.metadata.sharding import ShardedMetadataSystem

        clock = VirtualClock()
        system = ShardedMetadataSystem(
            clock, VirtualTimeScheduler(clock), FineGrainedLockPolicy(),
            shards=2, placement=_round_robin)
        assert isinstance(system, MetadataSystem)
        nodes, _states = self._ring(system, 2)
        subs = [node.metadata.subscribe(DERIVED) for node in nodes]
        nodes[1].metadata.notify_changed(SRC)
        stats = system.stats()
        for key in ("waves", "refreshes", "planned", "suppressed",
                    "skipped_poisoned", "plan_hits", "plan_misses",
                    "coalesced_sources", "merged_waves", "errors", "pending"):
            assert isinstance(stats[key], int), key
        assert (stats["remote_in"], stats["remote_out"],
                stats["remote_waves"]) == (0, 0, 0)
        shards = system.propagation.shard_stats()
        assert (sum(s["remote_out"] for s in shards)
                == sum(s["remote_in"] for s in shards))
        assert len(system.cross_shard_edges()) == 2
        for sub in subs:
            sub.cancel()


class TestSubscribeManyCrossShardRollback:
    """The batch-subscribe atomicity satellite: a failing include on shard B
    must undo shard A's provisional handlers *and* the inter-shard edge-table
    entries, leaving both shards exactly as if the call never happened."""

    def _build_pair(self):
        system = _build(shards=2)
        node0, node1 = (_attach(system, i) for i in range(2))
        state = {"v": 0}
        node1.metadata.define(MetadataDefinition(
            SRC, Mechanism.ON_DEMAND,
            compute=lambda ctx: state["v"]))
        # GOOD (shard 0) -> node1's SRC (shard 1): includes cleanly and
        # records one boundary edge.
        node0.metadata.define(MetadataDefinition(
            GOOD, Mechanism.TRIGGERED,
            compute=lambda ctx: ctx.value(SRC) + 1,
            dependencies=[NodeDep(node1, SRC)]))
        # BAD (shard 0) -> node1's BOOM (shard 1): BOOM is static and its
        # inclusion-time compute raises *on shard 1*, after GOOD's closure
        # already landed on both shards.
        node1.metadata.define(MetadataDefinition(
            BOOM, Mechanism.STATIC,
            compute=lambda ctx: (_ for _ in ()).throw(
                RuntimeError("inclusion failure on shard B"))))
        node0.metadata.define(MetadataDefinition(
            BAD, Mechanism.TRIGGERED,
            compute=lambda ctx: ctx.value(BOOM),
            dependencies=[NodeDep(node1, BOOM)]))
        return system, node0, node1, state

    def test_failing_include_on_shard_b_rolls_back_shard_a(self):
        system, node0, node1, state = self._build_pair()
        with pytest.raises(HandlerError):
            node0.metadata.subscribe_many([GOOD, BAD])

        # Both shards' topology is exactly as before the call: no boundary
        # edges, no handlers, and the create/remove ledger balances.
        assert system.cross_shard_edges() == ()
        assert list(node0.metadata.included_keys()) == []
        assert list(node1.metadata.included_keys()) == []
        stats = system.stats()
        assert stats["handlers_created"] == stats["handlers_removed"]
        assert stats["handlers_included"] == 0
        for shard in system.describe_shards()["shards"]:
            assert shard["handlers"] == 0

    def test_behavior_after_rollback_matches_a_fresh_system(self):
        def run(poke_rollback: bool):
            system, node0, node1, state = self._build_pair()
            if poke_rollback:
                with pytest.raises(HandlerError):
                    node0.metadata.subscribe_many([GOOD, BAD])
            (sub,) = node0.metadata.subscribe_many([GOOD])
            state["v"] = 7
            node1.metadata.notify_changed(SRC)
            value = sub.get()
            edges = len(system.cross_shard_edges())
            stats = _assert_conservation(system)
            sub.cancel()
            return value, edges, stats["waves"], stats["refreshes"]

        assert run(poke_rollback=True) == run(poke_rollback=False)


@pytest.mark.stress
class TestCrossShardStorm:
    """Threaded storm over a boundary-heavy ring: notify storms race
    subscription churn whose closures cross shards.  The accounting laws
    must hold exactly at quiescence."""

    def test_storm_preserves_accounting_laws(self):
        system = _build(shards=4)
        nodes = [_attach(system, i) for i in range(4)]
        states = [{"v": 0} for _ in nodes]
        locks = [threading.Lock() for _ in nodes]
        for node, state, lock in zip(nodes, states, locks):
            def src(ctx, state=state, lock=lock):
                with lock:
                    return state["v"]
            node.metadata.define(MetadataDefinition(
                SRC, Mechanism.ON_DEMAND, compute=src))
        for i, node in enumerate(nodes):
            neighbour = nodes[(i + 1) % len(nodes)]
            node.metadata.define(MetadataDefinition(
                DERIVED, Mechanism.TRIGGERED,
                compute=lambda ctx: ctx.value(SRC) + 1,
                dependencies=[NodeDep(neighbour, SRC)]))
        anchors = [nodes[i].metadata.subscribe(DERIVED) for i in (0, 1)]

        def notify(worker, i):
            node = nodes[(worker + i) % len(nodes)]
            state, lock = states[node.index], locks[node.index]
            with lock:
                state["v"] += 1
            node.metadata.notify_changed(SRC)

        def churn(worker, i):
            sub = nodes[2 + worker % 2].metadata.subscribe(DERIVED)
            try:
                sub.get()
            finally:
                sub.cancel()

        check = RaceCheck(iterations=150, timeout=60.0,
                          name="cross-shard-storm")
        check.add(notify, threads=2)
        check.add(churn, threads=2)
        check.run()

        for anchor in anchors:
            anchor.cancel()
        stats = _assert_conservation(system)
        # The anchors keep nodes 1 and 2's SRC included, so at least the
        # half of the notifies aimed at them ran, crossing boundaries.
        assert stats["waves"] >= 150
        assert stats["refreshes"] > 0
        assert system.included_handler_count == 0
        assert system.cross_shard_edges() == ()

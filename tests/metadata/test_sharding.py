"""Sharded metadata graph: placement, cross-shard propagation, accounting.

The sharded runtime (ISSUE 10, Section 3.2.3 at scale) partitions registries
across per-shard lock hierarchies and propagation engines.  These tests pin
its contracts:

* **placement** — deterministic hash placement, overridable per system;
* **cross-shard waves** — a boundary crossing is an *enqueue* into the
  destination engine (``remote_in == remote_out``), never a foreign lock
  acquisition, and the conservation law ``planned == refreshes +
  skipped_poisoned`` holds per shard and globally — poison crossings
  included;
* **edge table / introspection** — boundary edges are observable while
  subscribed and gone after cancel; ``describe_system`` grows a ``shards``
  section;
* **atomic cross-shard subscribe_many** — a failing include on shard B rolls
  back the batch's provisional handlers *and* inter-shard edge-table entries
  on shard A, leaving both shards exactly as before;
* **env factory** — ``system_from_env`` honours ``REPRO_SHARDS`` (the CI
  shard-matrix hook).
"""

from __future__ import annotations

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
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler
from repro.metadata.sharding import (
    ShardedMetadataSystem,
    ShardedPropagationBackend,
    default_placement,
    system_from_env,
)

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


def _build(shards: int = 2, **kwargs) -> ShardedMetadataSystem:
    clock = VirtualClock()
    return ShardedMetadataSystem(
        clock, VirtualTimeScheduler(clock),
        lock_policy=FineGrainedLockPolicy(),
        shards=shards, placement=_round_robin, **kwargs)


def _attach(system: MetadataSystem, index: int) -> _Node:
    node = _Node(index)
    node.metadata = MetadataRegistry(node, system)
    return node


def _assert_conservation(system: ShardedMetadataSystem) -> dict:
    backend = system.propagation
    assert isinstance(backend, ShardedPropagationBackend)
    for shard in backend.shard_stats():
        assert shard["planned"] == (shard["refreshes"]
                                    + shard["skipped_poisoned"])
    stats = backend.stats()
    assert stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"]
    assert stats["remote_in"] == stats["remote_out"]
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
        system = MetadataSystem(clock, VirtualTimeScheduler(clock))
        node = _attach(system, 3)
        assert node.metadata.shard_index == 0
        assert system.shard_count == 1


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

        states[1]["v"] = 5
        nodes[1].metadata.notify_changed(SRC)
        assert sub.get() == 6

        backend = system.propagation
        per_shard = backend.shard_stats()
        # The wave ran on node1's shard (shard 1) and *routed* the boundary
        # edge: one remote_out there, one remote_in + continuation wave on
        # node0's shard — no wave_count bump for the remote pass.
        assert per_shard[1]["waves"] == 1
        assert per_shard[1]["remote_out"] == 1
        assert per_shard[0]["remote_in"] == 1
        assert per_shard[0]["remote_waves"] == 1
        assert per_shard[0]["refreshes"] >= 1
        stats = _assert_conservation(system)
        assert stats["remote_in"] == 1
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
        # fails in a wave, the poison must route across the boundary.
        node1.metadata.define(MetadataDefinition(
            ROLLUP, Mechanism.TRIGGERED,
            compute=lambda ctx: ctx.value(DERIVED) + 1,
            dependencies=[NodeDep(node0, DERIVED)]))
        sub = node1.metadata.subscribe(ROLLUP)
        assert sub.get() == 2

        fail["on"] = True
        node0.metadata.notify_changed(SRC)
        fail["on"] = False
        # The rollup was planned on shard 1 and skipped: stale value kept.
        assert sub.get() == 2
        per_shard = system.propagation.shard_stats()
        assert per_shard[0]["errors"] == 1
        assert per_shard[1]["skipped_poisoned"] == 1
        assert per_shard[1]["refreshes"] == 0
        _assert_conservation(system)

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

        hops = tel.bus.events(kind="wave.cross_shard")
        assert len(hops) == 1
        hop = hops[0]
        assert (hop.from_shard, hop.to_shard) == (1, 0)
        assert hop.from_node == "node1" and hop.to_node == "node0"
        assert hop.from_key == "src" and hop.to_key == "derived"
        assert not hop.poisoned
        # The hop carries the originating wave's span: the continuation wave
        # on the destination shard stays causally traceable.
        origin_wave = [e for e in tel.bus.events(kind="wave.start")
                       if e.shard == 1][-1]
        assert hop.span == origin_wave.span != 0
        assert tel.metrics.counter(
            "cross_shard_hops_total",
            {"from_shard": "1", "to_shard": "0"}).value == 1
        sub.cancel()

    def test_drain_handoffs_pair_across_a_shard_hop(self):
        """A drainer role taken by a cross-shard arrival is announced like
        one taken by a local change: at quiescence every ``wave.drain``
        acquire has its release (the remote path used to emit only the
        release, so ``drain_handoffs_total`` over-counted)."""
        system = _build(shards=2)
        tel = system.enable_telemetry()
        nodes, states = self._ring(system, 2)
        subs = [node.metadata.subscribe(DERIVED) for node in nodes]
        for _ in range(10):
            states[1]["v"] += 1
            nodes[1].metadata.notify_changed(SRC)
        handoffs = tel.bus.events(kind="wave.drain")
        acquires = [e for e in handoffs if e.acquired]
        releases = [e for e in handoffs if not e.acquired]
        # One drain per notify on the source shard, one per continuation
        # wave on the destination shard.
        assert len(acquires) == len(releases) == 20
        assert all(e.span != 0 for e in acquires)
        assert _assert_conservation(system)["remote_in"] == 10
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
        poisoned = [e for e in tel.bus.events(kind="wave.cross_shard")
                    if e.poisoned]
        assert len(poisoned) == 1
        assert tel.metrics.counter("cross_shard_poison_hops_total").value == 1
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
        clock = VirtualClock()
        plain = MetadataSystem(clock, VirtualTimeScheduler(clock))
        assert "shards" not in describe_system(plain)

    def test_events_fired_batches_stay_per_shard(self):
        system = _build(shards=2)
        nodes, states = self._ring(system, 2)
        subs = [node.metadata.subscribe(DERIVED) for node in nodes]
        registry = nodes[0].metadata
        # One batch containing both nodes' sources: the backend splits it by
        # shard, so each engine coalesces its own sub-batch into one wave.
        before = [s["waves"] for s in system.propagation.shard_stats()]
        for state in states:
            state["v"] += 1
        for node in nodes:
            node.metadata.notify_changed_many([SRC])
        after = [s["waves"] for s in system.propagation.shard_stats()]
        assert [a - b for a, b in zip(after, before)] == [1, 1]
        assert registry is nodes[0].metadata
        _assert_conservation(system)
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
            backend_stats = _assert_conservation(system)
            sub.cancel()
            return value, edges, backend_stats["remote_in"]

        assert run(poke_rollback=True) == run(poke_rollback=False)


class TestSystemFromEnv:
    def _make(self, env):
        clock = VirtualClock()
        return system_from_env(clock, VirtualTimeScheduler(clock),
                               lock_policy=FineGrainedLockPolicy(), env=env)

    def test_unset_or_one_gives_the_plain_system(self):
        for env in ({}, {"REPRO_SHARDS": ""}, {"REPRO_SHARDS": "1"},
                    {"REPRO_SHARDS": " 1 "}):
            system = self._make(env)
            assert type(system) is MetadataSystem
            assert system.shard_count == 1

    def test_n_greater_than_one_gives_the_sharded_system(self):
        system = self._make({"REPRO_SHARDS": "4"})
        assert isinstance(system, ShardedMetadataSystem)
        assert system.shard_count == 4
        assert len(system.shard_locks) == 4

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            self._make({"REPRO_SHARDS": "many"})
        with pytest.raises(ValueError):
            self._make({"REPRO_SHARDS": "0"})

    def test_mismatched_backend_raises(self):
        from repro.metadata.propagation import PropagationEngine
        clock = VirtualClock()
        with pytest.raises(TypeError):
            system_from_env(clock, VirtualTimeScheduler(clock),
                            propagation=PropagationEngine(),
                            env={"REPRO_SHARDS": "4"})
        with pytest.raises(TypeError):
            ShardedMetadataSystem(clock, VirtualTimeScheduler(clock),
                                  propagation=PropagationEngine())  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            ShardedMetadataSystem(clock, VirtualTimeScheduler(clock),
                                  propagation=ShardedPropagationBackend(2),
                                  shards=4)


@pytest.mark.stress
class TestCrossShardStorm:
    """Threaded storm over a boundary-heavy ring: notify storms race
    subscription churn whose closures cross shards.  The conservation and
    boundary laws must hold exactly at quiescence."""

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
        assert stats["remote_in"] > 0  # the storm really crossed boundaries
        assert system.included_handler_count == 0
        assert system.cross_shard_edges() == ()

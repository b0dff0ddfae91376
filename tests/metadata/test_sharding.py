"""The frozen ``repro.metadata.sharding`` shim.

``benchmarks/e2e/workloads.py`` (``mixed_rw``) is frozen and builds its
system through ``ShardedMetadataSystem``; this pins exactly what it reads of
``src/``, so a cleanup that breaks it fails here and not only in the e2e
smoke test.
"""

from __future__ import annotations

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, NodeDep
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler

SRC = MetadataKey("src")
DERIVED = MetadataKey("derived")


class _Node:
    def __init__(self, index: int) -> None:
        self.name = f"node{index}"
        self.index = index
        self.metadata: MetadataRegistry | None = None


class TestFrozenShim:
    def test_frozen_e2e_harness_surface(self):
        from repro.metadata.sharding import ShardedMetadataSystem

        clock = VirtualClock()
        system = ShardedMetadataSystem(
            clock, VirtualTimeScheduler(clock), FineGrainedLockPolicy(),
            shards=2, placement=lambda owner, shards: owner.index % shards)
        assert isinstance(system, MetadataSystem)
        nodes = [_Node(i) for i in range(2)]
        for node in nodes:
            node.metadata = MetadataRegistry(node, system)
            node.metadata.define(MetadataDefinition(
                SRC, Mechanism.ON_DEMAND, compute=lambda ctx: 0))
        for i, node in enumerate(nodes):
            node.metadata.define(MetadataDefinition(
                DERIVED, Mechanism.TRIGGERED, compute=lambda ctx: ctx.value(SRC) + 1,
                dependencies=[NodeDep(nodes[1 - i], SRC)]))
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
        assert system.cross_shard_edges() == ()
        for sub in subs:
            sub.cancel()

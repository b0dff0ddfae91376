"""Frozen alias for the end-to-end benchmark harness.

``benchmarks/e2e/workloads.py`` (``mixed_rw``) builds
``ShardedMetadataSystem(..., shards=2, placement=...)`` and reads
``cross_shard_edges()``.  The system has one graph lock, so the two
arguments are accepted and discarded and there are no boundary edges.  The
ROADMAP "One benchmark contract" item deletes this module, together with
``PropagationEngine.shard_stats()`` and the always-0 ``remote_*`` stats keys.
"""

from __future__ import annotations

from typing import Any

from repro.metadata.registry import MetadataSystem


class ShardedMetadataSystem(MetadataSystem):
    """:class:`MetadataSystem` that accepts ``shards`` and ``placement``."""

    def __init__(self, clock: Any, scheduler: Any, lock_policy: Any = None,
                 propagation: Any = None, shards: int = 1,
                 placement: Any = None) -> None:
        super().__init__(clock, scheduler, lock_policy, propagation)

    def cross_shard_edges(self) -> tuple[()]:
        return ()

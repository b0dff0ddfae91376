"""Alias of :class:`~repro.metadata.registry.MetadataSystem`.

Sharding is a constructor argument: ``MetadataSystem(..., shards=N,
placement=...)`` in :mod:`repro.metadata.registry` partitions the graph
locks; one :class:`~repro.metadata.propagation.PropagationEngine` orders
every wave.
"""

from repro.metadata.registry import MetadataSystem

# The frozen end-to-end benchmark (benchmarks/e2e/workloads.py) imports this
# name; nothing else should.
ShardedMetadataSystem = MetadataSystem

"""Dynamic metadata management — the paper's core contribution.

The package implements the publish-subscribe architecture of Section 2, the
update mechanisms of Section 3 and the implementation-level facilities of
Section 4 (locking, periodic worker pools, probes, modules, inheritance,
dynamic dependencies).
"""

from repro.metadata import catalogue, introspect
from repro.metadata.handler import (
    MetadataHandler,
    OnDemandHandler,
    PeriodicHandler,
    StaticHandler,
    TriggeredHandler,
)
from repro.metadata.item import (
    ComputeContext,
    DownstreamDep,
    Mechanism,
    MetadataClass,
    MetadataDefinition,
    MetadataKey,
    ModuleDep,
    NodeDep,
    SelfDep,
    UpstreamDep,
)
from repro.metadata.locks import (
    CoarseLockPolicy,
    FineGrainedLockPolicy,
    LockPolicy,
    NoOpLockPolicy,
)
from repro.metadata.monitor import CostProbe, CounterProbe, GaugeProbe, Probe, RateProbe
from repro.metadata.propagation import PropagationEngine, ShardedPropagationBackend
from repro.metadata.registry import MetadataRegistry, MetadataSubscription, MetadataSystem
from repro.metadata.scheduling import (
    PeriodicScheduler,
    PeriodicTask,
    ThreadedScheduler,
    VirtualTimeScheduler,
)

__all__ = [
    "catalogue",
    "introspect",
    "MetadataKey",
    "MetadataDefinition",
    "Mechanism",
    "MetadataClass",
    "ComputeContext",
    "SelfDep",
    "UpstreamDep",
    "DownstreamDep",
    "NodeDep",
    "ModuleDep",
    "MetadataHandler",
    "StaticHandler",
    "OnDemandHandler",
    "PeriodicHandler",
    "TriggeredHandler",
    "MetadataSystem",
    "MetadataRegistry",
    "MetadataSubscription",
    "PropagationEngine",
    "ShardedPropagationBackend",
    "PeriodicScheduler",
    "PeriodicTask",
    "VirtualTimeScheduler",
    "ThreadedScheduler",
    "LockPolicy",
    "FineGrainedLockPolicy",
    "CoarseLockPolicy",
    "NoOpLockPolicy",
    "Probe",
    "CounterProbe",
    "GaugeProbe",
    "RateProbe",
    "CostProbe",
]

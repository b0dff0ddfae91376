"""Shared substrate: clocks, locks, online statistics, errors."""

from repro.common.clock import Clock, SystemClock, Timer, VirtualClock
from repro.common.errors import (
    CostModelError,
    DependencyCycleError,
    DuplicateMetadataError,
    GraphError,
    HandlerError,
    LockUpgradeError,
    MetadataError,
    MetadataNotIncludedError,
    QueueClosedError,
    ReproError,
    SchemaError,
    SimulationError,
    SubscriptionError,
    UnknownMetadataError,
    WiringError,
)
from repro.common.racecheck import (
    RaceCheck,
    RaceCheckError,
    RaceCheckTimeout,
    WorkerReport,
)
from repro.common.rwlock import LockStats, ReentrantRWLock
from repro.common.stats import (
    OnlineMean,
    OnlineVariance,
    WindowedCounter,
)

__all__ = [
    "Clock",
    "SystemClock",
    "Timer",
    "VirtualClock",
    "LockStats",
    "ReentrantRWLock",
    "RaceCheck",
    "RaceCheckError",
    "RaceCheckTimeout",
    "WorkerReport",
    "OnlineMean",
    "OnlineVariance",
    "WindowedCounter",
    "ReproError",
    "GraphError",
    "WiringError",
    "SchemaError",
    "QueueClosedError",
    "MetadataError",
    "UnknownMetadataError",
    "MetadataNotIncludedError",
    "DuplicateMetadataError",
    "DependencyCycleError",
    "SubscriptionError",
    "HandlerError",
    "LockUpgradeError",
    "SimulationError",
    "CostModelError",
]

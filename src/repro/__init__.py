"""repro — dynamic metadata management for scalable stream processing.

A from-scratch reproduction of

    Michael Cammert, Jürgen Krämer, Bernhard Seeger:
    "Dynamic Metadata Management for Scalable Stream Processing Systems",
    ICDE 2007,

including the PIPES-style stream-processing substrate the paper's framework
lives in.  The public API re-exported here covers:

* building query graphs (:class:`QueryGraph`, sources, operators, sinks),
* subscribing to metadata (``node.metadata.subscribe(key)`` with the keys in
  :mod:`repro.metadata.catalogue`),
* running plans deterministically (:class:`SimulationExecutor`) or with real
  threads (:class:`ThreadedExecutor`), and
* the adaptation consumers (profiler, resource manager, load shedder,
  plan-migration advisor).

Quickstart::

    from repro import (QueryGraph, Source, Sink, Schema, TimeWindow,
                       SlidingWindowJoin, SimulationExecutor, StreamDriver,
                       ConstantRate, catalogue as md)

    graph = QueryGraph()
    left = graph.add(Source("left", Schema(("k",))))
    right = graph.add(Source("right", Schema(("k",))))
    wl, wr = graph.add(TimeWindow("wl", 100.0)), graph.add(TimeWindow("wr", 100.0))
    join = graph.add(SlidingWindowJoin("join", key_fn=lambda e: e.field("k")))
    out = graph.add(Sink("out"))
    for a, b in [(left, wl), (right, wr), (wl, join), (wr, join), (join, out)]:
        graph.connect(a, b)
    graph.freeze()

    cpu = join.metadata.subscribe(md.EST_CPU_USAGE)   # includes the whole
    ...                                               # Figure-3 cascade
"""

import importlib
from typing import Any

#: Where each re-exported name lives.  Names resolve on first access
#: (PEP 562), so importing one submodule does not load the others.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.adaptation": ("AdaptiveResourceManager", "LoadShedder", "MetadataProfiler",
                         "PlanMigrationAdvisor", "QoSMonitor", "Shedder"),
    "repro.common": ("Clock", "ReentrantRWLock", "ReproError", "SystemClock",
                     "VirtualClock"),
    "repro.costmodel": ("estimated_vs_measured", "install_estimates"),
    "repro.graph": ("GraphNode", "QueryBuilder", "Operator", "QueryGraph", "Schema",
                    "Sink", "Source", "StreamElement", "StreamQueue"),
    "repro.metadata": ("CoarseLockPolicy", "FineGrainedLockPolicy", "Mechanism",
                       "MetadataDefinition", "MetadataKey", "MetadataRegistry",
                       "MetadataSubscription", "MetadataSystem", "NoOpLockPolicy",
                       "ThreadedScheduler", "VirtualTimeScheduler", "catalogue"),
    "repro.metadata.item": ("DownstreamDep", "ModuleDep", "NodeDep", "SelfDep",
                            "UpstreamDep"),
    "repro.operators": ("CountWindow", "DistinctFilter", "Filter", "HashSweepArea",
                        "ListSweepArea", "Map", "Project", "SlidingAggregate",
                        "SlidingWindowJoin", "TimeWindow", "Union"),
    "repro.runtime": ("ChainScheduler", "PriorityScheduler", "RoundRobinScheduler",
                      "SimulationExecutor", "ThreadedExecutor"),
    "repro.telemetry": ("Telemetry", "explain_refresh", "render_dashboard"),
    "repro.sources": ("BurstyArrivals", "ConstantRate", "DriftingRate", "NormalValues",
                      "PoissonArrivals", "SequentialValues", "StreamDriver", "Trace",
                      "TraceReplayDriver", "UniformValues", "ZipfValues", "record_trace"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> Any:
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})


__version__ = "1.0.0"

__all__ = ["__version__", *_ORIGIN]

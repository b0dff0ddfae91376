"""The four end-to-end workloads.

Each workload is a class with the same life cycle, driven by ``run.py`` in a
fresh interpreter:

``__init__``  generate every input from one seeded ``random.Random`` — the
              system under test only ever receives generated inputs, and no
              code in ``src/`` learns a workload's name;
``setup``     build, freeze, initial subscriptions, fixed warm-up — this is
              what ``setup_s`` times;
``run``       the timed phase(s); oracle checks run between timed segments,
              outside the clock;
``finish``    oracle at quiescence, teardown invariants, metric assembly.

All four are **closed loops** (a client issues its next call when the
previous one returned) or virtual-time runs — never more generator threads
than the reference box has cores (2).  Work is a fixed, seeded operation
count derived from ``--seconds`` so program counters repeat exactly from run
to run; only ``mixed_rw`` runs for a fixed duration.

Size constants live here, at the top.  They are sized so the timed phases
last about ``--seconds`` on the 2-core reference box; scale them uniformly,
never drop a workload.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from random import Random
from typing import Any, Callable

from repro.common.clock import SystemClock, VirtualClock
from repro.common.rwlock import LockStats
from repro.costmodel import estimated_vs_measured, install_estimates
from repro.costmodel import model as costmodel
from repro.graph import QueryGraph, Schema, Sink, Source
from repro.metadata import catalogue as md
from repro.metadata.item import (
    Mechanism,
    MetadataDefinition,
    MetadataKey,
    NodeDep,
    SelfDep,
)
from repro.metadata.locks import FineGrainedLockPolicy
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import ThreadedScheduler
from repro.metadata.sharding import ShardedMetadataSystem
from repro.operators import SlidingWindowJoin, TimeWindow
from repro.reliability import FailurePolicy
from repro.runtime import SimulationExecutor
from repro.sources import ConstantRate, StreamDriver, UniformValues
from repro.telemetry.sinks import JsonlFileSink

from metrics import summarize
from trace import Tracer

__all__ = ["WORKLOAD_CLASSES", "Workload"]

# -- size constants: work per second of ``--seconds`` budget -------------------

#: Virtual time units of each monitored pipeline phase per budget second
#: (the unmonitored phase runs three times as far).
PIPELINE_HORIZON_PER_S = 60.0
#: Churn operations per budget second.
CHURN_OPS_PER_S = 7500
#: Wave-storm events per budget second.
WAVE_EVENTS_PER_S = 6800

# -- shared plan shape ---------------------------------------------------------

WINDOW = 50.0          # initial TimeWindow size
KEY_RANGE = 50         # join keys are uniform in [0, KEY_RANGE)
ARRIVAL_RATE = 1.0     # elements per virtual time unit and source
ELEMENT_SIZE = 32
WINDOW_SIZES = (30.0, 40.0, 50.0, 60.0, 70.0)   # what set_size chooses from


def _join_key(element: Any) -> Any:
    return element.field("k")


class _Query:
    """One ``Source x2 -> TimeWindow x2 -> SlidingWindowJoin(hash) -> Sink``."""

    def __init__(self, graph: QueryGraph, index: int, on_result: Callable | None) -> None:
        name = f"q{index}"
        schema = Schema(("k",), element_size=ELEMENT_SIZE)
        self.left = graph.add(Source(f"{name}.l", schema))
        self.right = graph.add(Source(f"{name}.r", schema))
        self.wl = graph.add(TimeWindow(f"{name}.wl", WINDOW))
        self.wr = graph.add(TimeWindow(f"{name}.wr", WINDOW))
        self.join = graph.add(SlidingWindowJoin(f"{name}.j", impl="hash",
                                                key_fn=_join_key))
        self.sink = graph.add(Sink(f"{name}.out", callback=on_result))
        for producer, consumer in ((self.left, self.wl), (self.right, self.wr),
                                   (self.wl, self.join), (self.wr, self.join),
                                   (self.join, self.sink)):
            graph.connect(producer, consumer)

    def drivers(self, seeds: list[int]) -> list[StreamDriver]:
        return [
            StreamDriver(source, ConstantRate(ARRIVAL_RATE),
                         UniformValues("k", 0, KEY_RANGE), seed=seed)
            for source, seed in zip((self.left, self.right), seeds)
        ]


#: ``PropagationEngine.stats()`` keys published as ``propagation.*`` / ``sharding.*``.
WAVE_COUNTERS = ("waves", "refreshes", "planned", "suppressed", "skipped_poisoned",
                 "plan_hits", "plan_misses", "coalesced_sources", "merged_waves")
BOUNDARY_COUNTERS = ("remote_in", "remote_out", "remote_waves")


def median_rate(segments: list[tuple[int, float]]) -> float:
    """Median of the per-segment rates: one stalled segment (a neighbour on
    the host, a major GC) moves a mean rate but not this."""
    return statistics.median(ops / wall for ops, wall in segments) if segments else 0.0


def _driver_seeds(rng: Random, queries: int) -> list[list[int]]:
    """One numpy seed per source: two per query."""
    return [[rng.randrange(2 ** 31), rng.randrange(2 ** 31)] for _ in range(queries)]


class _Owner:
    """Owner of a bare (benchmark-defined) metadata registry."""

    def __init__(self, name: str, index: int = 0) -> None:
        self.name = name
        self.index = index
        self.metadata: MetadataRegistry | None = None


class Workload:
    """Common life cycle, failure accounting and counter plumbing."""

    name = ""

    def __init__(self, seed: int, seconds: float, tracer: Tracer | None,
                 scratch: Path) -> None:
        self.rng = Random(seed)
        self.seconds = seconds
        self.tracer = tracer
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.segments: list[tuple[int, float]] = []   # (ops, wall seconds), timed
        self.traced_wall_s = 0.0
        self.lock_stats = LockStats()

    # -- life cycle (overridden) ------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and files; ``finish`` ends with it, and a
        set-up-only run calls it directly."""

    # -- helpers ----------------------------------------------------------------

    def fail(self, message: str) -> None:
        """Count one failed operation (an exception or an oracle miss)."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def traced(self, fn: Callable, span: str) -> Callable:
        """Wrap a benchmark-owned callable in a span on traced runs."""
        return fn if self.tracer is None else self.tracer.wrap(fn, span)

    def measure_item_bytes(self, system: MetadataSystem, include: Callable[[], None]) -> None:
        """``handler.bytes_per_included_item``: tracemalloc delta of
        ``include()`` over the handlers it created (traced runs only — the
        allocator hook slows everything it sees)."""
        if self.tracer is None:
            include()
            return
        before_handlers = system.stats()["handlers_included"]
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        include()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        handlers = system.stats()["handlers_included"] - before_handlers
        if handlers > 0:
            self.metrics["handler.bytes_per_included_item"] = (after - before) / handlers

    def record_spans(self, on: bool) -> None:
        """Span recording is on exactly while the clock runs."""
        if self.tracer is not None:
            self.tracer.recording = on

    def timed_segment(self, ops: int, body: Callable[[], None]) -> None:
        """Run ``body`` on the clock as one segment of ``ops`` operations."""
        self.record_spans(True)
        start = time.perf_counter()
        body()
        wall = time.perf_counter() - start
        self.record_spans(False)
        self.segments.append((ops, wall))
        self.traced_wall_s += wall

    def put_latency(self, prefix: str, samples: list[float]) -> dict[str, float]:
        """Publish ``<prefix>_samples/_tail_us/_tail_pct/_p99_us``."""
        summary = summarize(samples)
        self.metrics[f"{prefix}_samples"] = summary["samples"]
        self.metrics[f"{prefix}_tail_us"] = summary["tail_us"]
        self.metrics[f"{prefix}_tail_pct"] = summary["tail_pct"]
        self.metrics[f"{prefix}_p99_us"] = summary["p99_us"]
        return summary

    def put_propagation(self, after: dict, before: dict | None = None) -> None:
        """Publish the wave-engine counters (delta over the timed phase) and
        check the conservation law ``planned == refreshes + skipped_poisoned``."""
        m = self.metrics
        delta = {key: after[key] - (before[key] if before else 0)
                 for key in (*WAVE_COUNTERS, *BOUNDARY_COUNTERS, "errors")}
        for key in WAVE_COUNTERS:
            m[f"propagation.{key}"] = delta[key]
        lookups = delta["plan_hits"] + delta["plan_misses"]
        m["propagation.plan_hit_ratio"] = delta["plan_hits"] / lookups if lookups else 0.0
        m["propagation.refreshes_per_wave"] = (
            delta["refreshes"] / delta["waves"] if delta["waves"] else 0.0)
        for key in BOUNDARY_COUNTERS:
            m[f"sharding.{key}"] = delta[key]
        self.check(after["planned"] == after["refreshes"] + after["skipped_poisoned"],
                   f"conservation law broken: {after}")
        self.check(after["pending"] == 0, f"waves still pending: {after}")
        self.propagation_errors = delta["errors"]

    def put_locks(self, policy: Any) -> None:
        """Add ``policy``'s lock counters to the ``locks.*`` metrics (a
        workload that rebuilds its system calls this once per system)."""
        self.lock_stats = self.lock_stats + policy.aggregate_stats()
        hottest = policy.hot_locks(1)
        stats = self.lock_stats
        acquired = stats.read_acquired + stats.write_acquired
        m = self.metrics
        m["locks.acquisitions"] = acquired
        m["locks.contended"] = stats.contended
        m["locks.contended_ratio"] = stats.contended / acquired if acquired else 0.0
        m["locks.wait_s"] = stats.wait_seconds
        if hottest:
            m["locks.hottest_wait_s"] = max(
                m.get("locks.hottest_wait_s", 0.0),
                hottest[0]["read_wait_seconds"] + hottest[0]["write_wait_seconds"])

    def put_handlers(self, system: MetadataSystem) -> None:
        """Counters of the handlers alive right now (retired ones are gone)."""
        computes = 0
        for registry in system.registries():
            for key in registry.included_keys():
                computes += registry.handler(key).compute_count
        self.metrics["handler.computes"] = computes
        self.metrics["scheduling.active_tasks"] = system.stats()["periodic_tasks"]

    def cancel_all(self, system: MetadataSystem, subscriptions: list) -> None:
        """Teardown invariant: cancelling everything leaves no handler."""
        for subscription in subscriptions:
            subscription.cancel()
        stats = system.stats()
        self.check(stats["handlers_included"] == 0
                   and stats["handlers_created"] == stats["handlers_removed"]
                   and stats["periodic_tasks"] == 0,
                   f"handlers leaked after cancel-all: {stats}")
        self.metrics["registry.handlers_created"] = stats["handlers_created"]
        self.metrics["registry.handlers_removed"] = stats["handlers_removed"]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class _Plan:
    """One build of the pipeline plan plus what its phase measured."""

    def __init__(self, workload: "Pipeline", monitored: bool, telemetry: bool) -> None:
        self.checksums = [0] * workload.QUERIES
        self.clock = VirtualClock()
        period = workload.PERIOD if monitored else 50.0
        self.graph = QueryGraph(self.clock, default_metadata_period=period)
        self.queries = [_Query(self.graph, index, self._on_result(index))
                        for index in range(workload.QUERIES)]
        self.graph.freeze()
        install_estimates(self.graph)
        self.system = self.graph.metadata_system
        self.windows = [w for q in self.queries for w in (q.wl, q.wr)]
        self.drivers = [d for q, seeds in zip(self.queries, workload.driver_seeds)
                        for d in q.drivers(seeds)]
        self.executor = SimulationExecutor(self.graph, self.drivers)
        self.resizes = iter(workload.resizes)
        self.resize_s: list[float] = []
        self.read_s: dict[Any, list[float]] = {m: [] for m in (None, *Mechanism)}
        self.subscriptions: list = []
        self.readers: list[tuple[list[Callable], list[float]]] = []
        self.telemetry = None
        self.exporter = None
        self.export_path = workload.scratch / f"pipeline-export-{os.getpid()}.jsonl"
        # The window-size schedule is an *input*: it runs in every phase so
        # monitored and unmonitored plans see identical windows and must
        # produce identical results.
        self.executor.every(workload.RESIZE_EVERY, self._resize)
        if monitored:
            workload.measure_item_bytes(self.system, self._subscribe_all)
            self.executor.every(workload.POLL_EVERY, self._poll)
        if telemetry:
            self.telemetry = self.system.enable_telemetry()
            # The drainer thread is not started: the consumer flushes the
            # exporter at every poll instead, so the same encode-and-write
            # work runs on the one thread and the phase repeats.  A
            # free-running drainer shares the GIL with the engine, which
            # made this phase swing by 20 % from run to run.
            self.exporter = self.telemetry.attach_exporter(
                JsonlFileSink(self.export_path), start=False)
        self.segment = workload.SEGMENT
        self.segments: list[tuple[int, float]] = []

    def _on_result(self, index: int) -> Callable:
        checksums = self.checksums

        def on_result(element: Any) -> None:
            payload = element.payload
            checksums[index] = (checksums[index] * 31 + payload["seq"] * 7
                                + payload["seq_r"]) & 0xFFFFFFFFFFFF

        return on_result

    def _subscribe_all(self) -> None:
        self.subscriptions = self.system.subscribe_all()
        self.readers = [
            ([s.get for s in self.subscriptions if s.handler.mechanism is mechanism],
             self.read_s[mechanism])
            for mechanism in Mechanism
        ]

    def _resize(self, now: float) -> None:
        window, size = next(self.resizes)
        clock = time.perf_counter
        start = clock()
        self.windows[window].set_size(size)
        self.resize_s.append(clock() - start)

    def _poll(self, now: float) -> None:
        """The monitoring consumer: read every subscription once.

        One latency sample per mechanism and sweep — the mean over that
        mechanism's subscriptions — because a single ``get()`` is too close
        to the timer's own cost to be timed alone.
        """
        clock = time.perf_counter
        total = 0.0
        for gets, samples in self.readers:
            start = clock()
            for get in gets:
                get()
            spent = clock() - start
            samples.append(spent / len(gets))
            total += spent
        self.read_s[None].append(total / len(self.subscriptions))
        if self.exporter is not None:
            self.exporter.flush()

    def produced(self) -> int:
        return sum(driver.produced for driver in self.drivers)

    def counters(self) -> dict[str, int]:
        """Cumulative public counters of this plan (callers take deltas)."""
        handlers = {id(s.handler): s.handler for s in self.subscriptions}
        counters = {
            "steps": self.executor.steps_executed,
            "results": sum(q.sink.received for q in self.queries),
            "periodic_refreshes": sum(h.update_count for h in handlers.values()
                                      if h.mechanism is Mechanism.PERIODIC),
        }
        if self.telemetry is not None:
            queue = self.exporter.subscription
            counters.update(emitted=self.telemetry.bus.emitted,
                            ring_dropped=self.telemetry.bus.dropped,
                            delivered=queue.delivered, dropped=queue.dropped)
        return counters

    def results(self) -> tuple[list[int], list[int]]:
        return [q.sink.received for q in self.queries], list(self.checksums)

    def run_timed(self, until: float) -> None:
        """Advance to virtual time ``until``, one timed segment at a time."""
        clock = time.perf_counter
        now = self.clock.now()
        while now < until:
            now = min(now + self.segment, until)
            before = self.produced()
            start = clock()
            self.executor.run_until(now)
            wall = clock() - start
            self.segments.append((self.produced() - before, wall))

    def clear_samples(self) -> None:
        self.resize_s.clear()
        for samples in self.read_s.values():
            samples.clear()

    @property
    def elements(self) -> int:
        return sum(ops for ops, _wall in self.segments)

    @property
    def wall_s(self) -> float:
        return sum(wall for _ops, wall in self.segments)

    @property
    def rate(self) -> float:
        return median_rate(self.segments)


class Pipeline(Workload):
    """Stream elements through a fully monitored deployment, against the
    same plan unmonitored.

    Three phases over identical inputs: **A** unmonitored (zero
    subscriptions) — the single-threaded baseline and the bypass for every
    metadata/telemetry optimisation; **B0** monitored (``subscribe_all``,
    period 5, a polling consumer, a resource-manager stand-in resizing a
    window every 25 units) with telemetry off; **B** the same with the trace
    ring and a jsonl exporter attached.  B is the headline; A/B and B0/B
    are the monitoring and telemetry overheads.
    """

    name = "pipeline"
    QUERIES = 8
    PERIOD = 5.0
    POLL_EVERY = 10.0
    RESIZE_EVERY = 25.0
    WARMUP = 60.0       # virtual time run before the clock starts (fills windows)
    SEGMENT = 50.0      # virtual time per timed segment (rates are segment medians)

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        rng = self.rng
        self.horizon = max(self.RESIZE_EVERY,
                           round(PIPELINE_HORIZON_PER_S * self.seconds))
        self.end_monitored = self.WARMUP + self.horizon
        self.end_unmonitored = self.WARMUP + 3 * self.horizon
        self.driver_seeds = _driver_seeds(rng, self.QUERIES)
        resizes = int(self.end_unmonitored / self.RESIZE_EVERY) + 1
        self.resizes = [(rng.randrange(2 * self.QUERIES), rng.choice(WINDOW_SIZES))
                        for _ in range(resizes)]

    def setup(self) -> None:
        self.plan_a = _Plan(self, monitored=False, telemetry=False)
        self.plan_b0 = _Plan(self, monitored=True, telemetry=False)
        self.plan_b = _Plan(self, monitored=True, telemetry=True)
        for plan in (self.plan_a, self.plan_b0, self.plan_b):
            plan.executor.run_until(self.WARMUP)
            plan.clear_samples()

    def run(self) -> None:
        a, b0, b = self.plan_a, self.plan_b0, self.plan_b
        gc.collect()
        a.run_timed(self.end_monitored)
        checkpoint = a.results()           # outside the clock
        a.run_timed(self.end_unmonitored)
        gc.collect()
        b0.run_timed(self.end_monitored)

        self.before = b.counters()
        self.stats_before = b.system.stats()
        gc.collect()
        self.record_spans(True)
        b.run_timed(self.end_monitored)
        self.record_spans(False)
        self.traced_wall_s = b.wall_s

        # Oracle: monitoring must not change what the queries compute.
        self.attempted = a.elements + b0.elements + b.elements
        for label, plan in (("B0", b0), ("B", b)):
            self.check(plan.results() == checkpoint,
                       f"phase {label} results differ from the unmonitored "
                       f"checkpoint: {plan.results()} != {checkpoint}")
        self.check(min(checkpoint[0]) > 0, "a sink received no results")

    def finish(self) -> None:
        a, b0, b = self.plan_a, self.plan_b0, self.plan_b
        m = self.metrics
        m["elements_per_s"] = b.rate
        m["elements_per_s_unmonitored"] = a.rate
        m["runtime.telemetry_off_elements_per_s"] = b0.rate
        m["runtime.monitoring_overhead_pct"] = 100.0 * (1.0 - b.rate / a.rate)
        m["telemetry.overhead_pct"] = 100.0 * (1.0 - b.rate / b0.rate)
        # Telemetry accounting: delivered + dropped == emitted, exactly.
        b.exporter.flush()
        after = b.counters()
        self.check(after["delivered"] + after["dropped"] == after["emitted"],
                   f"export accounting broken: {after}")
        delta = {key: after[key] - self.before[key] for key in after}
        m["sources.elements"] = b.elements
        for name, key in (("runtime.steps", "steps"),
                          ("graph.sink_results", "results"),
                          ("scheduling.periodic_refreshes", "periodic_refreshes"),
                          ("telemetry.events_emitted", "emitted"),
                          ("telemetry.ring_dropped", "ring_dropped"),
                          ("telemetry.export_delivered", "delivered"),
                          ("telemetry.export_dropped", "dropped")):
            m[name] = delta[key]
        m["scheduling.refreshes_per_element"] = delta["periodic_refreshes"] / b.elements
        m["telemetry.events_per_element"] = delta["emitted"] / b.elements
        m["telemetry.export_dropped_ratio"] = delta["dropped"] / delta["emitted"]

        m["read_p50_us"] = self.put_latency("handler.read", b.read_s[None])["p50_us"]
        for mechanism, label in ((Mechanism.ON_DEMAND, "ondemand"),
                                 (Mechanism.TRIGGERED, "triggered"),
                                 (Mechanism.PERIODIC, "periodic")):
            m[f"handler.{label}_read_p50_us"] = summarize(b.read_s[mechanism])["p50_us"]
        waves = self.put_latency("propagation.wave", b.resize_s)
        m["propagation.resize_wave_p50_us"] = waves["p50_us"]

        self.put_propagation(b.system.stats(), self.stats_before)
        self.put_handlers(b.system)
        self.put_locks(b.system.lock_policy)
        m["registry.subscribe_calls"] = len(b.system.registries())

        errors = [estimated_vs_measured(q.join, md.EST_CPU_USAGE, md.CPU_USAGE)["relative_error"]
                  for q in b.queries]
        finite = [e for e in errors if math.isfinite(e)]
        m["costmodel.estimate_error_pct"] = 100.0 * sum(finite) / len(finite) if finite else 0.0

        for plan in (b0, b):
            self.cancel_all(plan.system, plan.subscriptions)
        self.close()

    def close(self) -> None:
        b = self.plan_b
        b.system.disable_telemetry()       # closes the exporter and its sink
        exported = list(self.scratch.glob(b.export_path.name + "*"))
        self.metrics["telemetry.export_bytes"] = sum(p.stat().st_size for p in exported)
        for path in exported:
            path.unlink()


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------


class Churn(Workload):
    """Subscribe / read / cancel churn on a frozen plan with nothing flowing.

    One client walks a seeded operation list: subscribe one of six consumer
    keys on a Zipf-chosen query, read it once, and cancel seeded-random live
    subscriptions while more than 32 are live; every tenth operation is a
    four-key ``subscribe_many`` on the join.  Structural path only: the
    registry's closure walk, handler create/retire, graph->node->item lock
    writes and topology-epoch bumps.  Propagation and the stream engine do
    almost nothing.

    The list is cut into **rounds** of 10 000 operations, each on a freshly
    built plan: ``FineGrainedLockPolicy`` keeps every lock it ever handed
    out (about 2.3 KB per retired handler), so one long round grows the heap
    by 500 MB and what it then measures is the host's page-fault cost.
    """

    name = "churn"
    QUERIES = 64
    LIVE_TARGET = 32
    MANY_EVERY = 10
    ZIPF_SKEW = 1.5           # about half the single subscribes hit a live handler
    ROUND_OPS = 10_000
    ROUND_WARMUP = 500        # untimed ops at the start of each round
    #: (node role, key) a consumer may subscribe; the first four are the join's.
    CONSUMER_KEYS = (
        ("join", md.EST_CPU_USAGE), ("join", md.EST_MEMORY_USAGE),
        ("join", md.SELECTIVITY), ("join", md.AVG_SELECTIVITY),
        ("wl", md.OUTPUT_RATE), ("sink", md.LATENCY),
    )
    MANY = (0, 1, 2, 3)
    CASCADE = 0               # EST_CPU_USAGE: the Figure-3 cascade, the gated latency

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        rng = self.rng
        total = max(100, round(CHURN_OPS_PER_S * self.seconds))
        rounds = max(1, round(total / self.ROUND_OPS))
        weights = list(itertools.accumulate(
            (rank + 1) ** -self.ZIPF_SKEW for rank in range(self.QUERIES)))
        # Per round: (query, key index or MANY, indices into the live list to cancel)
        self.rounds: list[list[tuple[int, Any, tuple[int, ...]]]] = []
        for _round in range(rounds):
            count = self.ROUND_WARMUP + total // rounds
            queries = rng.choices(range(self.QUERIES), cum_weights=weights, k=count)
            ops, live = [], 0
            for index, query in enumerate(queries):
                many = index % self.MANY_EVERY == self.MANY_EVERY - 1
                keys: Any = self.MANY if many else rng.randrange(len(self.CONSUMER_KEYS))
                live += len(self.MANY) if many else 1
                cancels = []
                while live > self.LIVE_TARGET:
                    cancels.append(rng.randrange(live))
                    live -= 1
                ops.append((query, keys, tuple(cancels)))
            self.rounds.append(ops)
        self.cold_s: list[float] = []
        self.cascade_s: list[float] = []
        self.teardown_s: list[float] = []
        self.shared_s: list[float] = []
        self.many_s: list[float] = []
        self.cancel_s: list[float] = []
        self.read_s: list[float] = []
        self.cold_created = 0
        self.handlers_created = 0

    # -- one round ---------------------------------------------------------------

    def _build(self) -> None:
        """A fresh plan, warmed with the round's first operations."""
        graph = QueryGraph(VirtualClock(), lock_policy=FineGrainedLockPolicy())
        queries = [_Query(graph, index, None) for index in range(self.QUERIES)]
        graph.freeze()
        install_estimates(graph)
        self.system = graph.metadata_system
        self.targets = [
            [(getattr(query, role).metadata, key) for role, key in self.CONSUMER_KEYS]
            for query in queries
        ]
        self.live: list[tuple[int, int, Any]] = []   # (query, key index, subscription)

    def setup(self) -> None:
        self._build()
        # Oracle input: the closure each consumer key includes *in
        # isolation*, recorded before any sharing exists (node names repeat
        # from round to round, so one recording serves them all).
        self.closures = []
        for targets in self.targets:
            row = []
            for registry, key in targets:
                with registry.subscribe(key):
                    row.append(self._included())
            self.closures.append(row)
        held: list = []
        self.measure_item_bytes(self.system, lambda: held.extend(
            registry.subscribe(key) for targets in self.targets[:8]
            for registry, key in targets))
        for subscription in held:
            subscription.cancel()
        self._execute(self.rounds[0][:self.ROUND_WARMUP])

    def _included(self) -> frozenset:
        return frozenset(
            (registry.owner.name, key)
            for registry in self.system.registries()
            for key in registry.included_keys())

    def _execute(self, ops: list) -> None:
        clock = time.perf_counter
        system, live, targets = self.system, self.live, self.targets
        tracer = self.tracer
        for index, (query, keys, cancels) in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
            try:
                if keys is self.MANY:
                    registry = targets[query][0][0]
                    wanted = [targets[query][k][1] for k in keys]
                    t0 = clock()
                    subscriptions = registry.subscribe_many(wanted)
                    t1 = clock()
                    self.many_s.append(t1 - t0)
                    for key_index, subscription in zip(keys, subscriptions):
                        subscription.get()
                        live.append((query, key_index, subscription))
                else:
                    registry, key = targets[query][keys]
                    cold = not registry.is_included(key)
                    created = system.handlers_created
                    t0 = clock()
                    subscription = registry.subscribe(key)
                    t1 = clock()
                    subscription.get()
                    t2 = clock()
                    if cold:
                        self.cold_s.append(t1 - t0)
                        if keys == self.CASCADE:
                            self.cascade_s.append(t1 - t0)
                        self.cold_created += system.handlers_created - created
                    else:
                        self.shared_s.append(t1 - t0)
                    self.read_s.append(t2 - t1)
                    live.append((query, keys, subscription))
                for victim in cancels:
                    entry = live[victim]
                    live[victim] = live[-1]
                    live.pop()
                    last = entry[1] == self.CASCADE and entry[2].handler.include_count == 1
                    t0 = clock()
                    entry[2].cancel()
                    t1 = clock()
                    self.cancel_s.append(t1 - t0)
                    if last:   # this cancel excludes the whole cascade
                        self.teardown_s.append(t1 - t0)
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                self.fail(f"op {index} raised {exc!r}")

    def _oracle(self, at: int) -> None:
        expected: set = set()
        for query, key_index, _subscription in self.live:
            expected |= self.closures[query][key_index]
        included = self._included()
        self.check(included == expected,
                   f"round {at}: included set differs from the closure of "
                   f"the live subscriptions ({len(included)} vs {len(expected)})")

    def run(self) -> None:
        for samples in (self.cold_s, self.cascade_s, self.teardown_s, self.shared_s,
                        self.many_s, self.cancel_s, self.read_s):
            samples.clear()        # drop what set-up's warm-up recorded
        self.cold_created = 0
        for number, ops in enumerate(self.rounds):
            if number:             # round 0 was built and warmed by setup()
                self._build()
                self._execute(ops[:self.ROUND_WARMUP])
            gc.collect()
            timed = ops[self.ROUND_WARMUP:]
            self.timed_segment(len(timed), lambda: self._execute(timed))
            self.attempted += len(timed)
            # Outside the clock: the oracle, then tear the round down.
            self._oracle(number)
            self.put_handlers(self.system)
            self.put_propagation(self.system.stats())
            self.cancel_all(self.system, [entry[2] for entry in self.live])
            self.handlers_created += self.system.stats()["handlers_created"]
            self.put_locks(self.system.lock_policy)

    def finish(self) -> None:
        m = self.metrics
        m["churn_ops_per_s"] = median_rate(self.segments)
        singles = self.cold_s + self.shared_s
        # Cold subscribes are three populations (one handler ~28 us, two
        # ~52 us, the Figure-3 cascade ~280 us) and their pooled median sits
        # on the cliff between the first two: it flipped by 20 % between
        # identical runs.  The gated latency is the cascade's own median.
        m["subscribe_p50_us"] = self.put_latency("registry.subscribe", self.cascade_s)["p50_us"]
        m["registry.subscribe_cold_p50_us"] = summarize(self.cold_s)["p50_us"]
        # ... and for the same reason the gated cancel is the one that
        # excludes the cascade (last reference to EST_CPU_USAGE).
        m["unsubscribe_p50_us"] = self.put_latency(
            "registry.unsubscribe", self.teardown_s)["p50_us"]
        m["registry.unsubscribe_all_p50_us"] = summarize(self.cancel_s)["p50_us"]
        m["registry.subscribe_shared_p50_us"] = summarize(self.shared_s)["p50_us"]
        m["registry.subscribe_many_p50_us"] = summarize(self.many_s)["p50_us"]
        m["registry.subscribe_calls"] = len(singles) + len(self.many_s)
        m["registry.sharing_ratio"] = len(self.shared_s) / len(singles) if singles else 0.0
        m["registry.handlers_per_cold_subscribe"] = (
            self.cold_created / len(self.cold_s) if self.cold_s else 0.0)
        reads = self.put_latency("handler.read", self.read_s)
        m["handler.triggered_read_p50_us"] = reads["p50_us"]
        m["registry.handlers_created"] = m["registry.handlers_removed"] = self.handlers_created


# ---------------------------------------------------------------------------
# wave_storm
# ---------------------------------------------------------------------------

SRC = MetadataKey("bench.src")


class _Dag:
    """A benchmark-defined bare-registry DAG with a pure-function oracle.

    ``expected`` maps each subscribed key to a pure function of the source
    value(s); ``compute`` callables belong to the benchmark, so their time
    is what ``propagation.recompute_busy_s`` books.
    """

    def __init__(self, workload: Workload, system: MetadataSystem, name: str,
                 sources: int = 1) -> None:
        self.workload = workload
        self.name = name
        self.owner = _Owner(name)
        self.registry = self.owner.metadata = MetadataRegistry(self.owner, system)
        self.state = [1] * sources
        self.source_keys = [SRC.q(i) for i in range(sources)] if sources > 1 else [SRC]
        for index, key in enumerate(self.source_keys):
            self.registry.define(MetadataDefinition(
                key, Mechanism.ON_DEMAND,
                compute=lambda ctx, i=index: self.state[i]))
        self.expected: dict[MetadataKey, Callable[[list[int]], Any]] = {}
        self.subscriptions: dict[MetadataKey, Any] = {}

    def item(self, name: str, deps: list[MetadataKey], fn: Callable,
             policy: FailurePolicy | None = None) -> MetadataKey:
        """Define triggered ``name = fn(*dependency values)``."""
        key = MetadataKey(f"bench.{name}")

        def compute(ctx: Any) -> Any:
            return fn(*[ctx.value(dep) for dep in deps])

        self.registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED, dependencies=[SelfDep(dep) for dep in deps],
            compute=self.workload.traced(compute, "propagation.recompute"),
            failure_policy=policy))
        return key

    def watch(self, key: MetadataKey, oracle: Callable[[list[int]], Any]) -> None:
        self.expected[key] = oracle

    def subscribe(self) -> None:
        keys = list(self.expected)
        for key, subscription in zip(keys, self.registry.subscribe_many(keys)):
            self.subscriptions[key] = subscription

    def fire(self, value: int, source: int = 0) -> None:
        self.state[source] = value
        self.registry.notify_changed(self.source_keys[source])

    def mismatches(self, state: list[int] | None = None) -> list[str]:
        state = self.state if state is None else state
        problems = []
        for key, subscription in self.subscriptions.items():
            got, want = subscription.get(), self.expected[key](state)
            if got != want:
                problems.append(f"{self.name}/{key!r}: {got!r} != {want!r}")
        return problems


class WaveStorm(Workload):
    """Triggered-update waves on cached plans, topology stable.

    32 real queries with the Figure-3 estimates subscribed on every join,
    plus benchmark-defined DAGs (chain 16, fan-out 32, 4x4 diamond lattice,
    a cut, a coalescing batch, a policy/policy-free chain pair and a
    flapping provider).  One client fires a seeded event list: 60 %
    ``TimeWindow.set_size``, 30 % ``notify_changed`` on a synthetic source,
    10 % ``notify_changed_many`` batches of 8; every 1000th event a
    subscribe+cancel bumps the topology epoch.  Propagation and reliability
    do nearly all the work; the registry does little.
    """

    name = "wave_storm"
    QUERIES = 32
    WARMUP_HORIZON = 60.0     # virtual time with elements flowing, so rates are non-zero
    WARMUP_EVENTS = 1000
    ORACLE_EVERY = 1000
    STRUCTURAL_EVERY = 1000
    FLAP_GAP = (250, 750)     # events between flips of the flapping provider
    PROBE_INTERVAL = 0.001    # virtual time a quarantined provider rests
    POLICY = FailurePolicy(max_retries=1, jitter=0.0, probe_interval=PROBE_INTERVAL)
    BATCH = 8
    RESIZE, NOTIFY, MANY, FLAP_DOWN, FLAP_UP = range(5)
    SYNTHETIC = ("chain", "fan", "lattice", "cut", "plain", "policy", "flap")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        rng = self.rng
        count = self.WARMUP_EVENTS + max(100, round(WAVE_EVENTS_PER_S * self.seconds))
        self.events: list[tuple] = []
        next_flap = rng.randint(*self.FLAP_GAP)
        down = False
        for index in range(count):
            if index == next_flap:
                down = not down
                self.events.append((self.FLAP_DOWN if down else self.FLAP_UP,
                                    rng.randrange(1, 1 << 20)))
                next_flap += rng.randint(*self.FLAP_GAP)
                continue
            draw = rng.random()
            if draw < 0.6:
                self.events.append((self.RESIZE, rng.randrange(2 * self.QUERIES),
                                    rng.choice(WINDOW_SIZES)))
            elif draw < 0.9:
                self.events.append((self.NOTIFY, rng.randrange(len(self.SYNTHETIC)),
                                    rng.randrange(1, 1 << 20)))
            else:
                self.events.append((self.MANY, tuple(
                    rng.randrange(1, 1 << 20) for _ in range(self.BATCH))))
        self.driver_seeds = _driver_seeds(rng, self.QUERIES)
        recoveries = sum(1 for event in self.events if event[0] == self.FLAP_UP)
        # The virtual clock only moves to let a quarantined provider probe;
        # it must stay inside the current metadata period (50) so no
        # periodic refresh fires mid-storm.
        if recoveries * self.PROBE_INTERVAL >= 40.0:
            raise ValueError("too many flap recoveries for one metadata period")

    # -- build -------------------------------------------------------------------

    def setup(self) -> None:
        self.clock = VirtualClock()
        self.graph = QueryGraph(self.clock, lock_policy=FineGrainedLockPolicy())
        self.queries = [_Query(self.graph, index, None) for index in range(self.QUERIES)]
        self.graph.freeze()
        install_estimates(self.graph)
        self.system = self.graph.metadata_system
        self.windows = [w for q in self.queries for w in (q.wl, q.wr)]
        self.flap_down = False
        self._reset_counters()
        self._build_dags()
        self.measure_item_bytes(self.system, self._subscribe)
        # Elements flow during warm-up only, so estimated rates are non-zero
        # and sweep areas hold state; afterwards the plan is frozen.
        drivers = [d for q, seeds in zip(self.queries, self.driver_seeds)
                   for d in q.drivers(seeds)]
        SimulationExecutor(self.graph, drivers).run_until(self.WARMUP_HORIZON)
        for window in self.windows:
            # Re-estimate every join against its final sweep-area state.
            window.set_size(WINDOW_SIZES[0])
        self.rates = [(q.wl.metadata.get(md.EST_OUTPUT_RATE),
                       q.wr.metadata.get(md.EST_OUTPUT_RATE)) for q in self.queries]
        self.flap_good = list(self.dags["flap"].state)
        self._execute(0, self.WARMUP_EVENTS)
        self._oracle(self.WARMUP_EVENTS)
        self._reset_counters()
        self.before = self.system.stats()
        self.opens_before = self._provider_opens()

    def _provider_opens(self) -> int:
        handler = self.dags["flap"].subscriptions[self.provider].handler
        return handler.breaker.describe()["opens"]

    def _reset_counters(self) -> None:
        self.samples: dict[str, list[float]] = {
            name: [] for name in ("resize", "synthetic", "plain", "policy", "batch")}
        self.injected = 0
        self.stale_reads = 0
        self.structural = 0

    def _build_dags(self) -> None:
        system, policy = self.system, self.POLICY
        self.dags: dict[str, _Dag] = {}

        def dag(name: str, sources: int = 1) -> _Dag:
            self.dags[name] = _Dag(self, system, name, sources)
            return self.dags[name]

        def chain(d: _Dag, length: int, policy: FailurePolicy | None = None) -> MetadataKey:
            previous = SRC
            for depth in range(length):
                previous = d.item(f"c{depth}", [previous], lambda x: x + 1, policy)
            return previous

        d = dag("chain")
        tail = chain(d, 16)
        d.watch(tail, lambda s: s[0] + 16)
        self.spare = d.item("spare", [tail], lambda x: x * 2)

        d = dag("fan")
        for leaf in range(32):
            key = d.item(f"f{leaf}", [SRC], lambda x, k=leaf + 1: x * k,
                         policy if leaf % 8 == 0 else None)
            d.watch(key, lambda s, k=leaf + 1: s[0] * k)

        d = dag("lattice")
        grid: dict[tuple[int, int], MetadataKey] = {}
        for row in range(4):
            for col in range(4):
                deps = [grid[cell] for cell in ((row - 1, col), (row, col - 1))
                        if cell in grid] or [SRC]
                grid[row, col] = d.item(f"l{row}{col}", deps, lambda *xs: sum(xs))
        d.watch(grid[3, 3], lambda s: s[0] * 20)     # C(6,3) lattice paths

        d = dag("cut")
        gate = d.item("gate", [SRC], lambda x: x // 16)
        for leaf in range(8):
            key = d.item(f"g{leaf}", [gate], lambda x, k=leaf: x + k)
            d.watch(key, lambda s, k=leaf: s[0] // 16 + k)

        for name, with_policy in (("plain", None), ("policy", policy)):
            d = dag(name)
            d.watch(chain(d, 8, with_policy), lambda s: s[0] + 8)

        d = dag("flap")

        def provide(x: int) -> int:
            if self.flap_down:
                self.injected += 1
                raise RuntimeError("injected provider fault")
            return x * 3

        provider = d.item("provider", [SRC], provide, policy)
        d.watch(provider, lambda s: s[0] * 3)
        for leaf in range(4):
            key = d.item(f"d{leaf}", [provider], lambda x, k=leaf: x + k)
            d.watch(key, lambda s, k=leaf: s[0] * 3 + k)
        self.provider = provider

        d = dag("batch", sources=self.BATCH)
        parts = [d.item(f"b{i}", [key], lambda x: x + 1)
                 for i, key in enumerate(d.source_keys)]
        d.watch(d.item("total", parts, lambda *xs: sum(xs)),
                lambda s: sum(s) + len(s))

    def _subscribe(self) -> None:
        self.estimates = [
            (query, query.join.metadata.subscribe(md.EST_CPU_USAGE),
             query.join.metadata.subscribe(md.EST_MEMORY_USAGE))
            for query in self.queries
        ]
        for d in self.dags.values():
            d.subscribe()

    # -- the storm ---------------------------------------------------------------

    def _execute(self, start: int, stop: int) -> None:
        clock = time.perf_counter
        windows, samples, tracer = self.windows, self.samples, self.tracer
        dags = [self.dags[name] for name in self.SYNTHETIC]
        flap, batch = self.dags["flap"], self.dags["batch"]
        for index in range(start, stop):
            event = self.events[index]
            kind = event[0]
            if tracer is not None:
                tracer.begin_op(index)
            try:
                if kind == self.RESIZE:
                    t0 = clock()
                    windows[event[1]].set_size(event[2])
                    samples["resize"].append(clock() - t0)
                elif kind == self.NOTIFY:
                    d = dags[event[1]]
                    t0 = clock()
                    d.fire(event[2])
                    dt = clock() - t0
                    samples["synthetic"].append(dt)
                    if d.name in ("plain", "policy"):
                        samples[d.name].append(dt)
                    if d is flap and not self.flap_down:
                        self.flap_good[0] = event[2]
                elif kind == self.MANY:
                    batch.state[:] = event[1]
                    t0 = clock()
                    batch.registry.notify_changed_many(batch.source_keys)
                    samples["batch"].append(clock() - t0)
                else:
                    self.flap_down = kind == self.FLAP_DOWN
                    if not self.flap_down:
                        # Time passes: the quarantined provider may probe.
                        self.clock.advance_by(self.PROBE_INTERVAL)
                        self.flap_good[0] = event[1]
                    flap.fire(event[1])
                if index % self.STRUCTURAL_EVERY == 0:
                    self.dags["chain"].registry.subscribe(self.spare).cancel()
                    self.structural += 1
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                self.fail(f"event {index} raised {exc!r}")

    def _oracle(self, at: int) -> None:
        """Every subscribed value equals a from-scratch recompute by a pure
        function of the source states (window sizes, rates, source values)."""
        problems: list[str] = []
        for (query, cpu, memory), (r0, r1) in zip(self.estimates, self.rates):
            v0, v1 = query.wl.size, query.wr.size
            join = query.join
            want_cpu = costmodel.join_cpu_usage(
                r0, r1, v0, v1, predicate_cost=join.predicate_cost,
                base_cost=join.base_cost_per_element,
                f0=join.sweeps[0].probe_fraction(), f1=join.sweeps[1].probe_fraction())
            want_memory = costmodel.join_memory(r0, r1, v0, v1, ELEMENT_SIZE, ELEMENT_SIZE)
            if cpu.get() != want_cpu or memory.get() != want_memory:
                problems.append(f"{join.name}: cpu {cpu.get()} != {want_cpu} or "
                                f"memory {memory.get()} != {want_memory}")
        for name, d in self.dags.items():
            # While its provider is down the flap DAG serves last-good values.
            stale = name == "flap" and self.flap_down
            problems.extend(d.mismatches(self.flap_good if stale else None))
        flap = self.dags["flap"].subscriptions[self.provider]
        if flap.stale:
            self.stale_reads += 1
        self.check(flap.stale == self.flap_down,
                   f"after event {at}: provider stale={flap.stale} but down={self.flap_down}")
        stats = self.system.stats()
        self.check(stats["planned"] == stats["refreshes"] + stats["skipped_poisoned"],
                   f"after event {at}: conservation law broken: {stats}")
        for problem in problems:
            self.fail(f"after event {at}: {problem}")

    def run(self) -> None:
        gc.collect()
        position = self.WARMUP_EVENTS
        while position < len(self.events):
            stop = min(position + self.ORACLE_EVERY, len(self.events))
            self.timed_segment(stop - position,
                               lambda: self._execute(position, stop))
            self._oracle(stop)             # outside the clock
            position = stop
        self.attempted = len(self.events) - self.WARMUP_EVENTS

    def finish(self) -> None:
        m = self.metrics
        samples = self.samples
        m["waves_per_s"] = median_rate(self.segments)
        every = [s for name in ("resize", "synthetic", "batch") for s in samples[name]]
        self.put_latency("propagation.wave", every)
        m["wave_p50_us"] = summarize(samples["resize"])["p50_us"]
        m["propagation.resize_wave_p50_us"] = m["wave_p50_us"]
        m["propagation.synthetic_wave_p50_us"] = summarize(samples["synthetic"])["p50_us"]
        m["propagation.batch_wave_p50_us"] = summarize(samples["batch"])["p50_us"]
        m["reliability.policy_wave_p50_us"] = summarize(samples["policy"])["p50_us"]
        m["reliability.policyfree_wave_p50_us"] = summarize(samples["plain"])["p50_us"]
        self.put_propagation(self.system.stats(), self.before)
        m["reliability.injected_failures"] = self.injected
        # Every raise beyond the one that finally fails a wave was retried.
        m["reliability.retries"] = self.injected - self.propagation_errors
        m["reliability.quarantines"] = self._provider_opens() - self.opens_before
        m["reliability.stale_reads"] = self.stale_reads
        m["registry.subscribe_calls"] = self.structural
        self.put_handlers(self.system)
        self.put_locks(self.system.lock_policy)
        subscriptions = [s for _q, cpu, memory in self.estimates for s in (cpu, memory)]
        subscriptions += [s for d in self.dags.values() for s in d.subscriptions.values()]
        self.flap_down = False
        self.cancel_all(self.system, subscriptions)


# ---------------------------------------------------------------------------
# mixed_rw
# ---------------------------------------------------------------------------


class _TaskLog(ThreadedScheduler):
    """Worker-pool scheduler that remembers the tasks it handed out, so the
    benchmark can read their ``task_snapshot`` (fire count, lateness)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.tasks: list = []

    def register(self, handler: Any) -> Any:
        task = super().register(handler)
        self.tasks.append(task)
        return task


class MixedRW(Workload):
    """Reads beside writes, sharded, on real threads.

    ``ShardedMetadataSystem(shards=2)`` over 16 bare registries in a ring,
    placed round-robin so every ``D1 <- SRC`` and ``D2 <- D1`` edge crosses
    the shard boundary; each node also has one periodic item (20 ms, driven
    by a one-worker ``ThreadedScheduler``) and one on-demand item.  A writer
    thread fires ``notify_changed(SRC)`` (7 of 8 ops) or a subscribe+cancel
    of ``D1`` (1 of 8); a reader thread calls ``get()`` on a random ``D2`` /
    periodic / on-demand subscription.  Fixed duration.  Both threads share
    one GIL: a faster writer takes reader time, so ``reads_per_s`` and
    ``writes_per_s`` must be read together.
    """

    name = "mixed_rw"
    NODES = 16
    SHARDS = 2
    PERIOD = 0.02
    WARMUP_WRITES = 500
    ORACLE_EVERY = 1000
    OPS = 1 << 14             # length of each thread's cyclic op list
    READ_BATCH = 16           # reads per timed batch
    SWITCH_INTERVAL = 0.0005  # see run()
    D1, D2 = MetadataKey("bench.d1"), MetadataKey("bench.d2")
    PER, OND = MetadataKey("bench.periodic"), MetadataKey("bench.ondemand")

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        rng = self.rng
        # (node, value) writes; value 0 marks the structural subscribe+cancel.
        self.writes = [(rng.randrange(self.NODES),
                        0 if rng.randrange(8) == 0 else rng.randrange(1, 1 << 20))
                       for _ in range(self.OPS)]
        # (kind, subscriptions) read batches; kind 0/1/2 = D2 / periodic / on-demand.
        self.reads = [(rng.randrange(3), [rng.randrange(self.NODES)
                                          for _ in range(self.READ_BATCH)])
                      for _ in range(self.OPS // self.READ_BATCH)]

    def setup(self) -> None:
        self.scheduler = _TaskLog(SystemClock(), pool_size=1)
        self.system = ShardedMetadataSystem(
            self.scheduler.clock, self.scheduler, FineGrainedLockPolicy(),
            shards=self.SHARDS, placement=lambda owner, shards: owner.index % shards)
        self.state = [1] * self.NODES
        self.ticks = itertools.count()
        self.owners = [_Owner(f"n{i}", i) for i in range(self.NODES)]
        for owner in self.owners:
            owner.metadata = MetadataRegistry(owner, self.system)
        for index, owner in enumerate(self.owners):
            previous = self.owners[index - 1]
            define = owner.metadata.define
            define(MetadataDefinition(
                SRC, Mechanism.ON_DEMAND, compute=lambda ctx, i=index: self.state[i]))
            define(MetadataDefinition(
                self.D1, Mechanism.TRIGGERED, dependencies=[NodeDep(previous, SRC)],
                compute=self.traced(lambda ctx: ctx.value(SRC) * 2 + 1,
                                    "propagation.recompute")))
            define(MetadataDefinition(
                self.D2, Mechanism.TRIGGERED, dependencies=[NodeDep(previous, self.D1)],
                compute=self.traced(lambda ctx: ctx.value(self.D1) + 7,
                                    "propagation.recompute")))
            define(MetadataDefinition(
                self.PER, Mechanism.PERIODIC, period=self.PERIOD,
                compute=lambda ctx: next(self.ticks)))
            define(MetadataDefinition(
                self.OND, Mechanism.ON_DEMAND,
                compute=lambda ctx, i=index: self.state[i] ^ 0x5A))
        self.scheduler.start()
        self.by_kind: dict[MetadataKey, list] = {}
        self.measure_item_bytes(self.system, self._subscribe)
        self.read_s: dict[MetadataKey, list[float]] = {
            key: [] for key in (self.D2, self.PER, self.OND)}
        self.write_s: list[float] = []
        self.structural_s: list[float] = []
        self.reads_done = 0
        self.writes_done = 0
        self.write_cursor = 0
        self._write(self.WARMUP_WRITES, math.inf)
        self._oracle("warm-up")
        self.write_s.clear()
        self.structural_s.clear()
        self.writes_done = 0
        self.before = self.system.stats()

    def _subscribe(self) -> None:
        for key in (self.D2, self.PER, self.OND):
            self.by_kind[key] = [owner.metadata.subscribe(key) for owner in self.owners]

    # -- the two clients ---------------------------------------------------------

    def _write(self, limit: float, deadline: float) -> None:
        """Writer client: run until ``limit`` ops or ``deadline``."""
        clock = time.perf_counter
        owners, state, tracer = self.owners, self.state, self.tracer
        done = 0
        while done < limit:
            node, value = self.writes[self.write_cursor % self.OPS]
            self.write_cursor += 1
            if tracer is not None:
                tracer.begin_op(self.write_cursor)
            registry = owners[node].metadata
            try:
                t0 = clock()
                if value:
                    state[node] = value
                    registry.notify_changed(SRC)
                    t1 = clock()
                    self.write_s.append(t1 - t0)
                else:
                    registry.subscribe(self.D1).cancel()
                    t1 = clock()
                    self.structural_s.append(t1 - t0)
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                self.fail(f"write {self.write_cursor} raised {exc!r}")
                t1 = clock()
            done += 1
            if done % self.ORACLE_EVERY == 0:
                self._oracle(f"write {self.write_cursor}")
            if t1 >= deadline:
                break
        self.writes_done += done

    def _read(self, deadline: float) -> None:
        """Reader client: ``get()`` on seeded-random subscriptions.

        Reads are timed in batches of one kind — a lone ``get()`` is too
        close to the timer's own cost — and a sample is the batch mean.
        """
        clock = time.perf_counter
        size = self.READ_BATCH
        batches = []
        for kind, picks in self.reads:
            key = (self.D2, self.PER, self.OND)[kind]
            batches.append(([self.by_kind[key][pick].get for pick in picks],
                            self.read_s[key]))
        done = 0
        try:
            while True:
                for gets, samples in batches:
                    t0 = clock()
                    for get in gets:
                        get()
                    t1 = clock()
                    samples.append((t1 - t0) / size)
                    done += size
                    if t1 >= deadline:
                        return
        except Exception as exc:  # noqa: BLE001 - any raise is a failed op
            self.fail(f"read {done} raised {exc!r}")
        finally:
            self.reads_done = done

    def _mismatches(self) -> list[str]:
        state = self.state
        return [
            f"n{i}/d2: {sub.get()} != {2 * state[i - 2] + 8}"
            for i, sub in enumerate(self.by_kind[self.D2])
            if sub.get() != 2 * state[i - 2] + 8
        ]

    def _oracle(self, at: str) -> None:
        """``D2[i] == 2 * SRC[i-2] + 8`` once the writer's waves settled.

        Runs on the writer thread, the only mutator.  The periodic worker
        may hold an engine's drainer role when the writer fires, in which
        case the wave finishes on that thread a moment later — so a
        mismatch is only a failure if it persists.
        """
        for _attempt in range(50):
            problems = self._mismatches()
            if not problems:
                return
            time.sleep(0.002)
        for problem in problems:
            self.fail(f"at {at}: {problem}")

    def run(self) -> None:
        barrier = threading.Barrier(2)

        def client(body: Callable[[float], None]) -> Callable[[], None]:
            def main() -> None:
                barrier.wait(timeout=10.0)
                body(self.started + self.seconds)
            return main

        threads = [
            threading.Thread(target=client(lambda deadline: self._write(math.inf, deadline)),
                             name="e2e-writer"),
            threading.Thread(target=client(self._read), name="e2e-reader"),
        ]
        gc.collect()
        # Two CPU-bound clients share one GIL.  At the default 5 ms switch
        # interval the split between them is decided by a few thousand
        # hand-offs and writes_per_s swung by 12 % between identical runs;
        # at 0.5 ms it is averaged over ten times as many and repeats
        # within 2 %.  The interval is restored when the clients stop.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(self.SWITCH_INTERVAL)
        try:
            self.record_spans(True)
            self.started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=self.seconds + 60.0)
                self.check(not thread.is_alive(), f"{thread.name} did not stop")
            self.wall_s = time.perf_counter() - self.started
            self.record_spans(False)
        finally:
            sys.setswitchinterval(interval)
        self.traced_wall_s = self.wall_s
        self.attempted = self.reads_done + self.writes_done

    def finish(self) -> None:
        self._oracle("quiescence")
        m = self.metrics
        m["reads_per_s"] = self.reads_done / self.wall_s
        m["writes_per_s"] = self.writes_done / self.wall_s
        reads = [s for samples in self.read_s.values() for s in samples]
        m["read_p50_us"] = self.put_latency("handler.read", reads)["p50_us"]
        m["handler.triggered_read_p50_us"] = summarize(self.read_s[self.D2])["p50_us"]
        m["handler.periodic_read_p50_us"] = summarize(self.read_s[self.PER])["p50_us"]
        m["handler.ondemand_read_p50_us"] = summarize(self.read_s[self.OND])["p50_us"]
        waves = self.put_latency("propagation.wave", self.write_s)
        m["propagation.synthetic_wave_p50_us"] = waves["p50_us"]
        m["sharding.cross_shard_write_p50_us"] = waves["p50_us"]
        m["registry.subscribe_calls"] = len(self.structural_s)
        m["registry.subscribe_shared_p50_us"] = summarize(self.structural_s)["p50_us"]
        m["sharding.cross_shard_edges"] = len(self.system.cross_shard_edges())

        self.put_propagation(self.system.stats(), self.before)
        shards = self.system.propagation.shard_stats()
        self.check(sum(s["remote_out"] for s in shards) == sum(s["remote_in"] for s in shards),
                   f"boundary law broken: {shards}")
        snapshots = [self.scheduler.task_snapshot(task) for task in self.scheduler.tasks]
        fired = sum(s["fire_count"] for s in snapshots)
        m["scheduling.periodic_refreshes"] = fired
        m["scheduling.mean_lateness_ms"] = (
            1000.0 * sum(s["total_lateness"] for s in snapshots) / fired if fired else 0.0)
        self.check(not any(s["error_count"] for s in snapshots), "a periodic refresh raised")
        self.put_handlers(self.system)
        self.put_locks(self.system.lock_policy)
        self.cancel_all(self.system, [s for subs in self.by_kind.values() for s in subs])
        self.close()

    def close(self) -> None:
        self.scheduler.stop()


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Pipeline, Churn, WaveStorm, MixedRW)
}

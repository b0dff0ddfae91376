"""Export pipeline suite — shipping telemetry must not steal capacity.

Three phases; ``benchmarks/runner.py`` (suite ``export``) gates what they
measure:

1. **Hot-path overhead** — a 16-deep triggered chain runs with telemetry
   enabled twice: ``exporter_off`` (hub only) and ``exporter_on`` (a live
   :class:`TelemetryExporter` shipping every event to a rotating jsonl
   file under a small CPU budget).  Because pull subscriptions are
   cursors over the trace bus's existing ring, recording costs the hot
   path *nothing extra*; what this phase measures is the drainer thread's
   GIL share, which the ``cpu_budget`` pacing must keep small.  Rounds
   are interleaved and scored best-of.

2. **Bounded memory** — ≥1M events are pushed through an exporter whose
   queue is the 8192-slot ring.  ``tracemalloc`` tracks the Python
   allocation peak and the subscription's pending depth is sampled
   throughout: memory must stay O(ring + batch) — flat, no matter how many
   events flow — and the queue can never exceed its capacity.

3. **Exact drop accounting** — a deliberately slow sink forces overload at
   a tiny ring capacity; after ``close()`` the invariant
   ``delivered + dropped == emitted`` must hold exactly and the sink must
   have received exactly the delivered events.

``passed`` covers the self-checks only (equal propagation work, forced
overload, exact accounting); the numeric bounds live in the runner.
What capturing telemetry costs without an exporter is ``pipeline``'s
``telemetry.overhead_pct`` in ``benchmarks/e2e``.
"""

from __future__ import annotations

import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler
from repro.telemetry.events import WaveRefresh
from repro.telemetry.hub import Telemetry
from repro.telemetry.sinks import ExportSink, JsonlFileSink

CHAIN_DEPTH = 16
WAVES_PER_ROUND = 1500
ROUNDS = 9
EXPORT_CPU_BUDGET = 0.005
MEMORY_EVENTS = 1_000_000
MEMORY_RING = 8192
OVERLOAD_EVENTS = 20_000
OVERLOAD_RING = 256

SRC = MetadataKey("bench.src")


class _Owner:
    """Minimal registry owner (no query graph needed for pure waves)."""

    name = "bench"


def build_workload():
    """One registry, an on-demand source and a CHAIN_DEPTH triggered chain.

    Every ``notify_changed(SRC)`` starts a wave that refreshes the whole
    chain (values strictly increase, so nothing is suppressed) — the
    hottest path the instrumentation touches.
    """
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock))
    registry = MetadataRegistry(_Owner(), system)
    state = {"value": 0}
    registry.define(MetadataDefinition(
        SRC, Mechanism.ON_DEMAND, compute=lambda ctx: state["value"],
    ))
    previous = SRC
    for i in range(CHAIN_DEPTH):
        key = MetadataKey(f"bench.t{i}")
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED,
            compute=lambda ctx, dep=previous: ctx.value(dep) + 1,
            dependencies=[SelfDep(previous)],
        ))
        previous = key
    subscription = registry.subscribe(previous)
    return registry, state, subscription


def run_round(registry, state, waves: int) -> float:
    """Time ``waves`` full propagation waves; returns seconds."""
    notify = registry.notify_changed
    t0 = time.perf_counter()
    for _ in range(waves):
        state["value"] += 1
        notify(SRC)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Phase 1: hot-path overhead with a live exporter
# ---------------------------------------------------------------------------


def measure_overhead(tmp_dir: Path) -> dict:
    off = build_workload()
    off[0].system.enable_telemetry(capacity=65536)

    on = build_workload()
    telemetry_on = on[0].system.enable_telemetry(capacity=65536)
    exporter = telemetry_on.attach_exporter(
        JsonlFileSink(tmp_dir / "overhead.jsonl",
                      max_bytes=8 * 1024 * 1024, max_files=2),
        batch_size=256, flush_interval=0.1, metrics_interval=1.0,
        cpu_budget=EXPORT_CPU_BUDGET, name="bench-overhead")

    workloads = {"exporter_off": off, "exporter_on": on}
    for registry, state, _ in workloads.values():
        run_round(registry, state, 100)  # warmup
    exporter.flush()  # drain the warmup backlog before any timing

    timings: dict[str, list[float]] = {name: [] for name in workloads}
    for _ in range(ROUNDS):
        for name, (registry, state, _) in workloads.items():
            timings[name].append(run_round(registry, state, WAVES_PER_ROUND))
            if name == "exporter_on":
                # Clear the backlog off-clock so the drainer is idle while
                # the other configuration is being timed.
                exporter.flush()

    best = {name: min(rounds) for name, rounds in timings.items()}
    overhead_pct = 100.0 * (best["exporter_on"] - best["exporter_off"]) \
        / best["exporter_off"]

    stats = {name: wl[0].system.stats() for name, wl in workloads.items()}
    work_keys = ("waves", "refreshes", "suppressed", "errors")
    consistent = len({tuple(s[k] for k in work_keys)
                      for s in stats.values()}) == 1

    progress = exporter.progress[0]
    subscription = exporter.subscription
    exporter.close()
    return {
        "seconds_best": best,
        "seconds_all_rounds": timings,
        "waves_per_second_best": {
            name: WAVES_PER_ROUND / seconds for name, seconds in best.items()
        },
        "overhead_pct": overhead_pct,
        "cpu_budget": EXPORT_CPU_BUDGET,
        "work_consistent": consistent,
        "exported_events": progress.events,
        "queue_dropped": subscription.dropped,
    }


# ---------------------------------------------------------------------------
# Phase 2: O(batch) memory while exporting >= 1M events
# ---------------------------------------------------------------------------


def measure_bounded_memory(tmp_dir: Path) -> dict:
    telemetry = Telemetry(capacity=MEMORY_RING)
    exporter = telemetry.attach_exporter(
        JsonlFileSink(tmp_dir / "memory.jsonl",
                      max_bytes=16 * 1024 * 1024, max_files=2),
        batch_size=1024, flush_interval=0.002, metrics_interval=None,
        name="bench-memory")

    emit = telemetry.emit
    subscription = exporter.subscription
    peak_pending = 0
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    started = time.perf_counter()
    for i in range(MEMORY_EVENTS):
        emit(WaveRefresh(node="bench", key="memory", changed=True))
        if i % 50_000 == 0:
            peak_pending = max(peak_pending, subscription.pending())
    produce_seconds = time.perf_counter() - started
    peak_pending = max(peak_pending, subscription.pending())
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    exporter.close()
    delivered, dropped = subscription.delivered, subscription.dropped
    exact = delivered + dropped == telemetry.bus.emitted == MEMORY_EVENTS
    peak_mb = (traced_peak - baseline) / (1024 * 1024)
    return {
        "events": MEMORY_EVENTS,
        "ring_capacity": MEMORY_RING,
        "produce_seconds": produce_seconds,
        "events_per_second": MEMORY_EVENTS / produce_seconds,
        "memory_peak_mb": peak_mb,
        "queue_peak": peak_pending,
        "queue_peak_fraction": peak_pending / MEMORY_RING,
        "delivered": delivered,
        "dropped": dropped,
        "accounting_exact": exact,
    }


# ---------------------------------------------------------------------------
# Phase 3: exact drop accounting under forced overload
# ---------------------------------------------------------------------------


class SlowSink(ExportSink):
    """A sink that cannot keep up — forces ring overwrites upstream."""

    name = "slow"

    def __init__(self) -> None:
        self.events = 0

    def write_batch(self, records: list[dict]) -> None:
        self.events += len(records)
        time.sleep(0.002)


def measure_drop_exactness() -> dict:
    telemetry = Telemetry(capacity=OVERLOAD_RING)
    sink = SlowSink()
    exporter = telemetry.attach_exporter(
        sink, batch_size=64, flush_interval=0.001, metrics_interval=None,
        name="bench-overload")
    emit = telemetry.emit
    for _ in range(OVERLOAD_EVENTS):
        emit(WaveRefresh(node="bench", key="overload"))
    exporter.close()
    subscription = exporter.subscription
    delivered, dropped = subscription.delivered, subscription.dropped
    return {
        "events": OVERLOAD_EVENTS,
        "ring_capacity": OVERLOAD_RING,
        "delivered": delivered,
        "dropped": dropped,
        "sink_events": sink.events,
        "overloaded": dropped > 0,
        "accounting_exact": (
            delivered + dropped == OVERLOAD_EVENTS
            and sink.events == delivered),
    }


def measure() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_export_") as tmp:
        tmp_dir = Path(tmp)
        overhead = measure_overhead(tmp_dir)
        memory = measure_bounded_memory(tmp_dir)
    overload = measure_drop_exactness()

    passed = (
        overhead["work_consistent"]
        and memory["accounting_exact"]
        and overload["overloaded"]
        and overload["accounting_exact"]
    )
    return {
        "benchmark": "export_pipeline",
        "overhead": overhead,
        "bounded_memory": memory,
        "forced_overload": overload,
        "metrics": {
            "export_overhead_pct": overhead["overhead_pct"],
            "export_events_per_second": memory["events_per_second"],
            "export_memory_peak_mb": memory["memory_peak_mb"],
            "queue_peak_fraction": memory["queue_peak_fraction"],
            "drop_accounting_exact": float(
                memory["accounting_exact"] and overload["accounting_exact"]),
        },
        "passed": passed,
    }

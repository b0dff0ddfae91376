"""Metric declarations and the latency summary shared by all workloads.

Three tables, all plain data:

* :data:`HEADLINE` — the four end-to-end metrics ``BENCHMARK.json`` gates.
  The driver's schema wants the *same* metric names on every workload, so
  each workload's rate and latency are published under the two generic
  names ``ops_per_s`` / ``op_p50_us``; :data:`HEADLINE_SOURCE` says which
  named metric that is on each workload.
* :data:`END_TO_END` — the thirteen named end-to-end metrics of the issue
  (unit, direction, bound, workloads they exist on).  ``compare.py`` gates
  these; ``run.py`` prints them.
* :data:`PER_LAYER` — per-layer metrics (unit, direction); no bounds.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

__all__ = [
    "Metric", "HEADLINE", "HEADLINE_SOURCE", "END_TO_END", "PER_LAYER",
    "WORKLOADS", "summarize", "percentile",
]

WORKLOADS = ("pipeline", "churn", "wave_storm", "mixed_rw")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                      # "higher" | "lower"
    bound: float | None = None       # allowed worsening (share of the median)
    workloads: tuple[str, ...] = WORKLOADS


#: What ``BENCHMARK.json`` declares under ``end_to_end``.
HEADLINE: tuple[Metric, ...] = (
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Named metric behind each generic headline metric, per workload.
HEADLINE_SOURCE: dict[str, dict[str, str]] = {
    "pipeline": {"ops_per_s": "elements_per_s", "op_p50_us": "read_p50_us"},
    "churn": {"ops_per_s": "churn_ops_per_s", "op_p50_us": "subscribe_p50_us"},
    "wave_storm": {"ops_per_s": "waves_per_s", "op_p50_us": "wave_p50_us"},
    "mixed_rw": {"ops_per_s": "writes_per_s", "op_p50_us": "read_p50_us"},
}

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.10),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("failed_ops_ratio", "ratio", "lower", 0.0),
    Metric("elements_per_s", "1/s", "higher", 0.10, ("pipeline",)),
    Metric("elements_per_s_unmonitored", "1/s", "higher", 0.10, ("pipeline",)),
    Metric("subscribe_p50_us", "us", "lower", 0.10, ("churn",)),
    Metric("unsubscribe_p50_us", "us", "lower", 0.10, ("churn",)),
    Metric("churn_ops_per_s", "1/s", "higher", 0.10, ("churn",)),
    Metric("wave_p50_us", "us", "lower", 0.10, ("wave_storm",)),
    Metric("waves_per_s", "1/s", "higher", 0.10, ("wave_storm",)),
    Metric("read_p50_us", "us", "lower", 0.10, ("pipeline", "mixed_rw")),
    Metric("reads_per_s", "1/s", "higher", 0.10, ("mixed_rw",)),
    Metric("writes_per_s", "1/s", "higher", 0.10, ("mixed_rw",)),
)


def _layer(prefix: str, *rows: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{name}", unit, better)
                 for name, unit, better in rows)


PER_LAYER: tuple[Metric, ...] = (
    # sources / operators / graph / runtime — the stream engine
    *_layer("sources", ("elements", "count", "higher"),
            ("produce_busy_s", "s", "lower")),
    *_layer("runtime", ("steps", "count", "higher"),
            ("run_until_self_s", "s", "lower"),
            ("monitoring_overhead_pct", "%", "lower"),
            ("telemetry_off_elements_per_s", "1/s", "higher")),
    *_layer("operators", ("step_busy_s", "s", "lower"),
            ("join_step_busy_s", "s", "lower")),
    *_layer("graph", ("sink_results", "count", "higher")),
    # metadata.registry
    *_layer("registry", ("subscribe_calls", "count", "higher"),
            ("subscribe_busy_s", "s", "lower"),
            ("unsubscribe_busy_s", "s", "lower"),
            ("subscribe_samples", "count", "higher"),
            ("subscribe_tail_us", "us", "lower"),
            ("subscribe_tail_pct", "%", "higher"),
            ("subscribe_p99_us", "us", "lower"),
            ("subscribe_cold_p50_us", "us", "lower"),
            ("subscribe_shared_p50_us", "us", "lower"),
            ("subscribe_many_p50_us", "us", "lower"),
            ("unsubscribe_all_p50_us", "us", "lower"),
            ("unsubscribe_samples", "count", "higher"),
            ("unsubscribe_tail_us", "us", "lower"),
            ("unsubscribe_tail_pct", "%", "higher"),
            ("unsubscribe_p99_us", "us", "lower"),
            ("handlers_created", "count", "lower"),
            ("handlers_removed", "count", "lower"),
            ("sharing_ratio", "ratio", "higher"),
            ("handlers_per_cold_subscribe", "count", "lower")),
    # metadata.handler
    *_layer("handler", ("computes", "count", "lower"),
            ("get_busy_s", "s", "lower"),
            ("read_samples", "count", "higher"),
            ("read_tail_us", "us", "lower"),
            ("read_tail_pct", "%", "higher"),
            ("read_p99_us", "us", "lower"),
            ("ondemand_read_p50_us", "us", "lower"),
            ("triggered_read_p50_us", "us", "lower"),
            ("periodic_read_p50_us", "us", "lower"),
            ("bytes_per_included_item", "B", "lower")),
    # metadata.propagation
    *_layer("propagation", ("waves", "count", "lower"),
            ("refreshes", "count", "lower"),
            ("planned", "count", "lower"),
            ("suppressed", "count", "higher"),
            ("skipped_poisoned", "count", "lower"),
            ("plan_hits", "count", "higher"),
            ("plan_misses", "count", "lower"),
            ("plan_hit_ratio", "ratio", "higher"),
            ("coalesced_sources", "count", "higher"),
            ("merged_waves", "count", "higher"),
            ("refreshes_per_wave", "count", "lower"),
            ("notify_busy_s", "s", "lower"),
            ("recompute_busy_s", "s", "lower"),
            ("engine_self_s", "s", "lower"),
            ("wave_samples", "count", "higher"),
            ("wave_tail_us", "us", "lower"),
            ("wave_tail_pct", "%", "higher"),
            ("wave_p99_us", "us", "lower"),
            ("resize_wave_p50_us", "us", "lower"),
            ("synthetic_wave_p50_us", "us", "lower"),
            ("batch_wave_p50_us", "us", "lower")),
    # metadata.scheduling
    *_layer("scheduling", ("periodic_refreshes", "count", "lower"),
            ("active_tasks", "count", "lower"),
            ("mean_lateness_ms", "ms", "lower"),
            ("refreshes_per_element", "ratio", "lower"),
            ("refresh_busy_s", "s", "lower")),
    # metadata.locks (common.rwlock)
    *_layer("locks", ("acquisitions", "count", "lower"),
            ("contended", "count", "lower"),
            ("contended_ratio", "ratio", "lower"),
            ("wait_s", "s", "lower"),
            ("hottest_wait_s", "s", "lower")),
    # metadata.sharding
    *_layer("sharding", ("cross_shard_edges", "count", "lower"),
            ("remote_in", "count", "lower"),
            ("remote_out", "count", "lower"),
            ("remote_waves", "count", "lower"),
            ("cross_shard_write_p50_us", "us", "lower")),
    # reliability
    *_layer("reliability", ("injected_failures", "count", "lower"),
            ("retries", "count", "lower"),
            ("quarantines", "count", "lower"),
            ("stale_reads", "count", "lower"),
            ("policy_wave_p50_us", "us", "lower"),
            ("policyfree_wave_p50_us", "us", "lower")),
    # telemetry
    *_layer("telemetry", ("events_emitted", "count", "lower"),
            ("events_per_element", "ratio", "lower"),
            ("ring_dropped", "count", "lower"),
            ("export_delivered", "count", "higher"),
            ("export_dropped", "count", "lower"),
            ("export_dropped_ratio", "ratio", "lower"),
            ("export_bytes", "B", "lower"),
            ("export_busy_s", "s", "lower"),
            ("overhead_pct", "%", "lower")),
    *_layer("costmodel", ("estimate_error_pct", "%", "lower")),
    *_layer("bench", ("tracing_overhead_pct", "%", "lower"),
            ("traced_wall_s", "s", "lower"),
            ("spans", "count", "lower")),
)


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(samples_s: Sequence[float]) -> dict[str, float]:
    """Median, p99 and the supported tail of a latency sample (seconds in,
    microseconds out).

    The *tail* is the highest percentile of the ladder 90 / 99 / 99.9 /
    99.99 that still has at least ten samples beyond it, so a tail is never
    one outlier; ``tail_pct`` says which percentile that was.
    """
    ordered = sorted(samples_s)
    n = len(ordered)
    tail_pct = 0.0
    for pct in (90.0, 99.0, 99.9, 99.99):
        if n * (1.0 - pct / 100.0) >= 10.0:
            tail_pct = pct
    return {
        "samples": n,
        "p50_us": percentile(ordered, 50.0) * 1e6,
        "p99_us": percentile(ordered, 99.0) * 1e6,
        "tail_us": percentile(ordered, tail_pct) * 1e6 if tail_pct else 0.0,
        "tail_pct": tail_pct,
    }

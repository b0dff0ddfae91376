#!/usr/bin/env python3
"""Monitoring dashboard — the Figure 3 / Section 2.5 scenario.

"Suppose a monitoring tool should plot the estimated CPU usage of the join,
maybe with the aim to compare it with the currently measured CPU usage."

A :class:`MetadataProfiler` subscribes to the estimated *and* measured CPU
usage of a sliding-window join fed by drifting-rate streams, samples them
periodically, and renders both time series as ASCII charts.  The estimate is
a triggered item that refreshes itself through the dependency graph whenever
the measured stream rates change — no polling logic anywhere in this file.

The run also enables the telemetry layer (:mod:`repro.telemetry`): the
closing sections show the aggregated runtime metrics and answer the
Figure-3 question "why did the join's CPU estimate refresh?" from the
captured wave trace.

With ``--export`` the same run additionally ships every trace event (and
periodic metric snapshots) through the batched export pipeline while the
simulation executes — to a rotating jsonl file, a TCP line-protocol peer,
or both — and a tiny in-process tail client (its own cursor on the trace
bus, ``telemetry.bus.subscribe``) live-counts the events it reads, the way
an external dashboard would.

Run with::

    python examples/monitoring_dashboard.py
    python examples/monitoring_dashboard.py --export jsonl:/tmp/trace.jsonl
    python examples/monitoring_dashboard.py --export tcp:localhost:9000 \\
        --export jsonl:/tmp/trace.jsonl
"""

from __future__ import annotations

import argparse
import threading
from collections import Counter

from repro.telemetry import JsonlFileSink, TcpLineSink

from repro import (
    DriftingRate,
    MetadataProfiler,
    QueryGraph,
    Schema,
    SimulationExecutor,
    Sink,
    SlidingWindowJoin,
    Source,
    StreamDriver,
    TimeWindow,
    UniformValues,
    catalogue as md,
    explain_refresh,
    render_dashboard,
)


def build_plan() -> tuple[QueryGraph, list[StreamDriver], SlidingWindowJoin]:
    graph = QueryGraph(default_metadata_period=50.0)
    left = graph.add(Source("left", Schema(("k",), element_size=48)))
    right = graph.add(Source("right", Schema(("k",), element_size=48)))
    win_left = graph.add(TimeWindow("win_left", size=120.0))
    win_right = graph.add(TimeWindow("win_right", size=120.0))
    join = graph.add(SlidingWindowJoin("join", impl="hash",
                                       key_fn=lambda e: e.field("k")))
    out = graph.add(Sink("out"))
    for producer, consumer in [(left, win_left), (right, win_right),
                               (win_left, join), (win_right, join), (join, out)]:
        graph.connect(producer, consumer)
    graph.freeze()
    # Rates oscillate between 0.1 and 0.5 with a period of 2000 time units,
    # so the cost estimates visibly track the drift.
    drivers = [
        StreamDriver(left, DriftingRate(0.3, 0.2, 2000.0),
                     UniformValues("k", 0, 12), seed=7),
        StreamDriver(right, DriftingRate(0.3, 0.2, 2000.0),
                     UniformValues("k", 0, 12), seed=8),
    ]
    return graph, drivers, join


def parse_export_spec(spec: str):
    """``jsonl:PATH`` or ``tcp:HOST:PORT`` -> a configured export sink."""
    kind, _, rest = spec.partition(":")
    if kind == "jsonl" and rest:
        return JsonlFileSink(rest)
    if kind == "tcp":
        host, _, port = rest.rpartition(":")
        if host and port.isdigit():
            return TcpLineSink(host, int(port))
    raise SystemExit(
        f"invalid --export spec {spec!r}: expected jsonl:PATH or tcp:HOST:PORT")


def run_tail_client(subscription, counts: Counter, stop: threading.Event) -> None:
    """The 'external dashboard': count trace events live, by kind."""
    while True:
        stopping = stop.wait(0.05)
        while batch := subscription.pop_batch():
            counts.update(event.kind for event in batch)
        if stopping:
            return


def main(argv: list[str] | None = None) -> None:
    # Called with no argv (e.g. from the example tests) -> no export sinks;
    # the command line only reaches argparse through the __main__ guard.
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--export", action="append", default=[], metavar="SINK",
        help="ship live telemetry to a sink: jsonl:PATH or tcp:HOST:PORT "
             "(repeatable)")
    args = parser.parse_args(argv if argv is not None else [])

    graph, drivers, join = build_plan()
    telemetry = graph.metadata_system.enable_telemetry(capacity=16384)

    exporter = None
    tail_counts: Counter = Counter()
    tail_stop = threading.Event()
    tail_thread = None
    if args.export:
        sinks = [parse_export_spec(spec) for spec in args.export]
        tail = telemetry.bus.subscribe("tail")
        tail_thread = threading.Thread(
            target=run_tail_client, args=(tail, tail_counts, tail_stop),
            name="tail-client", daemon=True)
        tail_thread.start()
        exporter = telemetry.attach_exporter(*sinks, name="dashboard")

    profiler = MetadataProfiler()
    profiler.watch(join, md.EST_CPU_USAGE, label="estimated CPU usage")
    profiler.watch(join, md.CPU_USAGE, label="measured CPU usage")
    profiler.watch(join, md.EST_MEMORY_USAGE, label="estimated memory (bytes)")
    profiler.watch(join, md.MEMORY_USAGE, label="measured memory (bytes)")

    executor = SimulationExecutor(graph, drivers)
    executor.every(50.0, profiler.sample)
    executor.run_until(6000.0)

    print("Join monitoring dashboard (6000 virtual time units, drifting load)")
    print("=" * 70)
    print(profiler.report())
    print("=" * 70)

    est = profiler.series["estimated CPU usage"]
    meas = profiler.series["measured CPU usage"]
    pairs = [
        (e, m) for e, m in zip(est.numeric_values(), meas.numeric_values())
        if m > 0
    ]
    if pairs:
        mean_ratio = sum(e / m for e, m in pairs) / len(pairs)
        print(f"mean estimated/measured CPU ratio: {mean_ratio:.3f} "
              f"over {len(pairs)} samples")
    print(f"propagation stats: {graph.metadata_system.propagation.stats()}")

    if exporter is not None:
        exporter.flush()
        tail_stop.set()
        assert tail_thread is not None
        tail_thread.join(timeout=5.0)
        tail.close()
        print()
        print("live export (tail client saw the stream as a dashboard would)")
        for kind, count in tail_counts.most_common(8):
            print(f"  {kind:<24} {count:>8,}")
        for line in exporter.format_progress():
            print(f"  {line}")

    print()
    print(render_dashboard(telemetry))
    print()
    print(explain_refresh(telemetry, join, md.EST_CPU_USAGE))
    telemetry.close_exporters()
    profiler.close()


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])

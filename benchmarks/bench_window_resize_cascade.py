"""E10 — Section 3.3: window-size changes trigger exactly the right updates.

"Whenever the window size is changed by the resource manager, the cost
estimations for the operator resource usage have to be updated according to
our cost model. ... When the window size is changed, an event is fired.
This event triggers the handler of the estimated element validity due to the
intra-node dependency ... An inter-node update triggers the re-estimation of
the join CPU usage."

We resize one window R times and count recomputations: the affected cascade
(validity, join CPU/memory estimates) refreshes once per resize; unrelated
included items (the *other* window's validity, the source rates) are never
touched by the event.
"""

from __future__ import annotations

import pytest

from repro import (
    ConstantRate,
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
)

RESIZES = 20


def run_experiment():
    graph = QueryGraph(default_metadata_period=1e9)  # mute periodic noise
    s0 = graph.add(Source("s0", Schema(("k",))))
    s1 = graph.add(Source("s1", Schema(("k",))))
    w0 = graph.add(TimeWindow("w0", 100.0))
    w1 = graph.add(TimeWindow("w1", 100.0))
    join = graph.add(SlidingWindowJoin("join", key_fn=lambda e: e.field("k")))
    sink = graph.add(Sink("out"))
    for a, b in ((s0, w0), (s1, w1), (w0, join), (w1, join), (join, sink)):
        graph.connect(a, b)
    graph.freeze()
    est_cpu = join.metadata.subscribe(md.EST_CPU_USAGE)
    est_mem = join.metadata.subscribe(md.EST_MEMORY_USAGE)

    handlers = {
        "w0 est validity": w0.metadata.handler(md.EST_ELEMENT_VALIDITY),
        "w1 est validity": w1.metadata.handler(md.EST_ELEMENT_VALIDITY),
        "join est cpu": est_cpu.handler,
        "join est memory": est_mem.handler,
        "s0 est rate": s0.metadata.handler(md.EST_OUTPUT_RATE),
    }
    before = {name: h.compute_count for name, h in handlers.items()}

    for i in range(RESIZES):
        w0.set_size(100.0 + (i + 1))  # each resize fires the event

    deltas = {name: h.compute_count - before[name]
              for name, h in handlers.items()}
    waves = graph.metadata_system.stats()["waves"]
    est_cpu.cancel()
    est_mem.cancel()
    return deltas, waves


def test_window_resize_cascade(benchmark, report):
    deltas, waves = run_experiment()

    lines = [f"{RESIZES} resizes of window w0; recomputations per included "
             "item:",
             ""]
    for name, delta in deltas.items():
        lines.append(f"  {name:<18} {delta:>4}")
    lines += ["",
              "only the Figure 3 cascade below w0 refreshed; w1 and the "
              "sources were untouched"]
    report("E10 / Section 3.3 — window-resize event cascade", lines)

    assert deltas["w0 est validity"] == RESIZES
    assert deltas["join est cpu"] == RESIZES
    assert deltas["join est memory"] == RESIZES
    assert deltas["w1 est validity"] == 0
    assert deltas["s0 est rate"] == 0

    benchmark.pedantic(run_experiment, rounds=3, iterations=1)

"""Import footprint: the runtime is stdlib-only (numpy never loads, not even
once streams flow), and a plan loads only the modules it uses."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
from repro import (QueryGraph, Schema, SimulationExecutor, Sink, SlidingWindowJoin,
                   Source, StreamDriver, TimeWindow, catalogue as md)
from repro.adaptation.load_shedder import Shedder
from repro.sources.replay import record_trace
from repro.sources.synthetic import (NormalValues, PoissonArrivals, UniformValues,
                                     ZipfValues)

graph = QueryGraph(default_metadata_period=5.0)
left = graph.add(Source("left", Schema(("k",))))
right = graph.add(Source("right", Schema(("k",))))
shed = graph.add(Shedder("shed", seed=3))
wl = graph.add(TimeWindow("wl", size=10.0))
wr = graph.add(TimeWindow("wr", size=10.0))
join = graph.add(SlidingWindowJoin("join", impl="hash", key_fn=lambda e: e.field("k")))
out = graph.add(Sink("out"))
for a, b in [(left, shed), (shed, wl), (right, wr), (wl, join), (wr, join), (join, out)]:
    graph.connect(a, b)
graph.freeze()
shed.set_drop_probability(0.2)
cpu = join.metadata.subscribe(md.EST_CPU_USAGE)
trace = record_trace(PoissonArrivals(2.0), NormalValues("v"), duration=5.0, seed=1)
executor = SimulationExecutor(graph, [
    StreamDriver(left, PoissonArrivals(2.0), UniformValues("k", 0, 5), seed=1),
    StreamDriver(right, PoissonArrivals(2.0), ZipfValues("k", n=5), seed=2),
])
executor.run_until(20.0)
cpu.get()
cpu.cancel()
assert len(trace) > 0 and out.received and shed.dropped
print("numpy" in sys.modules)
"""


def test_streams_flow_without_importing_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


JOIN_PROBE = """
import sys
from repro.graph import QueryGraph, Schema, Sink, Source
from repro.metadata import catalogue as md
from repro.operators import SlidingWindowJoin, TimeWindow
from repro.runtime import SimulationExecutor
from repro.sources import ConstantRate, StreamDriver, UniformValues

graph = QueryGraph(default_metadata_period=5.0)
left = graph.add(Source("left", Schema(("k",))))
right = graph.add(Source("right", Schema(("k",))))
wl = graph.add(TimeWindow("wl", size=10.0))
wr = graph.add(TimeWindow("wr", size=10.0))
join = graph.add(SlidingWindowJoin("join", impl="hash", key_fn=lambda e: e.field("k")))
out = graph.add(Sink("out"))
for a, b in [(left, wl), (right, wr), (wl, join), (wr, join), (join, out)]:
    graph.connect(a, b)
graph.freeze()
cpu = join.metadata.subscribe(md.EST_CPU_USAGE)
executor = SimulationExecutor(graph, [
    StreamDriver(left, ConstantRate(2.0), UniformValues("k", 0, 5), seed=1),
    StreamDriver(right, ConstantRate(2.0), UniformValues("k", 0, 5), seed=2),
])
executor.run_until(20.0)
cpu.get()
cpu.cancel()
assert out.received
print(sorted(name for name in ("socket", "repro.adaptation") if name in sys.modules))
import repro
print(repro.Shedder.__name__, "repro.adaptation" in sys.modules)
"""


def test_join_plan_loads_neither_socket_nor_adaptation():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", JOIN_PROBE], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "Shedder True"]

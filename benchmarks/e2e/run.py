#!/usr/bin/env python3
"""The repository's end-to-end benchmark: four workloads, absolute numbers,
traced per-layer attribution.

Two ways to run it, both from the repository root::

    # report mode: every metric by name with its unit, result JSON on disk
    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--traced]
                                 [--scale F] [--seconds S] [--repeat N]

    # contract mode (what BENCHMARK.json's driver runs): one workload, one
    # JSON object as the last line of stdout
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload run happens in a **fresh interpreter** (this script re-invokes
itself with ``--child``), so ``setup_s`` really is "interpreter up -> first
timed op" and ``peak_rss_mb`` is the workload's own process.  ``--trace 0``
reports the end-to-end metrics of an untraced run, with ``setup_s`` the
median over :data:`SETUP_RUNS` set-ups; ``--trace 1`` runs an untraced and a
traced child at a quarter of the work and reports the per-layer metrics
(counts and percentiles from the untraced child, busy/self times from the
spans, and the difference between the two as ``bench.tracing_overhead_pct``).
End-to-end metrics are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

sys.path.insert(0, str(ROOT / "src"))

from metrics import (  # noqa: E402 - sys.path set up above
    END_TO_END, HEADLINE, HEADLINE_SOURCE, PER_LAYER, WORKLOADS,
)

DEFAULT_SECONDS = 10.0     # BENCHMARK.json's run_seconds
TRACE_SCALE = 0.25         # traced runs do a quarter of the work
SETUP_RUNS = 5             # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170.0

#: Per-layer busy metrics as sums of span self times (``notify_busy_s`` is
#: the inclusive time of the top-level propagation entry points).
BUSY_FROM_SPANS: dict[str, tuple[str, ...]] = {
    "sources.produce_busy_s": ("sources.produce",),
    "runtime.run_until_self_s": ("runtime.run_until",),
    "operators.step_busy_s": ("operators.step", "operators.join_step",
                              "graph.sink_step", "operators.set_size"),
    "operators.join_step_busy_s": ("operators.join_step",),
    "registry.subscribe_busy_s": ("registry.subscribe", "registry.subscribe_many"),
    "registry.unsubscribe_busy_s": ("registry.cancel",),
    "handler.get_busy_s": ("handler.get",),
    "propagation.engine_self_s": ("propagation.notify",),
    "propagation.recompute_busy_s": ("propagation.recompute",),
    "scheduling.refresh_busy_s": ("scheduling.periodic_refresh",),
    "telemetry.export_busy_s": ("telemetry.export",),
}


# ---------------------------------------------------------------------------
# child: one workload in this interpreter
# ---------------------------------------------------------------------------


def run_child(args: argparse.Namespace) -> int:
    from trace import Tracer
    from workloads import WORKLOAD_CLASSES

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    RESULTS.mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload](
        args.seed, args.seconds * args.scale, tracer, RESULTS)
    workload.setup()
    record: dict[str, Any] = {"ready_at": time.perf_counter()}
    if args.setup_only:
        workload.close()
    else:
        workload.run()
        workload.finish()
        metrics = workload.metrics
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["failed_ops_ratio"] = workload.failed / max(1, workload.attempted)
        record.update(attempted=workload.attempted, failed=workload.failed,
                      failures=workload.failures, metrics=metrics)
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = tracer.summary()
            metrics["bench.traced_wall_s"] = workload.traced_wall_s
            metrics["bench.spans"] = tracer.write_jsonl(
                RESULTS / f"trace-{args.workload}.jsonl")
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# parent: spawn children, assemble metrics
# ---------------------------------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, scale: float = 1.0,
          traced: bool = False, setup_only: bool = False) -> dict[str, Any]:
    """Run one child to completion; returns its record plus ``setup_s``."""
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--scale", repr(scale)]
    if traced:
        command.append("--traced")
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.perf_counter()   # CLOCK_MONOTONIC: shared with the child
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited {done.returncode}:\n{done.stderr[-4000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready_at") - spawned_at
    return record


def measure(workload: str, seed: int, seconds: float, scale: float) -> dict[str, Any]:
    """One untraced run; ``setup_s`` is the median over SETUP_RUNS set-ups."""
    record = spawn(workload, seed, seconds, scale)
    setups = [record["setup_s"]] + [
        spawn(workload, seed, seconds, scale, setup_only=True)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    record["metrics"]["setup_s"] = statistics.median(setups)
    record["setup_samples_s"] = setups
    return record


def measure_layers(workload: str, seed: int, seconds: float, scale: float) -> dict[str, Any]:
    """Per-layer metrics from an untraced and a traced child at equal work."""
    plain = spawn(workload, seed, seconds, scale * TRACE_SCALE)
    traced = spawn(workload, seed, seconds, scale * TRACE_SCALE, traced=True)
    layers = {metric.name: 0.0 for metric in PER_LAYER}
    for source in (traced["metrics"], plain["metrics"]):   # untraced wins
        layers.update((k, v) for k, v in source.items() if k in layers)
    spans = traced["spans"]
    for name, span_names in BUSY_FROM_SPANS.items():
        layers[name] = sum(spans[s]["self_s"] for s in span_names if s in spans)
    layers["propagation.notify_busy_s"] = spans.get("propagation.notify", {}).get("total_s", 0.0)
    for name in ("handler.bytes_per_included_item", "bench.traced_wall_s", "bench.spans"):
        layers[name] = traced["metrics"].get(name, 0.0)
    rate = HEADLINE_SOURCE[workload]["ops_per_s"]
    layers["bench.tracing_overhead_pct"] = 100.0 * (
        1.0 - traced["metrics"][rate] / plain["metrics"][rate])
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "metrics": layers,
        "spans": spans,
    }


def headline(workload: str, metrics: dict[str, float]) -> dict[str, float]:
    """The generic metrics BENCHMARK.json declares, for one workload."""
    source = HEADLINE_SOURCE[workload]
    return {m.name: metrics[source.get(m.name, m.name)] for m in HEADLINE}


def with_units(values: dict[str, float], declared: tuple) -> dict[str, dict[str, Any]]:
    units = {metric.name: metric.unit for metric in declared}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def contract(args: argparse.Namespace) -> int:
    """What the BENCHMARK.json driver runs: one JSON object, last line."""
    if args.trace:
        result = measure_layers(args.workload, args.seed, args.seconds, args.scale)
        metrics = with_units(result["metrics"], PER_LAYER)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale)
        metrics = with_units(headline(args.workload, result["metrics"]), HEADLINE)
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = result["failed"] == 0 and all(
        math.isfinite(entry["value"]) for entry in metrics.values())
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(args: argparse.Namespace) -> int:
    """Human mode: run the selected workloads, print every metric, write JSON."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    RESULTS.mkdir(parents=True, exist_ok=True)
    failed = 0
    for repeat in range(args.repeat):
        out: dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                               "scale": args.scale, "workloads": {}}
        for name in names:
            print(f"== {name} (seed {args.seed}, run {repeat + 1}/{args.repeat})", flush=True)
            result = measure(name, args.seed, args.seconds, args.scale)
            metrics = result["metrics"]
            entry: dict[str, Any] = {
                "attempted": result["attempted"], "failed": result["failed"],
                "failures": result["failures"],
                "headline": headline(name, metrics),
                "end_to_end": {m.name: metrics[m.name] for m in END_TO_END
                               if name in m.workloads},
            }
            for metric in END_TO_END:
                if name in metric.workloads:
                    print(f"  {metric.name:<34}{metrics[metric.name]:>16.4f} {metric.unit}")
            if args.traced:
                layers = measure_layers(name, args.seed, args.seconds, args.scale)
                entry["per_layer"] = layers["metrics"]
                entry["spans"] = layers["spans"]
                entry["failures"] += layers["failures"]
                entry["failed"] += layers["failed"]
                for metric in PER_LAYER:
                    value = layers["metrics"][metric.name]
                    if value:
                        print(f"  {metric.name:<34}{value:>16.4f} {metric.unit}")
                wall = layers["metrics"]["bench.traced_wall_s"]
                print(f"  traced spans (share of {wall:.2f} s traced wall):")
                for span, row in sorted(layers["spans"].items(),
                                        key=lambda item: -item[1]["self_s"]):
                    print(f"    {span:<30}{int(row['count']):>9} calls "
                          f"{row['self_s']:>9.4f} s self {100 * row['self_s'] / wall:>6.1f} %")
            for failure in entry["failures"]:
                print(f"  FAILED: {failure}")
            failed += entry["failed"]
            out["workloads"][name] = entry
        path = Path(args.out) if args.out else (
            RESULTS / f"e2e-seed{args.seed}-run{repeat + 1}.json")
        path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed work per workload, in seconds on the reference box")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's work by this factor")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="report mode: also run the traced per-layer pass")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report mode: run the whole set N times (for compare.py)")
    parser.add_argument("--out", help="report mode: result JSON path")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        if args.trace is not None:
            if not args.workload:
                parser.error("--trace needs --workload")
            return contract(args)
        return report(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

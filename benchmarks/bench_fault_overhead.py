#!/usr/bin/env python3
"""Failure-policy overhead — what a healthy circuit breaker costs per wave.

Handlers *without* a failure policy carry no breaker at all: a wave plan
none of whose members has one skips the breaker reads entirely (the plan's
``guarded`` flag), and the poison bookkeeping is one ``if poisoned`` over an
empty set.  This benchmark records what attaching a policy costs, by timing
triggered-propagation waves through the stock engine twice:

* ``nopolicy`` — no failure policies anywhere (the shipped default, and the
  base of the ratio); and
* ``policy``   — a live :class:`FailurePolicy` on every chain item and zero
  injected faults (a healthy breaker legitimately costs one state check
  and one guarded attempt per refresh).

Rounds are interleaved (nopolicy, policy, ...) so clock drift and cache
warmth hit both equally.  The reported overhead is the *median of per-round
paired ratios*: each round times the configurations back to back, so
interference hits both timings of a pair and cancels in the ratio, and the
median discards the rounds a noise spike still skewed.  Rounds are
deliberately many and short (and the garbage collector is paused while
timing) so most pairs land inside one quiet window.

One interpreter is still one sample: code/dict layout fixed at process
start biases identical engines against each other by a few percent either
way.  ``measure()`` therefore re-runs itself in ``PROCESS_SAMPLES`` fresh
subprocesses and reports the median overhead *across processes*, which
centers that per-process bias out.

Regressions of the policy-free path itself are caught where they can be
measured against something real — the parent-vs-change run of
``benchmarks/e2e`` (``wave_storm`` carries DAGs with and without policies).

Usage::

    python benchmarks/bench_fault_overhead.py --check --output BENCH_fault.json

``--check`` exits non-zero when the two configurations disagree on the
propagation work done or anything failed.

The module is a standalone script on purpose — it is not collected by the
tier-1 pytest run (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# The same 16-deep always-changing chain the telemetry benchmark times —
# the hottest path the reliability checks touch.
from bench_telemetry_overhead import CHAIN_DEPTH, build_workload, run_round

from repro.reliability import FailurePolicy

WAVES_PER_ROUND = 500
ROUNDS = 15
PROCESS_SAMPLES = 5


def measure_sample() -> dict:
    """One in-process sample: interleaved rounds, paired-ratio medians."""
    workloads = {
        "nopolicy": build_workload(),
        "policy": build_workload(
            policy=FailurePolicy(max_retries=1, jitter=0.0)),
    }
    # Warmup: one short burst per engine so allocator and bytecode caches
    # are hot before the first timed round.
    for registry, state, _ in workloads.values():
        run_round(registry, state, 100)

    names = list(workloads)
    timings: dict[str, list[float]] = {name: [] for name in workloads}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for r in range(ROUNDS):
            # Rotate the in-round order so no configuration always runs in
            # the same (cache-warm or interference-prone) slot.
            k = r % len(names)
            for name in names[k:] + names[:k]:
                registry, state, _ = workloads[name]
                timings[name].append(
                    run_round(registry, state, WAVES_PER_ROUND))
    finally:
        if gc_was_enabled:
            gc.enable()

    best = {name: min(rounds) for name, rounds in timings.items()}

    # Sanity: both engines did identical propagation work, nothing
    # ever failed, and no wave was poisoned anywhere.
    stats = {name: wl[0].system.stats() for name, wl in workloads.items()}
    work_keys = ("waves", "refreshes", "suppressed", "errors")
    consistent = (
        len({tuple(s[k] for k in work_keys) for s in stats.values()}) == 1
        and all(s["errors"] == 0 for s in stats.values())
        and all(s.get("skipped_poisoned", 0) == 0 for s in stats.values())
    )

    return {
        "seconds_best": best,
        "seconds_all_rounds": timings,
        "policy_overhead_pct": statistics.median(
            100.0 * (t - b) / b
            for t, b in zip(timings["policy"], timings["nopolicy"])),
        "work_consistent": consistent,
    }


def measure() -> dict:
    """Median overhead across PROCESS_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(PROCESS_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--sample"],
            capture_output=True, text=True, check=True)
        samples.append(json.loads(proc.stdout))

    best = {
        name: min(s["seconds_best"][name] for s in samples)
        for name in ("nopolicy", "policy")
    }
    policy_overhead_pct = statistics.median(
        s["policy_overhead_pct"] for s in samples)

    return {
        "benchmark": "fault_overhead",
        "chain_depth": CHAIN_DEPTH,
        "waves_per_round": WAVES_PER_ROUND,
        "rounds": ROUNDS,
        "process_samples": PROCESS_SAMPLES,
        "seconds_best": best,
        "waves_per_second_best": {
            name: WAVES_PER_ROUND / seconds for name, seconds in best.items()
        },
        "overhead_pct_per_sample": [s["policy_overhead_pct"] for s in samples],
        "metrics": {
            "policy_overhead_pct": policy_overhead_pct,
            "fault_waves_per_second": WAVES_PER_ROUND / best["nopolicy"],
        },
        "passed": all(s["work_consistent"] for s in samples),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_fault.json",
                        help="path of the JSON report (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the configurations "
                             "disagree on the propagation work done")
    parser.add_argument("--sample", action="store_true",
                        help=argparse.SUPPRESS)  # internal: one subprocess
    args = parser.parse_args(argv)

    if args.sample:
        print(json.dumps(measure_sample()))
        return 0

    result = measure()
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")

    print(f"failure-policy overhead benchmark "
          f"({CHAIN_DEPTH}-deep chain, {WAVES_PER_ROUND} waves/round, "
          f"{ROUNDS} rounds x {PROCESS_SAMPLES} processes)")
    for name in ("nopolicy", "policy"):
        print(f"  {name:<14} {result['seconds_best'][name] * 1e3:8.2f} ms  "
              f"({result['waves_per_second_best'][name]:,.0f} waves/s)")
    per_sample = ", ".join(f"{v:+.2f}%" for v in
                           result["overhead_pct_per_sample"])
    print(f"  healthy-breaker overhead: "
          f"{result['metrics']['policy_overhead_pct']:+.2f}% of the "
          f"policy-free path (informational; samples: {per_sample})")
    print(f"  report: {args.output}")

    if args.check and not result["passed"]:
        print("FAIL: engines disagreed on propagation work", file=sys.stderr)
        return 1
    print("PASS" if result["passed"] else "(informational run, no --check)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

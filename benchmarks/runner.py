#!/usr/bin/env python3
"""Benchmark runner — stable metric schema + CI perf gating.

Runs the propagation-path benchmarks and publishes their headline metrics
through one versioned schema, so CI can track a *benchmark trajectory*
instead of eyeballing log output:

* suite ``propagation``  (``bench_wave_cache.py``)   -> ``BENCH_propagation.json``
* suite ``subscription`` (``bench_subscribe_many.py``) -> ``BENCH_subscription.json``
* suite ``export``       (``bench_export.py``)       -> ``BENCH_export.json``
* suite ``fault``        (``bench_fault_overhead.py``) -> ``BENCH_fault.json``
* suite ``contention``   (``bench_lock_contention.py``) -> ``BENCH_contention.json``

Reports are written at the repository root (regenerated by every run and
not committed) and compared against the baselines in
``benchmarks/baselines/`` — the only committed copy — by ``--check``:

* **absolute gates** (e.g. cut-shape speedup >= 2x) always apply;
* **baseline tolerance**: each comparable metric may regress at most
  ``--tolerance`` (default 20%) against its baseline, direction-aware —
  improvements never fail;
* machine-dependent throughput numbers (waves/second) are recorded for
  the trajectory but *not* compared, so the gate stays green across
  hardware; only dimensionless ratios (cached/uncached, batch/loop) gate.

Usage::

    python benchmarks/runner.py                  # run + write reports
    python benchmarks/runner.py --check          # also gate vs baselines
    python benchmarks/runner.py --check --baseline-dir /tmp/baselines

Updating baselines after an intentional perf change::

    python benchmarks/runner.py --update-baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 0.20

#: Per-suite metric contracts.  ``direction`` decides which way a change is
#: a regression; ``gate_min``/``gate_max`` are absolute bounds enforced on
#: every run; ``compare`` excludes machine-dependent numbers from baseline
#: gating.
SUITES: dict[str, dict] = {
    "propagation": {
        "module": "bench_wave_cache",
        "source": "benchmarks/bench_wave_cache.py",
        "report": "BENCH_propagation.json",
        "metrics": {
            "chain_speedup": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True},
            "fanout_speedup": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True},
            "cut_speedup": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True, "gate_min": 2.0},
            "cut_waves_per_second": {
                "direction": "higher_is_better", "unit": "waves/s",
                "compare": False},
            "coalesce_speedup": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True, "gate_min": 2.0},
            "coalesce_refresh_ratio": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True},
        },
    },
    "subscription": {
        "module": "bench_subscribe_many",
        "source": "benchmarks/bench_subscribe_many.py",
        "report": "BENCH_subscription.json",
        "metrics": {
            "subscribe_many_speedup": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True, "gate_min": 1.0},
            "batch_subscribes_per_second": {
                "direction": "higher_is_better", "unit": "subscribes/s",
                "compare": False},
        },
    },
    "export": {
        "module": "bench_export",
        "source": "benchmarks/bench_export.py",
        "report": "BENCH_export.json",
        "metrics": {
            "export_overhead_pct": {
                "direction": "lower_is_better", "unit": "percent",
                "compare": False, "gate_max": 5.0},
            "export_events_per_second": {
                "direction": "higher_is_better", "unit": "events/s",
                "compare": False},
            "export_memory_peak_mb": {
                "direction": "lower_is_better", "unit": "MB",
                "compare": True, "gate_max": 64.0},
            "queue_peak_fraction": {
                "direction": "lower_is_better", "unit": "ratio",
                "compare": False, "gate_max": 1.0},
            "drop_accounting_exact": {
                "direction": "higher_is_better", "unit": "bool",
                "compare": True, "gate_min": 1.0},
        },
    },
    "fault": {
        "module": "bench_fault_overhead",
        "source": "benchmarks/bench_fault_overhead.py",
        "report": "BENCH_fault.json",
        "metrics": {
            "policy_overhead_pct": {
                "direction": "lower_is_better", "unit": "percent",
                "compare": False},
            "fault_waves_per_second": {
                "direction": "higher_is_better", "unit": "waves/s",
                "compare": False},
        },
    },
    "contention": {
        "module": "bench_lock_contention",
        "source": "benchmarks/bench_lock_contention.py",
        "report": "BENCH_contention.json",
        "metrics": {
            "throughput_scaling_8": {
                "direction": "higher_is_better", "unit": "ratio",
                "compare": True, "gate_min": 3.0},
            "wait_share_8": {
                "direction": "lower_is_better", "unit": "ratio",
                "compare": False, "gate_max": 0.088},
            "waves_per_second_1": {
                "direction": "higher_is_better", "unit": "waves/s",
                "compare": False},
            "waves_per_second_8": {
                "direction": "higher_is_better", "unit": "waves/s",
                "compare": False},
        },
    },
}


def run_suite(name: str) -> dict:
    """Execute one suite's measure() and wrap it in the stable schema."""
    spec = SUITES[name]
    module = __import__(spec["module"])
    raw = module.measure()
    metrics = {}
    for metric, contract in spec["metrics"].items():
        metrics[metric] = {
            "value": raw["metrics"][metric],
            "direction": contract["direction"],
            "unit": contract["unit"],
            "compare": contract["compare"],
            **({"gate_min": contract["gate_min"]}
               if "gate_min" in contract else {}),
            **({"gate_max": contract["gate_max"]}
               if "gate_max" in contract else {}),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "source": spec["source"],
        "metrics": metrics,
        "raw": raw,
        "passed": bool(raw.get("passed", True)),
    }


def check_report(report: dict, baseline: dict | None,
                 tolerance: float) -> list[str]:
    """All gate violations of one suite report (empty = green)."""
    failures: list[str] = []
    suite = report["suite"]
    if not report["passed"]:
        failures.append(f"{suite}: benchmark self-check failed "
                        f"(see raw report)")
    for metric, data in report["metrics"].items():
        value = data["value"]
        gate_min = data.get("gate_min")
        if gate_min is not None and value < gate_min:
            failures.append(
                f"{suite}/{metric}: {value:.3f} below absolute gate "
                f"{gate_min:.3f}")
        gate_max = data.get("gate_max")
        if gate_max is not None and value > gate_max:
            failures.append(
                f"{suite}/{metric}: {value:.3f} above absolute gate "
                f"{gate_max:.3f}")
        if baseline is None or not data["compare"]:
            continue
        base = baseline.get("metrics", {}).get(metric)
        if base is None:
            continue
        base_value = base["value"]
        if data["direction"] == "higher_is_better":
            floor = base_value * (1.0 - tolerance)
            if value < floor:
                failures.append(
                    f"{suite}/{metric}: {value:.3f} regressed more than "
                    f"{tolerance:.0%} below baseline {base_value:.3f} "
                    f"(floor {floor:.3f})")
        else:
            ceiling = base_value * (1.0 + tolerance)
            if value > ceiling:
                failures.append(
                    f"{suite}/{metric}: {value:.3f} regressed more than "
                    f"{tolerance:.0%} above baseline {base_value:.3f} "
                    f"(ceiling {ceiling:.3f})")
    return failures


def _load_baseline(baseline_dir: Path, report_name: str) -> dict | None:
    path = baseline_dir / report_name
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="append", choices=sorted(SUITES),
                        help="suite(s) to run (default: all)")
    parser.add_argument("--only", action="append", dest="suite",
                        choices=sorted(SUITES), metavar="SUITE",
                        help="alias of --suite: run just SUITE (repeatable); "
                             "keeps perf-lane wall time flat when a CI step "
                             "gates a single suite")
    parser.add_argument("--output-dir", default=str(REPO_ROOT),
                        help="directory for BENCH_*.json reports "
                             "(default: repository root)")
    parser.add_argument("--baseline-dir",
                        default=str(BENCH_DIR / "baselines"),
                        help="directory holding baseline BENCH_*.json "
                             "(default: %(default)s)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative regression vs baseline "
                             "(default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on gate or baseline violations")
    parser.add_argument("--update-baselines", action="store_true",
                        help="copy this run's reports into --baseline-dir")
    args = parser.parse_args(argv)

    suites = args.suite or sorted(SUITES)
    output_dir = Path(args.output_dir)
    baseline_dir = Path(args.baseline_dir)
    all_failures: list[str] = []

    for name in suites:
        spec = SUITES[name]
        print(f"== suite {name} ({spec['source']})")
        report = run_suite(name)
        report_path = output_dir / spec["report"]
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        baseline = _load_baseline(baseline_dir, spec["report"])
        for metric, data in report["metrics"].items():
            base = (baseline or {}).get("metrics", {}).get(metric)
            base_note = (f"  (baseline {base['value']:.3f})"
                         if base and data["compare"] else "")
            gate_note = "".join(
                [f"  [gate >= {data['gate_min']}]" if "gate_min" in data
                 else "",
                 f"  [gate <= {data['gate_max']}]" if "gate_max" in data
                 else ""])
            print(f"   {metric:<28} {data['value']:>12.3f} "
                  f"{data['unit']}{gate_note}{base_note}")
        print(f"   report: {report_path}")
        if baseline is None:
            print(f"   (no baseline at {baseline_dir / spec['report']} — "
                  f"absolute gates only)")
        failures = check_report(report, baseline, args.tolerance)
        all_failures.extend(failures)
        if args.update_baselines:
            baseline_dir.mkdir(parents=True, exist_ok=True)
            (baseline_dir / spec["report"]).write_text(
                json.dumps(report, indent=2) + "\n")
            print(f"   baseline updated: {baseline_dir / spec['report']}")

    if all_failures:
        print()
        for failure in all_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if args.check:
            return 1
        print("(violations above; run with --check to gate)")
        return 0
    print()
    print("PASS" if args.check else "done (run with --check to gate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``benchmarks/runner.py``'s ``check_report``: the one evaluator of every
legacy benchmark gate, exercised on synthetic reports."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

RUNNER_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "runner.py"


@pytest.fixture(scope="module")
def runner():
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_runner", RUNNER_PATH)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
    return module


def report(passed=True, **metrics):
    """A suite report holding ``metrics`` (name -> contract with value)."""
    return {"suite": "synthetic", "passed": passed, "metrics": {
        name: {"compare": True, "direction": "higher_is_better", **data}
        for name, data in metrics.items()}}


def baseline(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}}


class TestAbsoluteGates:
    def test_gate_min_breach(self, runner):
        failures = runner.check_report(
            report(speedup={"value": 1.9, "gate_min": 2.0}), None, 0.2)
        assert failures == [
            "synthetic/speedup: 1.900 below absolute gate 2.000"]

    def test_gate_max_breach(self, runner):
        failures = runner.check_report(
            report(overhead={"value": 5.5, "gate_max": 5.0,
                             "direction": "lower_is_better"}), None, 0.2)
        assert failures == [
            "synthetic/overhead: 5.500 above absolute gate 5.000"]

    def test_values_on_the_bounds_pass(self, runner):
        assert runner.check_report(report(
            low={"value": 2.0, "gate_min": 2.0},
            high={"value": 5.0, "gate_max": 5.0}), None, 0.2) == []


class TestBaselineTolerance:
    @pytest.mark.parametrize("value, failed", [(80.0, False), (79.9, True),
                                               (500.0, False)])
    def test_higher_is_better_floor(self, runner, value, failed):
        failures = runner.check_report(
            report(ratio={"value": value}), baseline(ratio=100.0), 0.2)
        assert bool(failures) is failed
        if failed:
            assert "below baseline 100.000 (floor 80.000)" in failures[0]

    @pytest.mark.parametrize("value, failed", [(120.0, False), (120.1, True),
                                               (1.0, False)])
    def test_lower_is_better_ceiling(self, runner, value, failed):
        failures = runner.check_report(
            report(cost={"value": value, "direction": "lower_is_better"}),
            baseline(cost=100.0), 0.2)
        assert bool(failures) is failed
        if failed:
            assert "above baseline 100.000 (ceiling 120.000)" in failures[0]

    def test_uncompared_metric_is_skipped(self, runner):
        assert runner.check_report(
            report(rate={"value": 1.0, "compare": False}),
            baseline(rate=1000.0), 0.2) == []

    def test_metric_missing_from_baseline_is_skipped(self, runner):
        assert runner.check_report(
            report(ratio={"value": 1.0}), baseline(other=1000.0), 0.2) == []

    def test_absolute_gate_applies_to_uncompared_metric(self, runner):
        failures = runner.check_report(
            report(share={"value": 0.1, "compare": False, "gate_max": 0.088,
                          "direction": "lower_is_better"}),
            baseline(share=0.0), 0.2)
        assert failures == [
            "synthetic/share: 0.100 above absolute gate 0.088"]


def test_failed_self_check_is_reported(runner):
    failures = runner.check_report(report(passed=False), None, 0.2)
    assert failures == [
        "synthetic: benchmark self-check failed (see raw report)"]


def test_every_suite_contract_is_well_formed(runner):
    directions = {"higher_is_better", "lower_is_better"}
    for spec in runner.SUITES.values():
        assert (RUNNER_PATH.parent / f"{spec['module']}.py").is_file()
        for contract in spec["metrics"].values():
            assert contract["direction"] in directions
            assert set(contract) <= {"direction", "unit", "compare",
                                     "gate_min", "gate_max"}

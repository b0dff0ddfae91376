"""Smoke test of the end-to-end benchmark (not part of tier-1 ``testpaths``).

Run as ``python -m pytest benchmarks/e2e -q``.  Drives the contract command
line for all four workloads at 2 % of the work and checks that
``BENCHMARK.json``, ``metrics.py`` and the emitted JSON agree on workloads
and metric names, that every value is finite, and that the oracles passed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402 - sys.path set up above
import metrics  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_matches_the_declarations():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"], m["bound"])
                for m in BENCHMARK["end_to_end"]]
    assert declared == [(m.name, m.unit, m.better, m.bound) for m in metrics.HEADLINE]
    layers = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert layers == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_contract_run(workload, trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "10",
                     "--scale", "0.02", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_report_run_emits_every_named_end_to_end_metric(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    out = tmp_path / "e2e.json"
    code = run.main(["--workload", "churn", "--seed", "7", "--scale", "0.02",
                     "--out", str(out)])
    assert code == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["churn"]
    expected = {m.name for m in metrics.END_TO_END if "churn" in m.workloads}
    assert set(entry["end_to_end"]) == expected
    assert all(math.isfinite(v) for v in entry["end_to_end"].values())
    assert entry["end_to_end"]["failed_ops_ratio"] == 0
    # The same file on both sides of compare.py is never a regression.
    assert compare.compare([str(out)], [str(out)]) == 0
    assert "REGRESSION" not in capsys.readouterr().out


def test_compare_flags_a_regression_and_a_wide_parent_spread():
    rate = next(m for m in metrics.END_TO_END if m.name == "churn_ops_per_s")
    assert compare.verdict(rate, [100, 101, 102, 103], [80, 81, 82, 83])[0] == "REGRESSION"
    assert compare.verdict(rate, [100, 101, 102, 103], [95, 96, 97, 98])[0] == "ok"
    assert compare.verdict(rate, [60, 100, 140, 180], [80, 81, 82, 83])[0] == "unresolved"
    assert compare.verdict(rate, [60, 100, 140, 180], [190, 200, 210, 220])[0] == "ok"

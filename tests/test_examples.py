"""Smoke tests: every shipped example must run end-to-end.

Examples are part of the public deliverable; running them in CI keeps the
documentation honest.  Each test executes the example's ``main()`` with
stdout captured and asserts on a signature line of its output.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys, argv: list[str] | None = None) -> str:
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        if argv is None:
            module.main()
        else:
            module.main(argv)
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "Metadata available at the join" in out
        assert "Handlers live after cancelling: 0" in out

    def test_monitoring_dashboard(self, capsys):
        out = run_example("monitoring_dashboard", capsys)
        assert "estimated CPU usage" in out
        assert "mean estimated/measured CPU ratio" in out
        assert "telemetry dashboard" in out
        assert "why did join/estimate.cpu_usage refresh?" in out

    def test_monitoring_dashboard_export(self, capsys, tmp_path):
        from repro.telemetry import load_trace

        trace = tmp_path / "t.jsonl"
        out = run_example("monitoring_dashboard", capsys,
                          ["--export", f"jsonl:{trace}"])
        tail = out.split("live export", 1)[1].split("queue:", 1)[0]
        kinds = re.findall(r"^  (\S+)\s+[\d,]+$", tail, re.MULTILINE)
        assert "include" in kinds
        assert "handler.created" not in kinds
        delivered = int(re.search(r"queue: \d+ pending, (\d+) delivered",
                                  out).group(1))
        assert len(load_trace(trace)) == delivered > 0

    def test_adaptive_resource_management(self, capsys):
        out = run_example("adaptive_resource_management", capsys)
        assert "shrink" in out
        assert "grow" in out

    def test_chain_scheduling(self, capsys):
        out = run_example("chain_scheduling", capsys)
        assert "chain saves" in out

    def test_load_shedding(self, capsys):
        out = run_example("load_shedding", capsys)
        assert "drop prob" in out
        assert "delivered" in out

    def test_plan_migration(self, capsys):
        out = run_example("plan_migration", capsys)
        assert "MIGRATE join" in out
        assert "recommendations issued: 2" in out

    def test_fault_tolerance(self, capsys):
        out = run_example("fault_tolerance", capsys)
        assert "fault-tolerant refresh walkthrough" in out
        assert "circuit=quarantined" in out
        assert "probe/net.rtt: quarantined, stale=True" in out
        assert "circuit=healthy" in out
        assert "skipped_poisoned=1" in out
        assert "why is probe/net.total_cost stale?" in out
        assert "telemetry dashboard" in out

    def test_deadlock_demo(self, capsys):
        out = run_example("deadlock_demo", capsys)
        # Runtime half: the AB/BA cycle is reported from the recording even
        # though the demo never actually deadlocked.
        assert "no deadlock occurred" in out
        assert "LD001" in out
        assert "lock-order cycle" in out
        assert "node:left" in out and "node:right" in out
        # Static half: the graph-under-item acquisition three calls deep.
        assert "LK007" in out
        assert "transitive lock-order inversion" in out
        assert "_register_globally" in out
        assert "codes raised: LD001, LK007" in out

    def test_metadata_explorer(self, capsys):
        out = run_example("metadata_explorer", capsys)
        assert "working set after two subscriptions" in out
        assert "handlers after cancelling: 0" in out
        # The healthy plan passes the static verifier; the deliberately
        # mis-wired variant is rejected with the Figure-5 code.
        healthy, _, miswired = out.partition(
            "== static analysis of a mis-wired variant ==")
        assert "static analysis of the healthy plan" in healthy
        assert "no findings" in healthy.split(
            "static analysis of the healthy plan ==")[1]
        assert "MD003" in miswired
        assert "demo.avg_output_rate" in miswired

"""CLI and reporter tests.

Acceptance: exit 0 on a clean tree, non-zero with ``--fail-on error`` on a
seeded violation, ``--output`` writes the documented JSON schema."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import CODES, Finding, Severity, render_text
from repro.analysis.cli import load_plan_factory, main

CLEAN = """
def tidy(self):
    with self.structure_lock.write():
        with self.node_lock.write():
            pass
"""

VIOLATION = """
def inverted(self):
    with self.handler._lock.write():
        with self.node_lock.read():
            pass
"""

TRANSITIVE_INVERSION = """
def take_graph(registry):
    with registry.structure_lock.write():
        pass

def inverted_through_call(self, registry):
    with self.handler._lock.write():
        take_graph(registry)
"""

WARNING_ONLY = """
import time
def slow(self):
    with self.node_lock.write():
        time.sleep(1)
"""

PLAN_MODULE = """
from repro.common.clock import VirtualClock
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey, SelfDep
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import VirtualTimeScheduler


class _Owner:
    def __init__(self, name):
        self.name = name
        self.metadata = None
        self.upstream_nodes = []
        self.downstream_nodes = []


def build_plan():
    clock = VirtualClock()
    system = MetadataSystem(clock, VirtualTimeScheduler(clock))
    owner = _Owner("op")
    owner.metadata = MetadataRegistry(owner, system)
    owner.metadata.define(MetadataDefinition(
        MetadataKey("rate"), Mechanism.PERIODIC,
        compute=lambda ctx: 1.0, period=50.0))
    owner.metadata.define(MetadataDefinition(
        MetadataKey("avg_rate"), Mechanism.ON_DEMAND,
        compute=lambda ctx: 0.0,
        dependencies=[SelfDep(MetadataKey("rate"))]))
    return system
"""


@pytest.fixture
def tree(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(textwrap.dedent(content))
        return str(path)

    return write


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        path = tree("clean.py", CLEAN)
        assert main([path]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_seeded_violation_fails(self, tree, capsys):
        path = tree("bad.py", VIOLATION)
        assert main([path, "--fail-on", "error"]) == 1
        assert "LK001" in capsys.readouterr().out

    def test_transitive_inversion_fails_without_a_flag(self, tree, capsys):
        path = tree("chain.py", TRANSITIVE_INVERSION)
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "LK007" in out
        assert "LK001" not in out

    def test_warnings_pass_unless_fail_on_warning(self, tree, capsys):
        path = tree("warn.py", WARNING_ONLY)
        assert main([path]) == 0  # default threshold is error
        assert main([path, "--fail-on", "warning"]) == 1
        capsys.readouterr()

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["/no/such/path.py"]) == 2
        capsys.readouterr()

    def test_no_work_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()


class TestPlanOption:
    def test_plan_findings_reported(self, tree, capsys):
        plan = tree("plan_mod.py", PLAN_MODULE)
        code = main(["--plan", f"{plan}:build_plan"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MD003" in out

    def test_bad_plan_spec_is_usage_error(self, capsys):
        assert main(["--plan", "nonsense"]) == 2
        assert main(["--plan", "no_such_module:factory"]) == 2
        capsys.readouterr()

    def test_load_plan_factory_rejects_missing_attr(self, tree):
        plan = tree("plan_empty.py", "x = 1\n")
        with pytest.raises(ValueError):
            load_plan_factory(f"{plan}:build_plan")


class TestJsonRoundTrip:
    def test_schema_round_trips(self, tree, tmp_path, capsys):
        path = tree("bad.py", VIOLATION + WARNING_ONLY)
        report_path = tmp_path / "report.json"
        assert main([path, "--output", str(report_path)]) == 1
        assert "LK001" in capsys.readouterr().out
        document = json.loads(report_path.read_text())
        assert document["version"] == 1
        assert document["summary"] == {"error": 1, "warning": 1, "info": 0}
        assert [(f["code"], f["severity"], f["file"]) for f in
                document["findings"]] == [("LK001", "error", path),
                                          ("LK002", "warning", path)]
        assert all(f["line"] > 0 for f in document["findings"])

    def test_output_file_written(self, tree, tmp_path, capsys):
        plan = tree("plan_mod.py", PLAN_MODULE)
        report_path = tmp_path / "report.json"
        main(["--plan", f"{plan}:build_plan", "--output", str(report_path)])
        capsys.readouterr()
        document = json.loads(report_path.read_text())
        assert document["version"] == 1
        assert document["summary"]["error"] == 1
        [finding] = document["findings"]
        assert (finding["code"], finding["severity"]) == ("MD003", "error")
        assert finding["subject"] == "op/avg_rate"
        assert "file" not in finding and "line" not in finding


class TestTextReport:
    def test_summary_line(self):
        text = render_text([
            Finding(code="MD002", message="dangling", subject="n/a"),
            Finding(code="MD006", message="never fires", subject="n/b",
                    severity=Severity.WARNING),
        ])
        assert "2 finding(s): 1 error, 1 warning" in text
        # Errors sort first.
        assert text.index("MD002") < text.index("MD006")


def test_guide_code_table_matches_registry():
    """The guide's finding-code table lists exactly ``CODES``."""
    guide = Path(__file__).parents[2] / "docs" / "METADATA_GUIDE.md"
    section = guide.read_text(encoding="utf-8").split(
        "### Finding codes", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    table = {code.strip(" `"): severity.strip() for code, severity in rows}
    assert table == {code: info.severity.value
                     for code, info in CODES.items()}

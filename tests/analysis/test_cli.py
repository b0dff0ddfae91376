"""CLI, reporter round-trip, and baseline tests.

Acceptance: exit 0 on a clean tree, non-zero with ``--fail-on error`` on a
seeded violation, ``--format json`` round-trips through the documented
schema."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    Severity,
    apply_baseline,
    finding_from_dict,
    parse_report,
    render_json,
    render_text,
)
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
    def test_schema_round_trips(self, tree, capsys):
        path = tree("bad.py", VIOLATION)
        main([path, "--format", "json"])
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["version"] == 1
        assert document["summary"]["error"] == 1
        recovered = parse_report(out)
        assert [f.code for f in recovered] == ["LK001"]
        assert recovered[0].severity is Severity.ERROR
        assert recovered[0].line > 0

    def test_render_parse_inverse(self):
        original = [
            Finding(code="MD003", message="mismatch", subject="op/x",
                    severity=Severity.ERROR, details={"input": "op/y"}),
            Finding(code="LK002", message="blocking call",
                    severity=Severity.WARNING, file="a.py", line=7,
                    scope="R.m"),
        ]
        recovered = parse_report(render_json(original))
        assert recovered == [original[0], original[1]]

    def test_finding_dict_round_trip(self):
        finding = Finding(code="MD001", message="cycle: a -> b -> a",
                          subject="n/a", details={"cycle": ["n/a", "n/b"]})
        assert finding_from_dict(finding.to_dict()) == finding

    def test_output_file_written(self, tree, tmp_path, capsys):
        path = tree("bad.py", VIOLATION)
        report_path = tmp_path / "report.json"
        main([path, "--output", str(report_path)])
        capsys.readouterr()
        assert parse_report(report_path.read_text())[0].code == "LK001"


class TestBaseline:
    def test_baseline_workflow(self, tree, tmp_path, capsys):
        path = tree("bad.py", VIOLATION)
        baseline_path = str(tmp_path / "baseline.json")

        # 1. Grandfather the standing violation.
        assert main([path, "--write-baseline", baseline_path]) == 0
        # 2. The baselined tree is green.
        assert main([path, "--baseline", baseline_path]) == 1 - 1
        out = capsys.readouterr().out
        assert "baselined finding(s) hidden" in out
        # 3. A new violation still fails.
        path2 = tree("bad2.py", VIOLATION + WARNING_ONLY)
        assert main([path, path2, "--baseline", baseline_path]) == 1
        capsys.readouterr()

    def test_fingerprint_survives_line_moves(self):
        before = Finding(code="LK001", message="out of order", file="a.py",
                         line=10, scope="R.m", severity=Severity.ERROR)
        after = Finding(code="LK001", message="out  of order", file="a.py",
                        line=99, scope="R.m", severity=Severity.ERROR)
        assert before.fingerprint() == after.fingerprint()

    def test_stale_entries_reported(self, tmp_path, capsys):
        baseline = Baseline({"deadbeefdeadbeef": "LK001 @ gone.py:1"})
        fresh, suppressed, stale = apply_baseline([], baseline)
        assert (fresh, suppressed) == ([], [])
        assert stale == ["deadbeefdeadbeef"]

    def test_baseline_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            Baseline.load(str(path))


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

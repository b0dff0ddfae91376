"""Analyzers for the metadata runtime.

Three analyzers behind one findings pipeline:

* :mod:`repro.analysis.plan` — the **plan verifier**: pure functions over a
  live :class:`~repro.metadata.registry.MetadataSystem` that reject the
  paper's correctness pitfalls (Sections 3.1-3.2, Figures 4-5) before a
  single tuple flows — dependency cycles, dangling edges, update-mechanism
  misuse (codes ``MD001``-``MD009``).
* :mod:`repro.analysis.lockcheck` — the **static lock pass**: one stdlib
  ``ast`` walk that knows the graph -> node -> item lock hierarchy and flags
  inversions, blocking calls under locks, read->write upgrades, and silent
  broad excepts (codes ``LK000``-``LK005``), plus may-block /
  may-acquire(level) summaries over the call graph that catch the same
  blocking calls and inversions through call chains (``LK006``/``LK007``).
* :mod:`repro.analysis.lockgraph` — the **runtime recorder** (deadlock
  sanitizer): a lock-order recorder fed by the ``ReentrantRWLock`` observer
  hook; cycle detection over the recorded graph reports potential
  deadlocks, hierarchy inversions, and locks held across blocking calls
  (codes ``LD001``-``LD003``).

Each returns a list of :class:`~repro.analysis.findings.Finding` objects;
that list is their only output.  The text/JSON reporters and the
``python -m repro.analysis`` CLI live in :mod:`~repro.analysis.report` and
:mod:`~repro.analysis.cli`.
"""

from __future__ import annotations

from repro.analysis.findings import (
    CODES,
    CodeInfo,
    Finding,
    Severity,
    count_by_severity,
    sort_findings,
)
from repro.analysis.lockcheck import lint_paths, lint_source, lint_sources
from repro.analysis.lockgraph import (
    LockOrderRecorder,
    analyze_payload,
    load_payload,
    record_locks,
)
from repro.analysis.plan import PlanIndex, build_index, resolve_plan, verify_system
from repro.analysis.report import render_json, render_text

__all__ = [
    "LockOrderRecorder",
    "analyze_payload",
    "load_payload",
    "record_locks",
    "CODES",
    "CodeInfo",
    "Finding",
    "Severity",
    "count_by_severity",
    "sort_findings",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "PlanIndex",
    "build_index",
    "resolve_plan",
    "verify_system",
    "render_json",
    "render_text",
]

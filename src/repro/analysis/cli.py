"""``python -m repro.analysis`` — run the analyzers from the command line.

Usage::

    python -m repro.analysis [paths...] [--plan SPEC]...
                             [--lock-report FILE]...
                             [--fail-on error|warning]
                             [--output FILE] [--verbose]

``paths`` are files or directories to run the static lock pass over (codes
``LK000``-``LK007``); ``--lock-report`` analyzes a runtime lock-order
recording written by :meth:`repro.analysis.lockgraph.LockOrderRecorder.save`
(or the ``--record-locks`` pytest option), emitting ``LD001``-``LD003``;
``--plan`` names a plan factory for the graph verifier as either
``package.module:factory`` or ``path/to/script.py:factory``.  The factory is
called with no arguments and may return a ``MetadataSystem`` directly, any
object with a ``metadata_system`` attribute (e.g. a frozen ``QueryGraph``),
or a tuple/list containing one — :func:`repro.analysis.plan.resolve_plan`
does the coercion.

The findings are printed as text on stdout; ``--output FILE`` also writes
them as the JSON document of :func:`repro.analysis.report.render_json`.

Exit status: **0** when no finding is at or above the ``--fail-on``
threshold, **1** when one is, **2** on usage or load errors.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
from typing import Callable, Sequence

from repro.analysis.findings import Finding, Severity
from repro.analysis.lockcheck import lint_paths
from repro.analysis.lockgraph import analyze_payload, load_payload
from repro.analysis.plan import resolve_plan, verify_system
from repro.analysis.report import render_json, render_text

__all__ = ["main", "load_plan_factory"]


def load_plan_factory(spec: str) -> Callable[[], object]:
    """Resolve a ``module:factory`` / ``file.py:factory`` plan spec."""
    target, sep, attr = spec.partition(":")
    if not sep or not target or not attr:
        raise ValueError(
            f"--plan {spec!r}: expected 'module:factory' or 'file.py:factory'")
    if target.endswith(".py") or os.sep in target:
        if not os.path.exists(target):
            raise ValueError(f"--plan {spec!r}: no such file: {target}")
        name = "_repro_analysis_plan_" + \
            os.path.splitext(os.path.basename(target))[0]
        module_spec = importlib.util.spec_from_file_location(name, target)
        if module_spec is None or module_spec.loader is None:
            raise ValueError(f"--plan {spec!r}: cannot load {target}")
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[name] = module
        module_spec.loader.exec_module(module)
    else:
        module = importlib.import_module(target)
    factory = getattr(module, attr, None)
    if not callable(factory):
        raise ValueError(
            f"--plan {spec!r}: {target} has no callable {attr!r}")
    return factory


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Analyzers for the metadata runtime: plan verifier "
                    "(MD001-MD009), static lock pass (LK000-LK007), and "
                    "runtime lock-order recordings (LD001-LD003).")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint for lock discipline")
    parser.add_argument(
        "--plan", action="append", default=[], metavar="SPEC",
        help="plan factory to verify, as module:factory or file.py:factory "
             "(repeatable)")
    parser.add_argument(
        "--lock-report", action="append", default=[], metavar="FILE",
        help="runtime lock-order recording (from --record-locks or "
             "LockOrderRecorder.save) to analyze for LD001-LD003 "
             "(repeatable)")
    parser.add_argument(
        "--fail-on", metavar="SEVERITY", default="error",
        help="exit non-zero when a finding of this severity or higher "
             "is reported (default: error)")
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the findings to FILE as a JSON report (useful "
             "for CI artifacts)")
    parser.add_argument(
        "--verbose", action="store_true",
        help="include per-finding details in the text report")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        fail_on = Severity.parse(args.fail_on)
    except ValueError as exc:
        parser.error(str(exc))

    if not args.paths and not args.plan and not args.lock_report:
        parser.error("nothing to analyze: give lint paths, --plan, "
                     "and/or --lock-report")

    findings: list[Finding] = []

    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    if args.paths:
        findings.extend(lint_paths(args.paths))

    for report_path in args.lock_report:
        try:
            payload = load_payload(report_path)
        except (OSError, ValueError) as exc:
            print(f"error: --lock-report {report_path}: {exc}",
                  file=sys.stderr)
            return 2
        findings.extend(analyze_payload(payload))

    for spec in args.plan:
        try:
            factory = load_plan_factory(spec)
            system = resolve_plan(factory())
        except Exception as exc:
            print(f"error: --plan {spec}: {exc}", file=sys.stderr)
            return 2
        findings.extend(verify_system(system))

    print(render_text(findings, verbose=args.verbose))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(render_json(findings))
            fh.write("\n")

    return 1 if any(f.severity.rank >= fail_on.rank for f in findings) else 0

"""Reporters: render a list of findings as text or JSON.

The JSON document is what the CLI's ``--output FILE`` writes.  Schema::

    {
      "version": 1,
      "summary": {"error": N, "warning": N, "info": N},
      "findings": [ {Finding.to_dict()}, ... ]
    }
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.analysis.findings import Finding, count_by_severity, sort_findings

__all__ = ["render_text", "render_json", "REPORT_VERSION"]

REPORT_VERSION = 1


def render_text(findings: Iterable[Finding], *, verbose: bool = False) -> str:
    """One line per finding plus a summary tail (empty-list -> "no findings")."""
    ordered = sort_findings(findings)
    if not ordered:
        return "no findings"
    lines = [str(finding) for finding in ordered]
    if verbose:
        lines = []
        for finding in ordered:
            lines.append(str(finding))
            for key, value in finding.details.items():
                lines.append(f"    {key}: {value}")
    counts = count_by_severity(ordered)
    summary = ", ".join(
        f"{count} {name}{'s' if count != 1 else ''}"
        for name, count in counts.items()
        if count
    )
    lines.append(f"{len(ordered)} finding(s): {summary}")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding], *, indent: int = 2) -> str:
    ordered = sort_findings(findings)
    document: dict[str, Any] = {
        "version": REPORT_VERSION,
        "summary": count_by_severity(ordered),
        "findings": [finding.to_dict() for finding in ordered],
    }
    return json.dumps(document, indent=indent)


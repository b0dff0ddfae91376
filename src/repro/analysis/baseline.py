"""Baseline files: grandfather pre-existing findings without fixing them.

A baseline is a JSON file mapping finding **fingerprints**
(:meth:`repro.analysis.findings.Finding.fingerprint` — stable across line
moves) to a short description of what was grandfathered.  The CLI filters
baselined findings out before computing its exit code, so a team can adopt
the analyzers on a codebase with standing warnings and still fail the build
on anything *new*.

Workflow::

    python -m repro.analysis --write-baseline .analysis-baseline.json src/
    python -m repro.analysis --baseline .analysis-baseline.json src/

Fixing a grandfathered finding leaves a stale entry behind; ``apply``
reports those so the baseline can be re-written and ratcheted down.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.findings import Finding

__all__ = ["Baseline", "apply_baseline"]

_FORMAT_VERSION = 1


@dataclass
class Baseline:
    """A set of grandfathered finding fingerprints."""

    entries: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries: dict[str, str] = {}
        for finding in findings:
            entries[finding.fingerprint()] = f"{finding.code} @ {finding.location}"
        return cls(entries)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, Mapping) or "findings" not in data:
            raise ValueError(f"{path}: not a baseline file")
        entries = data["findings"]
        if not isinstance(entries, Mapping):
            raise ValueError(f"{path}: 'findings' must be an object")
        return cls({str(k): str(v) for k, v in entries.items()})

    def save(self, path: str) -> None:
        payload = {
            "version": _FORMAT_VERSION,
            "findings": dict(sorted(self.entries.items())),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")

    def __contains__(self, finding: Finding) -> bool:
        return finding.fingerprint() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def apply_baseline(
    findings: Iterable[Finding], baseline: Baseline
) -> tuple[list[Finding], list[Finding], list[str]]:
    """Split ``findings`` against ``baseline``.

    Returns ``(fresh, suppressed, stale)``: findings not in the baseline,
    findings the baseline absorbed, and fingerprints in the baseline that no
    longer match anything (fixed since — candidates for ratcheting).
    """
    fresh: list[Finding] = []
    suppressed: list[Finding] = []
    seen: set[str] = set()
    for finding in findings:
        fp = finding.fingerprint()
        if fp in baseline.entries:
            suppressed.append(finding)
            seen.add(fp)
        else:
            fresh.append(finding)
    stale = [fp for fp in baseline.entries if fp not in seen]
    return fresh, suppressed, stale

"""Shared finding model of the static-analysis pipeline.

Both analyzer families — the plan verifier (:mod:`repro.analysis.plan`) and
the lock-discipline lint (:mod:`repro.analysis.lockcheck`) — emit
:class:`Finding` objects with a stable **code**, a **severity**, and enough
location information to act on: graph findings point at ``node/key``
subjects, source findings at ``file:line`` inside a function scope.

Codes are registered in :data:`CODES` with their default severity and a
one-line title.  The code table in ``docs/METADATA_GUIDE.md`` lists the
same codes and severities, and ``tests/analysis/test_cli.py`` checks that
the two agree.

Findings are plain data: the analyzers return a list of them, and
:meth:`Finding.to_dict` is one entry of the CLI's ``--output`` JSON report.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Severity",
    "Finding",
    "CODES",
    "CodeInfo",
    "count_by_severity",
    "sort_findings",
]


class Severity(enum.Enum):
    """Finding severity; comparable via :attr:`rank` (error is highest)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


_SEVERITY_RANK: dict[Severity, int] = {
    Severity.ERROR: 2,
    Severity.WARNING: 1,
    Severity.INFO: 0,
}


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one finding code."""

    code: str
    severity: Severity
    title: str
    paper: str = ""  # section / figure the check reproduces, if any


#: Every code the analyzer families can emit.  ``MD``-codes come from the
#: plan verifier (metadata dependency graphs and update-mechanism misuse);
#: ``LK``-codes from the static lock pass (:mod:`repro.analysis.lockcheck`);
#: ``LD``-codes from the runtime lock-order recorder
#: (:mod:`repro.analysis.lockgraph`).
CODES: dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo("MD001", Severity.ERROR,
                 "dependency cycle (intra- or inter-node)", "Section 2.4"),
        CodeInfo("MD002", Severity.ERROR,
                 "dangling dependency edge (target node or item not "
                 "registered)", "Section 2.3"),
        CodeInfo("MD003", Severity.ERROR,
                 "on-demand handler aggregates periodically-updated inputs "
                 "without event notification", "Section 3.2.3, Figure 5"),
        CodeInfo("MD004", Severity.ERROR,
                 "concurrent on-demand measurements interfere on a shared "
                 "gathering probe", "Section 3.1, Figure 4"),
        CodeInfo("MD005", Severity.ERROR,
                 "periodic handler with multiple consumers but isolation "
                 "disabled", "Section 3.2.2"),
        CodeInfo("MD006", Severity.WARNING,
                 "triggered handler with empty inverted-dependency fan-in "
                 "(never fires)", "Section 3.2.3"),
        CodeInfo("MD007", Severity.WARNING,
                 "period aliasing: periodic handler depends on a slower "
                 "periodic input", "Section 3.2.2"),
        CodeInfo("MD008", Severity.WARNING,
                 "duplicate dependency subscription defeats handler sharing",
                 "Section 3.2.3"),
        CodeInfo("MD009", Severity.WARNING,
                 "failure-policy retries on an on-demand item double-consume "
                 "a shared destructive-read probe", "Section 3.1, Figure 4"),
        CodeInfo("LK000", Severity.ERROR,
                 "source file could not be parsed"),
        CodeInfo("LK001", Severity.ERROR,
                 "lock acquired out of hierarchy order (graph -> node -> "
                 "item)", "Section 4.2"),
        CodeInfo("LK002", Severity.WARNING,
                 "blocking call while holding a registry/node/item lock"),
        CodeInfo("LK003", Severity.ERROR,
                 "RWLock write-acquire while holding the same lock's read "
                 "side (upgrade is rejected at runtime)"),
        CodeInfo("LK004", Severity.WARNING,
                 "broad except swallows errors inside a lock-held region"),
        CodeInfo("LK005", Severity.WARNING,
                 "broad except without a log, raise, or error counter in the "
                 "handler block"),
        CodeInfo("LK006", Severity.WARNING,
                 "transitive blocking call while holding a hierarchy lock "
                 "(reached through the call graph)"),
        CodeInfo("LK007", Severity.ERROR,
                 "transitive lock-order inversion through a call chain "
                 "(callee acquires an earlier-level lock)", "Section 4.2"),
        CodeInfo("LD001", Severity.ERROR,
                 "potential deadlock: cycle in the runtime lock-order graph "
                 "(recorded from real executions)", "Section 4.2"),
        CodeInfo("LD002", Severity.ERROR,
                 "runtime hierarchy inversion: lock acquired against the "
                 "documented graph -> node -> item order", "Section 4.2"),
        CodeInfo("LD003", Severity.WARNING,
                 "lock observed held across a blocking call at runtime"),
    )
}


@dataclass(frozen=True)
class Finding:
    """One verified defect or smell.

    ``subject`` identifies a graph location (``node/key``) for plan
    findings; ``file``/``line``/``scope`` identify a source location for
    lint findings.  ``details`` carries check-specific structured data
    (e.g. the full cycle path for ``MD001``).
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    subject: str = ""
    file: str = ""
    line: int = 0
    scope: str = ""
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def location(self) -> str:
        """Human-readable location: ``file:line`` or the graph subject."""
        if self.file:
            return f"{self.file}:{self.line}" if self.line else self.file
        return self.subject

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.subject:
            data["subject"] = self.subject
        if self.file:
            data["file"] = self.file
            data["line"] = self.line
        if self.scope:
            data["scope"] = self.scope
        if self.details:
            data["details"] = dict(self.details)
        return data

    def __str__(self) -> str:
        where = self.location
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.code} {self.severity.value}: {self.message}"


def count_by_severity(findings: Iterable[Finding]) -> dict[str, int]:
    counts = {severity.value: 0 for severity in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


def sort_findings(findings: Iterable[Finding]) -> list[Finding]:
    """Stable report order: severity (errors first), then location, code."""
    return sorted(
        findings,
        key=lambda f: (-f.severity.rank, f.file or f.subject, f.line, f.code),
    )

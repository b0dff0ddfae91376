"""Metadata discovery and system introspection.

Section 2.2: "This direct assignment of metadata to the individual graph
nodes facilitates metadata discovery because each node gives information
about available metadata items."  Section 1 (application 4) motivates system
profiling for configuration and experiments.

This module turns that into tooling:

* :func:`describe_registry` / :func:`describe_system` — structured snapshots
  of what is published and what is currently included, with handler
  statistics (counters, update counts, staleness).
* :func:`render_report` — a human-readable catalogue dump.
* :func:`to_json` — a JSON string for external tooling.
"""

from __future__ import annotations

import json
from typing import Any

from repro.metadata.registry import MetadataRegistry, MetadataSystem

__all__ = ["describe_registry", "describe_system", "render_report", "to_json"]


def describe_registry(registry: MetadataRegistry) -> dict[str, Any]:
    """Structured snapshot of one node's (or module's) metadata."""
    now = registry.clock.now()
    items = []
    for key in registry.available_keys():
        definition = registry.describe(key)
        entry: dict[str, Any] = {
            "key": key.name,
            "qualifier": list(key.qualifier),
            "mechanism": definition.mechanism.value,
            "class": definition.metadata_class.value,
            "description": definition.description,
            "included": registry.is_included(key),
        }
        if definition.period is not None:
            entry["period"] = definition.period
        if entry["included"]:
            handler = registry.handler(key)
            entry.update({
                "include_count": handler.include_count,
                "consumer_count": handler.consumer_count,
                "update_count": handler.update_count,
                "access_count": handler.access_count,
                "age": (now - handler.last_update_time
                        if handler.last_update_time is not None else None),
            })
            if handler.breaker is not None:
                entry["stale"] = handler.stale
                entry["health"] = handler.breaker.describe()
        items.append(entry)
    return {
        "owner": str(getattr(registry.owner, "name", registry.owner)),
        "defined": len(items),
        "included": sum(1 for item in items if item["included"]),
        "items": items,
    }


def describe_system(system: MetadataSystem) -> dict[str, Any]:
    """Snapshot of every registry plus global accounting, telemetry, and the
    static verifier's verdict on the current plan."""
    # Imported lazily: introspection must not pull in the analyzers (and
    # their AST machinery) unless a snapshot is actually taken.
    from repro.analysis.findings import count_by_severity
    from repro.analysis.plan import verify_system

    telemetry = system.telemetry
    findings = verify_system(system)
    return {
        "stats": system.stats(),
        "telemetry": telemetry.describe() if telemetry is not None
        else {"enabled": False},
        "analysis": {
            "clean": not findings,
            "summary": count_by_severity(findings),
            "findings": [finding.to_dict() for finding in findings],
        },
        "health": _describe_health(system),
        "locks": {
            "policy": type(system.lock_policy).__name__,
            "aggregate": system.lock_policy.aggregate_stats().to_dict(),
            "hot": system.lock_policy.hot_locks(),
        },
        "registries": [describe_registry(r) for r in system.registries()],
    }


def _describe_health(system: MetadataSystem) -> dict[str, Any]:
    """Roll-up of every policy-governed handler whose circuit is unhealthy:
    the stale-while-failing working set an operator needs to see first."""
    unhealthy: list[dict[str, Any]] = []
    quarantined = 0
    for registry in system.registries():
        owner = str(getattr(registry.owner, "name", registry.owner))
        for key in registry.included_keys():
            handler = registry.handler(key)
            breaker = handler.breaker
            if breaker is None:
                continue
            status = breaker.describe()
            if status["state"] == "healthy":
                continue
            if status["state"] == "quarantined":
                quarantined += 1
            unhealthy.append({
                "node": owner,
                "key": key.name,
                "qualifier": list(key.qualifier),
                "stale": handler.stale,
                **status,
            })
    return {
        "unhealthy": len(unhealthy),
        "quarantined": quarantined,
        "items": unhealthy,
    }


def render_report(system: MetadataSystem, included_only: bool = False) -> str:
    """Readable catalogue of the system's metadata.

    ``included_only=True`` restricts the listing to items with live handlers
    — the working set the pub-sub architecture actually maintains.
    """
    snapshot = describe_system(system)
    lines = [f"metadata system: {snapshot['stats']}"]
    for registry in snapshot["registries"]:
        items = registry["items"]
        if included_only:
            items = [item for item in items if item["included"]]
            if not items:
                continue
        lines.append("")
        lines.append(f"{registry['owner']}  "
                     f"(defined={registry['defined']}, "
                     f"included={registry['included']})")
        for item in items:
            marker = "*" if item["included"] else " "
            qualifier = f"[{','.join(map(str, item['qualifier']))}]" \
                if item["qualifier"] else ""
            suffix = ""
            if item["included"]:
                suffix = (f"  refs={item['include_count']} "
                          f"updates={item['update_count']}")
            lines.append(f"  {marker} {item['key']}{qualifier:<6} "
                         f"{item['mechanism']:<9}{suffix}")
    return "\n".join(lines)


def to_json(system: MetadataSystem, indent: int | None = 2) -> str:
    """JSON snapshot of :func:`describe_system` (values stringified)."""

    def default(obj: Any) -> str:
        return str(obj)

    return json.dumps(describe_system(system), indent=indent, default=default)

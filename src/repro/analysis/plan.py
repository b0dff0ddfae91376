"""Static plan verifier for metadata dependency graphs (codes ``MD001``+).

The paper's correctness pitfalls — interfering concurrent on-demand
measurements (Section 3.1, Figure 4) and on-demand aggregation over
periodically-updated inputs (Section 3.2.3, Figure 5) — corrupt metadata
values silently at runtime.  This module rejects such plans *before a single
tuple flows*: pure functions over a built :class:`MetadataSystem` resolve
every definition's symbolic dependency specs against the actual graph wiring
(without including anything) and emit typed findings with stable codes.

=====  ====================================================================
MD001  dependency cycle, intra- or inter-node (full cycle path in message)
MD002  dangling dependency edge: the target node has no registry, the
       target item is not defined there, or the item's dependency resolver
       raises
MD003  on-demand handler with periodically-updated inputs — the Figure 5
       bug (the aggregate is sampled at access times, unsynchronized with
       the input's refresh grid; use a triggered handler)
MD004  two or more concurrent consumers drive an on-demand measurement
       whose computation consumes shared gathering-probe state — the
       Figure 4 bug (each access resets the window under the others)
MD005  periodic handler with multiple consumers while isolation is
       disabled (``NoOpLockPolicy`` under a ``ThreadedScheduler``: worker
       refreshes race unsynchronized consumer reads)
MD006  triggered handler whose inverted-dependency fan-in is empty (no
       dependency can ever change, so it never refreshes after inclusion)
MD007  period aliasing: a periodic handler depends on a *slower* periodic
       input and re-reads the same stale value every refresh
MD008  the same dependency target appears twice in one definition —
       redundant subscription; ``ctx.value`` becomes ambiguous and the
       duplicate-notification suppression of Section 3.2.3 has to repair
       what the plan should not contain
MD009  a failure policy with retries on an on-demand item whose
       computation reads a destructive-read gathering probe — every retry
       consumes another measurement window, so a transient failure
       corrupts the very value the retry is trying to save (the Figure 4
       interference, self-inflicted)
=====  ====================================================================

Checks MD001/MD002/MD003/MD006/MD007/MD008 are purely structural and work
on a freshly built plan with no subscriptions; MD004/MD005 also read live
consumer counts, so run the verifier after installing the consumers (still
before any tuple flows).

Definitions with *dynamic* dependency resolvers (Section 4.4.3) are resolved
by calling the resolver — resolvers are required to be side-effect-free
inspections of the node.  A resolver that raises is ``MD002`` with the
exception text: subscribing the item would raise the same error.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.analysis.findings import CODES, Finding, sort_findings
from repro.common.errors import MetadataError
from repro.metadata.item import Mechanism, MetadataDefinition, MetadataKey
from repro.metadata.locks import NoOpLockPolicy
from repro.metadata.monitor import CostProbe, CounterProbe, GaugeProbe, MeanProbe, Probe
from repro.metadata.registry import MetadataRegistry, MetadataSystem
from repro.metadata.scheduling import ThreadedScheduler
from repro.telemetry.events import key_of

__all__ = ["PlanIndex", "build_index", "verify_system", "resolve_plan"]

#: ``(registry identity, key)`` — one vertex of the resolved dependency graph.
VertexId = tuple[int, MetadataKey]


def _owner_name(registry: MetadataRegistry) -> str:
    return str(getattr(registry.owner, "name", registry.owner))


def _subject(registry: MetadataRegistry, key: MetadataKey) -> str:
    return f"{_owner_name(registry)}/{key_of(key)}"


class PlanIndex:
    """Resolved, side-effect-free snapshot of a system's dependency graph.

    Vertices are every *defined* item of every registry (included or not);
    edges are the statically-resolved dependency specs.  Items whose dynamic
    resolver raised carry no edges and list the error in :attr:`dangling`.
    """

    def __init__(self) -> None:
        self.vertices: dict[VertexId, tuple[MetadataRegistry, MetadataDefinition]] = {}
        #: vertex -> resolved dependency targets, in spec resolution order
        #: (duplicates preserved — MD008 needs them).
        self.edges: dict[VertexId, list[VertexId]] = {}
        #: vertex -> resolution failures: (spec, error message) pairs.
        self.dangling: dict[VertexId, list[tuple[Any, str]]] = {}

    def registry_of(self, vertex: VertexId) -> MetadataRegistry:
        return self.vertices[vertex][0]

    def definition_of(self, vertex: VertexId) -> MetadataDefinition:
        return self.vertices[vertex][1]

    def subject(self, vertex: VertexId) -> str:
        registry, definition = self.vertices[vertex]
        return _subject(registry, definition.key)

    def mechanism_of(self, vertex: VertexId) -> Mechanism:
        return self.vertices[vertex][1].mechanism


def build_index(system: MetadataSystem) -> PlanIndex:
    """Resolve every definition's dependency specs against the wiring."""
    index = PlanIndex()
    for registry in system.registries():
        for key in registry.available_keys():
            definition = registry.describe(key)
            index.vertices[(id(registry), key)] = (registry, definition)

    for vertex, (registry, definition) in index.vertices.items():
        targets: list[VertexId] = []
        index.edges[vertex] = targets
        try:
            specs = definition.resolve_specs(registry)
        except Exception as exc:  # noqa: BLE001 - resolver is user code
            resolver = getattr(definition.dependencies, "__qualname__",
                               "resolver")
            index.dangling[vertex] = [
                (resolver, f"resolver raised {type(exc).__name__}: {exc}")]
            continue
        for spec in specs:
            try:
                resolved = list(registry._resolve_spec(spec))
            except MetadataError as exc:
                index.dangling.setdefault(vertex, []).append((spec, str(exc)))
                continue
            for target_registry, dep_key in resolved:
                target: VertexId = (id(target_registry), dep_key)
                if target not in index.vertices:
                    index.dangling.setdefault(vertex, []).append(
                        (spec,
                         f"item {key_of(dep_key)} is not defined on "
                         f"{_owner_name(target_registry)}"))
                    continue
                targets.append(target)
    return index


def resolve_plan(obj: Any) -> MetadataSystem:
    """Coerce a factory result to a :class:`MetadataSystem`.

    Accepts a system, anything exposing ``metadata_system`` (a
    ``QueryGraph``), or a tuple/list containing either (the shape example
    ``build_plan`` factories return).
    """
    if isinstance(obj, MetadataSystem):
        return obj
    candidate = getattr(obj, "metadata_system", None)
    if isinstance(candidate, MetadataSystem):
        return candidate
    if isinstance(obj, (tuple, list)):
        for element in obj:
            try:
                return resolve_plan(element)
            except MetadataError:
                continue
    raise MetadataError(
        f"cannot resolve a MetadataSystem from {type(obj).__name__!r}; "
        "return the system, a QueryGraph, or a tuple containing one"
    )


# ---------------------------------------------------------------------------
# Individual checks.  Each is a pure function PlanIndex -> findings.
# ---------------------------------------------------------------------------


def _finding(code: str, subject: str, message: str,
             details: dict[str, Any] | None = None) -> Finding:
    return Finding(code=code, message=message, subject=subject,
                   severity=CODES[code].severity, details=details or {})


def _check_cycles(index: PlanIndex) -> Iterator[Finding]:
    """MD001 — cycles over the resolved dependency graph (iterative DFS)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[VertexId, int] = {v: WHITE for v in index.vertices}
    reported: set[frozenset[VertexId]] = set()

    for root in index.vertices:
        if color[root] != WHITE:
            continue
        # Stack entries: (vertex, iterator over its dependency targets).
        path: list[VertexId] = []
        stack: list[tuple[VertexId, Iterator[VertexId]]] = [
            (root, iter(index.edges.get(root, ())))]
        color[root] = GREY
        path.append(root)
        while stack:
            vertex, children = stack[-1]
            advanced = False
            for child in children:
                if color[child] == GREY:
                    start = path.index(child)
                    cycle = path[start:] + [child]
                    identity = frozenset(cycle)
                    if identity not in reported:
                        reported.add(identity)
                        rendered = " -> ".join(index.subject(v) for v in cycle)
                        inter = len({v[0] for v in cycle[:-1]}) > 1
                        yield _finding(
                            "MD001", index.subject(child),
                            f"dependency cycle "
                            f"({'inter' if inter else 'intra'}-node): "
                            f"{rendered}",
                            {"cycle": [index.subject(v) for v in cycle]})
                elif color[child] == WHITE:
                    color[child] = GREY
                    path.append(child)
                    stack.append((child, iter(index.edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[vertex] = BLACK
                path.pop()
                stack.pop()


def _check_dangling(index: PlanIndex) -> Iterator[Finding]:
    """MD002 — dependency specs that resolve to nothing."""
    for vertex, problems in index.dangling.items():
        for spec, reason in problems:
            yield _finding(
                "MD002", index.subject(vertex),
                f"dangling dependency {spec!r}: {reason}",
                {"spec": repr(spec)})


def _check_mechanism_mismatch(index: PlanIndex) -> Iterator[Finding]:
    """MD003 — on-demand items consuming periodically-updated inputs."""
    for vertex, targets in index.edges.items():
        if index.mechanism_of(vertex) is not Mechanism.ON_DEMAND:
            continue
        for target in targets:
            if index.mechanism_of(target) is Mechanism.PERIODIC:
                yield _finding(
                    "MD003", index.subject(vertex),
                    f"on-demand item depends on periodically-updated "
                    f"{index.subject(target)}: accesses sample the input on "
                    f"the consumer's schedule, unsynchronized with its "
                    f"refresh grid (the Figure 5 mis-weighted average); "
                    f"use a TRIGGERED handler so every update is folded "
                    f"exactly once",
                    {"input": index.subject(target),
                     "input_period": index.definition_of(target).period})


def _stateful_probes(registry: MetadataRegistry,
                     definition: MetadataDefinition) -> list[Probe]:
    """Monitoring probes of ``definition`` whose reads consume state.

    Counter/rate, cost and mean probes gather into a window that their
    read-and-reset accessors destroy; gauges are pure reads and safe for
    concurrent on-demand access.
    """
    probes = []
    for name in definition.monitors:
        try:
            probe = registry.probe(name)
        except MetadataError:
            continue  # missing probe: surfaces as a runtime error, not MD004
        if isinstance(probe, (CounterProbe, CostProbe, MeanProbe)) and \
                not isinstance(probe, GaugeProbe):
            probes.append(probe)
    return probes


def _check_on_demand_interference(index: PlanIndex) -> Iterator[Finding]:
    """MD004 — Figure 4: concurrent consumers on a destructive-read probe.

    Groups *included* on-demand items by the stateful probe they read; two
    or more consumers across one probe's group interleave their resets and
    destroy each other's measurement window.
    """
    groups: dict[int, tuple[Probe, list[tuple[VertexId, int]]]] = {}
    for vertex, (registry, definition) in index.vertices.items():
        if definition.mechanism is not Mechanism.ON_DEMAND:
            continue
        if not registry.is_included(definition.key):
            continue
        consumers = registry.handler(definition.key).consumer_count
        for probe in _stateful_probes(registry, definition):
            entry = groups.setdefault(id(probe), (probe, []))
            entry[1].append((vertex, consumers))

    for probe, members in groups.values():
        total = sum(consumers for _, consumers in members)
        if total < 2:
            continue
        subjects = [index.subject(vertex) for vertex, _ in members]
        for vertex, consumers in members:
            yield _finding(
                "MD004", index.subject(vertex),
                f"{total} concurrent consumers drive on-demand "
                f"measurements over the shared gathering probe "
                f"{probe.name!r} (items: {', '.join(subjects)}); each "
                f"access resets the probe's window under the others — "
                f"the Figure 4 interference; use one PERIODIC handler "
                f"and let consumers share its pre-computed value",
                {"probe": probe.name, "consumers": total,
                 "items": subjects})


def _check_periodic_isolation(index: PlanIndex,
                              system: MetadataSystem) -> Iterator[Finding]:
    """MD005 — multi-consumer periodic items without isolation."""
    if not isinstance(system.lock_policy, NoOpLockPolicy):
        return
    if not isinstance(system.scheduler, ThreadedScheduler):
        return
    for vertex, (registry, definition) in index.vertices.items():
        if definition.mechanism is not Mechanism.PERIODIC:
            continue
        if not registry.is_included(definition.key):
            continue
        consumers = registry.handler(definition.key).consumer_count
        if consumers >= 2:
            yield _finding(
                "MD005", index.subject(vertex),
                f"periodic item has {consumers} consumers but isolation is "
                f"disabled (NoOpLockPolicy under ThreadedScheduler): "
                f"worker-thread refreshes race unsynchronized consumer "
                f"reads; use FineGrainedLockPolicy so the item lock "
                f"restores Section 3.2.2's isolation condition",
                {"consumers": consumers})


def _check_never_fires(index: PlanIndex) -> Iterator[Finding]:
    """MD006 — triggered items nothing can ever trigger."""
    for vertex, targets in index.edges.items():
        if index.mechanism_of(vertex) is not Mechanism.TRIGGERED:
            continue
        if vertex in index.dangling:
            continue  # incomplete edge set; MD002 already reports this item
        live = [t for t in targets
                if index.mechanism_of(t) is not Mechanism.STATIC]
        if not live:
            reason = ("has no dependencies" if not targets else
                      "depends only on STATIC items, which never change")
            yield _finding(
                "MD006", index.subject(vertex),
                f"triggered item {reason}: its inverted-dependency fan-in "
                f"is empty, so after the initial computation it never "
                f"refreshes (no wave can reach it; manual "
                f"notify_changed only reaches *dependents* of a key)",
                {"dependencies": [index.subject(t) for t in targets]})


def _check_period_aliasing(index: PlanIndex) -> Iterator[Finding]:
    """MD007 — periodic item refreshing faster than a periodic input."""
    for vertex, targets in index.edges.items():
        definition = index.definition_of(vertex)
        if definition.mechanism is not Mechanism.PERIODIC:
            continue
        assert definition.period is not None  # enforced by __post_init__
        for target in targets:
            dep = index.definition_of(target)
            if dep.mechanism is not Mechanism.PERIODIC:
                continue
            assert dep.period is not None
            if dep.period > definition.period:
                yield _finding(
                    "MD007", index.subject(vertex),
                    f"period aliasing: refreshes every "
                    f"{definition.period:g} time units but input "
                    f"{index.subject(target)} only updates every "
                    f"{dep.period:g} — "
                    f"{dep.period / definition.period:.1f} consecutive "
                    f"refreshes re-read the same stale value; align the "
                    f"periods or make this item TRIGGERED by its input",
                    {"period": definition.period,
                     "input_period": dep.period,
                     "input": index.subject(target)})


def _check_duplicate_subscription(index: PlanIndex) -> Iterator[Finding]:
    """MD008 — the same dependency target listed twice in one definition."""
    for vertex, targets in index.edges.items():
        seen: set[VertexId] = set()
        flagged: set[VertexId] = set()
        for target in targets:
            if target in seen and target not in flagged:
                flagged.add(target)
                yield _finding(
                    "MD008", index.subject(vertex),
                    f"dependency {index.subject(target)} is subscribed "
                    f"twice by the same definition: the include counter "
                    f"is inflated, ctx.value() becomes ambiguous, and "
                    f"only the duplicate-notification suppression of "
                    f"Section 3.2.3 keeps propagation from refreshing "
                    f"twice — drop the redundant spec",
                    {"duplicate": index.subject(target)})
            seen.add(target)


def _check_retry_probe_consumption(index: PlanIndex) -> Iterator[Finding]:
    """MD009 — failure-policy retries over a destructive-read probe.

    An on-demand computation that reads a read-and-reset probe consumes the
    measurement window.  With ``max_retries >= 1`` a transient failure makes
    the handler read the probe again within the same logical access; the
    second read sees a near-empty window, so the retried value is wrong in
    exactly the way MD004 describes — except here a *single* consumer is
    enough to interfere with itself.
    """
    for vertex, (registry, definition) in index.vertices.items():
        if definition.mechanism is not Mechanism.ON_DEMAND:
            continue
        policy = definition.failure_policy
        if policy is None or policy.max_retries < 1:
            continue
        for probe in _stateful_probes(registry, definition):
            yield _finding(
                "MD009", index.subject(vertex),
                f"failure policy allows {policy.max_retries} retr"
                f"{'y' if policy.max_retries == 1 else 'ies'} but the "
                f"computation reads the destructive gathering probe "
                f"{probe.name!r}: each retry resets the measurement "
                f"window mid-access and the retried value is computed "
                f"from a truncated window; set max_retries=0 for this "
                f"item or gather into a probe that tolerates re-reads "
                f"(a gauge)",
                {"probe": probe.name, "max_retries": policy.max_retries})


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def verify_system(system: MetadataSystem) -> list[Finding]:
    """Run every plan check against ``system`` and return sorted findings."""
    index = build_index(system)
    findings: list[Finding] = []
    findings.extend(_check_cycles(index))
    findings.extend(_check_dangling(index))
    findings.extend(_check_mechanism_mismatch(index))
    findings.extend(_check_on_demand_interference(index))
    findings.extend(_check_periodic_isolation(index, system))
    findings.extend(_check_never_fires(index))
    findings.extend(_check_period_aliasing(index))
    findings.extend(_check_duplicate_subscription(index))
    findings.extend(_check_retry_probe_consumption(index))
    return sort_findings(findings)

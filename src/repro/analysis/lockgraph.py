"""Runtime lock-order recording and deadlock analysis (codes ``LD001``+).

The static lock pass (:mod:`repro.analysis.lockcheck`) sees the whole
program but only what the AST can prove.  This module closes the remaining
gap with **sanitizer-grade runtime observation**: a
:class:`LockOrderRecorder` installed as the process-wide
:class:`~repro.common.rwlock.ReentrantRWLock` observer records, from real
executions (the stress suite, a :class:`~repro.common.racecheck.RaceCheck`
run, a benchmark), which locks each thread held when it acquired the next
one.  The accumulated **lock-order graph** is then analyzed offline:

=====  ====================================================================
LD001  potential deadlock: a cycle in the recorded lock-order graph
       (thread 1 acquired A then B, thread 2 acquired B then A — even if
       the timing never actually deadlocked).  Reported with both
       acquisition stacks of every edge on the cycle plus lock
       names/levels.
LD002  runtime hierarchy inversion: a lock of an earlier documented level
       (graph -> node -> item) acquired while a later-level lock was held
       — the dynamic twin of the static ``LK001``.
LD003  a lock observed held across a blocking call (``time.sleep``,
       ``Event.wait``, or anything reported via :meth:`LockOrderRecorder.
       note_blocking`) — latency and convoy risk even without a cycle.
=====  ====================================================================

While **no** recorder is installed — the shipped default — every hook in
``ReentrantRWLock`` is a single ``observer is None`` check, the same
discipline the telemetry hooks follow (the end-to-end benchmark's
parent-vs-change run guards that path).

Usage::

    from repro.analysis.lockgraph import record_locks

    with record_locks() as recorder:
        run_stress_workload()
    findings = recorder.findings()       # -> list[Finding], LD001-LD003
    recorder.save("lock-report.json")    # replayable via the CLI:
    # python -m repro.analysis --lock-report lock-report.json

The pytest integration (``--record-locks``, see
:mod:`repro.analysis.pytest_lockrecord`) wraps a whole test session in one
recording and fails the run on any LD finding.

Suppression mirrors the lint: an ``# analysis: ignore[LD001]`` comment on
the *acquiring* source line (the innermost frame of the recorded stack)
excuses that edge/observation.  Identity is per lock **instance**, never per
lock name, so two unrelated systems that both own a lock called ``graph``
can never weave a false cycle together.
"""

from __future__ import annotations

import json
import linecache
import threading
import time
import traceback
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.analysis.findings import CODES, Finding
from repro.analysis.lockcheck import (
    LEVELS,
    strongly_connected,
    suppression_covers,
)
from repro.common.rwlock import ReentrantRWLock

__all__ = [
    "LockOrderRecorder",
    "record_locks",
    "analyze_payload",
    "load_payload",
    "infer_level",
]

#: Payload schema version of :meth:`LockOrderRecorder.to_payload`.
PAYLOAD_VERSION = 1

#: Stack frames whose file matches one of these suffixes are machinery, not
#: user code, and are dropped from recorded acquisition stacks.
_MACHINERY_SUFFIXES = ("rwlock.py", "lockgraph.py", "contextlib.py")


def infer_level(name: str) -> str | None:
    """Hierarchy level of a lock from its runtime name.

    The lock policies name their locks ``graph``, ``node:<owner>`` and
    ``item:<key>`` (:mod:`repro.metadata.locks`); anything else — ad-hoc
    locks in tests, ``global`` coarse locks — has no level and participates
    in cycle detection only.
    """
    head = name.split(":", 1)[0]
    return head if head in LEVELS else None


def _capture_stack(limit: int) -> list[dict[str, Any]]:
    """Innermost ``limit`` user frames, outermost first."""
    frames = traceback.extract_stack()
    kept = [
        {"file": f.filename, "line": f.lineno or 0, "function": f.name}
        for f in frames
        if not f.filename.endswith(_MACHINERY_SUFFIXES)
    ]
    return kept[-limit:]


def _format_stack(stack: list[Mapping[str, Any]]) -> list[str]:
    return [f"{f['file']}:{f['line']} in {f['function']}" for f in stack]


def _site_of(stack: list[Mapping[str, Any]]) -> tuple[str, int]:
    """(file, line) of the innermost recorded frame (the acquiring site)."""
    if not stack:
        return "", 0
    frame = stack[-1]
    return str(frame["file"]), int(frame["line"])


def _site_suppressed(stack: list[Mapping[str, Any]], code: str) -> bool:
    """``# analysis: ignore[...]`` check against the acquiring source line."""
    path, line = _site_of(stack)
    if not path or not line:
        return False
    text = linecache.getline(path, line)
    return bool(text) and suppression_covers(text, code)


@dataclass
class _Held:
    """One lock a thread currently holds (acquisition order preserved)."""

    serial: int
    name: str
    level: str | None
    mode: str
    depth: int
    stack: list[dict[str, Any]]


@dataclass
class _Edge:
    """Observed order: ``src`` was held when ``dst`` was first acquired."""

    src: int
    dst: int
    count: int = 0
    threads: set[str] = field(default_factory=set)
    src_mode: str = ""
    dst_mode: str = ""
    src_stack: list[dict[str, Any]] = field(default_factory=list)
    dst_stack: list[dict[str, Any]] = field(default_factory=list)


class LockOrderRecorder:
    """Thread-safe accumulator of runtime lock-order observations.

    Install with :meth:`session` (or the :func:`record_locks` convenience),
    run any multi-threaded workload, then ask for :meth:`findings` or dump
    :meth:`to_payload` for offline analysis.  ``capture_stacks=False`` drops
    the (comparatively expensive) stack capture for overhead measurements;
    findings then report lock names only.
    """

    def __init__(self, *, capture_stacks: bool = True,
                 stack_depth: int = 10) -> None:
        self.capture_stacks = capture_stacks
        self.stack_depth = stack_depth
        self._mutex = threading.Lock()
        self._tls = threading.local()
        #: serial -> {"name", "level"}; serials are id()s pinned by _refs.
        self._locks: dict[int, dict[str, Any]] = {}
        #: Keeps every observed lock alive so id() reuse cannot alias two
        #: distinct locks into one graph node during a recording.
        self._refs: dict[int, Any] = {}
        self._edges: dict[tuple[int, int], _Edge] = {}
        self._inversions: dict[tuple[int, int], dict[str, Any]] = {}
        self._blocking: dict[tuple[int, str, tuple[str, int]], dict[str, Any]] = {}
        self.acquisitions = 0

    # -- per-thread lockset -------------------------------------------------

    def _held(self) -> list[_Held]:
        entries = getattr(self._tls, "entries", None)
        if entries is None:
            entries = []
            self._tls.entries = entries
        return entries

    def held_locks(self) -> list[str]:
        """Names of the locks the calling thread currently holds (ordered)."""
        return [entry.name for entry in self._held()]

    # -- observer protocol (called by ReentrantRWLock) ----------------------

    def on_acquire(self, lock: Any, mode: str, nested: bool,
                   contended: bool) -> None:
        held = self._held()
        serial = id(lock)
        if nested:
            for entry in held:
                if entry.serial == serial:
                    entry.depth += 1
                    return
            # Already held before the recorder was installed: track the
            # depth so releases balance, but record no ordering edge (the
            # outer acquisition was never observed).
            held.append(_Held(serial, getattr(lock, "name", "") or repr(lock),
                              None, mode, 1, []))
            return
        name = getattr(lock, "name", "") or repr(lock)
        level = infer_level(name)
        stack = _capture_stack(self.stack_depth) if self.capture_stacks else []
        thread = threading.current_thread().name
        with self._mutex:
            self.acquisitions += 1
            if serial not in self._locks:
                self._locks[serial] = {"name": name, "level": level}
                self._refs[serial] = lock
            for entry in held:
                if not entry.stack and entry.level is None and \
                        entry.serial not in self._locks:
                    continue  # untracked pre-session hold: no edge basis
                edge = self._edges.get((entry.serial, serial))
                if edge is None:
                    edge = _Edge(entry.serial, serial,
                                 src_mode=entry.mode, dst_mode=mode,
                                 src_stack=list(entry.stack),
                                 dst_stack=list(stack))
                    self._edges[(entry.serial, serial)] = edge
                edge.count += 1
                edge.threads.add(thread)
                if entry.level is not None and level is not None and \
                        LEVELS[entry.level] > LEVELS[level]:
                    inv = self._inversions.get((entry.serial, serial))
                    if inv is None:
                        self._inversions[(entry.serial, serial)] = {
                            "held": {"name": entry.name, "level": entry.level,
                                     "mode": entry.mode,
                                     "stack": list(entry.stack)},
                            "acquired": {"name": name, "level": level,
                                         "mode": mode, "stack": list(stack)},
                            "threads": {thread},
                            "count": 1,
                        }
                    else:
                        inv["count"] += 1
                        inv["threads"].add(thread)
        held.append(_Held(serial, name, level, mode, 1, stack))

    def on_release(self, lock: Any, mode: str, released: bool) -> None:
        held = self._held()
        serial = id(lock)
        for index in range(len(held) - 1, -1, -1):
            entry = held[index]
            if entry.serial != serial:
                continue
            if released:
                del held[index]
            elif entry.depth > 1:
                entry.depth -= 1
            return

    # -- blocking-call observations (LD003) ---------------------------------

    def note_blocking(self, description: str) -> None:
        """Record that the calling thread is entering a blocking operation.

        A no-op unless the thread holds at least one observed lock; then one
        LD003 observation per (outermost lock, call, site) is kept.
        """
        held = self._held()
        if not held:
            return
        stack = _capture_stack(self.stack_depth) if self.capture_stacks else []
        site = _site_of(stack)
        thread = threading.current_thread().name
        with self._mutex:
            key = (held[-1].serial, description, site)
            obs = self._blocking.get(key)
            if obs is None:
                self._blocking[key] = {
                    "call": description,
                    "locks": [{"name": e.name, "level": e.level,
                               "mode": e.mode} for e in held],
                    "stack": stack,
                    "threads": {thread},
                    "count": 1,
                }
            else:
                obs["count"] += 1
                obs["threads"].add(thread)

    @contextmanager
    def blocking(self, description: str) -> Iterator[None]:
        """Context manager form of :meth:`note_blocking`."""
        self.note_blocking(description)
        yield

    @contextmanager
    def instrument_blocking(self) -> Iterator[None]:
        """Patch the runtime blocking catalogue to report through this
        recorder while the context is active.

        Patched: ``time.sleep`` and ``threading.Event.wait`` — the two
        catalogue entries that actually occur in in-process stress runs.
        The static catalogue (:data:`repro.analysis.lockcheck.
        BLOCKING_CATALOGUE`) is a superset; anything else can be reported
        explicitly via :meth:`note_blocking` / :meth:`blocking`.
        """
        original_sleep = time.sleep
        original_wait = threading.Event.wait
        recorder = self

        def traced_sleep(seconds: float) -> None:
            recorder.note_blocking(f"time.sleep({seconds!r})")
            original_sleep(seconds)

        def traced_wait(event: threading.Event,
                        timeout: float | None = None) -> bool:
            recorder.note_blocking("Event.wait")
            return original_wait(event, timeout)

        time.sleep = traced_sleep
        threading.Event.wait = traced_wait  # type: ignore[method-assign]
        try:
            yield
        finally:
            time.sleep = original_sleep
            threading.Event.wait = original_wait  # type: ignore[method-assign]

    # -- session management -------------------------------------------------

    def install(self) -> None:
        """Install as the process-wide ``ReentrantRWLock`` observer."""
        ReentrantRWLock.install_observer(self)

    def uninstall(self) -> None:
        ReentrantRWLock.uninstall_observer()

    @contextmanager
    def session(self, *, instrument_blocking: bool = True
                ) -> Iterator["LockOrderRecorder"]:
        """Install the recorder (and optionally the blocking-call patches)
        for the duration of the context.

        Re-entrant for the *same* recorder: if this recorder is already the
        installed observer (e.g. a ``RaceCheck`` run inside a session-wide
        ``--record-locks`` recording), the inner session leaves the outer
        installation in place on exit.
        """
        already_installed = ReentrantRWLock.observer is self
        if not already_installed:
            self.install()
        try:
            if instrument_blocking:
                with self.instrument_blocking():
                    yield self
            else:
                yield self
        finally:
            if not already_installed:
                self.uninstall()

    # -- payload / analysis -------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe dump of everything recorded (schema ``version: 1``)."""
        with self._mutex:
            locks = [
                {"serial": serial, **info}
                for serial, info in sorted(self._locks.items())
            ]
            edges = [
                {
                    "src": edge.src, "dst": edge.dst, "count": edge.count,
                    "threads": sorted(edge.threads),
                    "src_mode": edge.src_mode, "dst_mode": edge.dst_mode,
                    "src_stack": list(edge.src_stack),
                    "dst_stack": list(edge.dst_stack),
                }
                for edge in self._edges.values()
            ]
            inversions = [
                {
                    "held": dict(inv["held"]),
                    "acquired": dict(inv["acquired"]),
                    "threads": sorted(inv["threads"]),
                    "count": inv["count"],
                }
                for inv in self._inversions.values()
            ]
            blocking = [
                {
                    "call": obs["call"], "locks": list(obs["locks"]),
                    "stack": list(obs["stack"]),
                    "threads": sorted(obs["threads"]),
                    "count": obs["count"],
                }
                for obs in self._blocking.values()
            ]
            return {
                "version": PAYLOAD_VERSION,
                "acquisitions": self.acquisitions,
                "locks": locks,
                "edges": edges,
                "inversions": inversions,
                "blocking": blocking,
            }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_payload(), fh, indent=2)
            fh.write("\n")

    def findings(self) -> list[Finding]:
        """Analyze the recorded graph: LD001 cycles, LD002 inversions,
        LD003 blocking observations."""
        return analyze_payload(self.to_payload())


@contextmanager
def record_locks(*, instrument_blocking: bool = True,
                 capture_stacks: bool = True,
                 stack_depth: int = 10) -> Iterator[LockOrderRecorder]:
    """Create a :class:`LockOrderRecorder` and install it for the context::

        with record_locks() as recorder:
            workload()
        assert recorder.findings() == []
    """
    recorder = LockOrderRecorder(capture_stacks=capture_stacks,
                                 stack_depth=stack_depth)
    with recorder.session(instrument_blocking=instrument_blocking):
        yield recorder


def load_payload(path: str) -> dict[str, Any]:
    """Load a payload written by :meth:`LockOrderRecorder.save`."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, Mapping) or "edges" not in data:
        raise ValueError(f"{path}: not a lock-order recording")
    return dict(data)


# ---------------------------------------------------------------------------
# Offline analysis of a payload
# ---------------------------------------------------------------------------


def _cycle_path(members: set[int], adjacency: dict[int, list[int]],
                start: int) -> list[int]:
    """One concrete cycle through ``start`` inside an SCC (for reporting)."""
    path = [start]
    seen = {start}
    node = start
    while True:
        for child in adjacency.get(node, []):
            if child == start and len(path) > 1:
                return path
            if child in members and child not in seen:
                path.append(child)
                seen.add(child)
                node = child
                break
        else:
            # Dead end inside the SCC (shouldn't happen, SCC is strongly
            # connected) — back out one step.
            path.pop()
            if not path:
                return [start]
            node = path[-1]


def analyze_payload(payload: Mapping[str, Any]) -> list[Finding]:
    """Turn a recorded payload into LD001/LD002/LD003 findings.

    Edges whose acquiring source line carries ``# analysis: ignore[LD001]``
    are removed before cycle detection (a suppressed edge breaks the cycle
    it would witness); LD002/LD003 observations are suppressed the same way
    against their own codes.
    """
    findings: list[Finding] = []
    lock_info = {int(lock["serial"]): lock for lock in payload.get("locks", [])}

    def describe(serial: int) -> str:
        info = lock_info.get(serial, {})
        name = str(info.get("name", serial))
        level = info.get("level")
        return f"{name} [{level}]" if level else name

    # ---- LD001: cycles ----------------------------------------------------
    edges = [
        edge for edge in payload.get("edges", [])
        if not _site_suppressed(edge.get("dst_stack", []), "LD001")
    ]
    edge_by_pair = {(int(e["src"]), int(e["dst"])): e for e in edges}
    adjacency: dict[int, list[int]] = {}
    for src, dst in sorted(edge_by_pair):
        adjacency.setdefault(src, []).append(dst)
    nodes = sorted({n for pair in edge_by_pair for n in pair})
    for component in strongly_connected(nodes, adjacency):
        if len(component) < 2:
            continue
        members = set(component)
        start = min(component)
        path = _cycle_path(members, adjacency, start)
        cycle_edges = []
        threads: set[str] = set()
        for position, src in enumerate(path):
            dst = path[(position + 1) % len(path)]
            edge = edge_by_pair[(src, dst)]
            threads.update(edge.get("threads", []))
            cycle_edges.append({
                "held": describe(src),
                "acquired": describe(dst),
                "held_mode": edge.get("src_mode", ""),
                "acquired_mode": edge.get("dst_mode", ""),
                "count": edge.get("count", 0),
                "held_stack": _format_stack(edge.get("src_stack", [])),
                "acquired_stack": _format_stack(edge.get("dst_stack", [])),
            })
        names = [describe(serial) for serial in path]
        first_edge = edge_by_pair[(path[0], path[1 % len(path)])]
        file, line = _site_of(first_edge.get("dst_stack", []))
        findings.append(Finding(
            code="LD001", severity=CODES["LD001"].severity,
            message=(
                "potential deadlock: lock-order cycle "
                + " -> ".join(names + [names[0]])
                + f" recorded from thread(s) {', '.join(sorted(threads))}; "
                  "acquiring these locks in a fixed global order breaks the "
                  "cycle"),
            subject=" -> ".join(names),
            file=file, line=line,
            details={"cycle": names, "edges": cycle_edges,
                     "threads": sorted(threads)},
        ))

    # ---- LD002: hierarchy inversions --------------------------------------
    for inv in payload.get("inversions", []):
        acquired = inv.get("acquired", {})
        held = inv.get("held", {})
        if _site_suppressed(acquired.get("stack", []), "LD002"):
            continue
        file, line = _site_of(acquired.get("stack", []))
        findings.append(Finding(
            code="LD002", severity=CODES["LD002"].severity,
            message=(
                f"runtime hierarchy inversion: {acquired.get('level')}-level "
                f"lock `{acquired.get('name')}` acquired while holding "
                f"{held.get('level')}-level lock `{held.get('name')}` "
                f"(observed {inv.get('count', 1)}x); the documented order is "
                "graph -> node -> item, never backwards"),
            subject=f"{held.get('name')} -> {acquired.get('name')}",
            file=file, line=line,
            details={
                "held": {**{k: v for k, v in held.items() if k != "stack"},
                         "stack": _format_stack(held.get("stack", []))},
                "acquired": {
                    **{k: v for k, v in acquired.items() if k != "stack"},
                    "stack": _format_stack(acquired.get("stack", []))},
                "threads": list(inv.get("threads", [])),
                "count": inv.get("count", 1),
            },
        ))

    # ---- LD003: blocking calls under locks --------------------------------
    # Repeated runs of the same workload observe the same site once per lock
    # *instance*; collapse to one finding per (call, site, lock names).
    merged: dict[tuple[Any, ...], dict[str, Any]] = {}
    for obs in payload.get("blocking", []):
        key = (obs.get("call", ""), _site_of(obs.get("stack", [])),
               tuple(lock.get("name") for lock in obs.get("locks", [])))
        kept = merged.get(key)
        if kept is None:
            merged[key] = dict(obs)
        else:
            kept["count"] = kept.get("count", 1) + obs.get("count", 1)
            kept["threads"] = sorted(
                set(kept.get("threads", [])) | set(obs.get("threads", [])))
    for obs in merged.values():
        if _site_suppressed(obs.get("stack", []), "LD003"):
            continue
        file, line = _site_of(obs.get("stack", []))
        lock_names = ", ".join(
            f"`{lock.get('name')}`" for lock in obs.get("locks", []))
        findings.append(Finding(
            code="LD003", severity=CODES["LD003"].severity,
            message=(
                f"blocking call {obs.get('call')} while holding "
                f"{lock_names} (observed {obs.get('count', 1)}x); park the "
                "wait outside the critical section"),
            subject=obs.get("call", ""),
            file=file, line=line,
            details={
                "call": obs.get("call", ""),
                "locks": list(obs.get("locks", [])),
                "stack": _format_stack(obs.get("stack", [])),
                "threads": list(obs.get("threads", [])),
                "count": obs.get("count", 1),
            },
        ))

    return findings

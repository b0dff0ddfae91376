"""In-memory span tracing for the traced benchmark run.

Spans are recorded **from the benchmark's side**: :class:`Tracer` wraps the
public functions a workload calls into (and the public hooks the runtime
calls back through — ``node.step``, ``driver.produce``,
``handler.periodic_refresh``, benchmark-owned ``compute`` callables) and
keeps ``(id, name, start, end, parent, op_id)`` tuples in per-thread lists.
Nothing inside ``src/repro`` knows it is being traced; spans inside the
program are a later change.

A span's *self time* is its duration minus the part its child spans cover,
so the self times of one thread add up to at most the traced wall time and
a layer's busy time can be read as a share of the run.  End-to-end metrics
are never taken from a traced run — the wrappers cost about a microsecond
per call, which is the ``bench.tracing_overhead_pct`` the benchmark reports.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "PATCHES"]

#: ``(module, class, method, span name)`` of every public entry point that is
#: wrapped at class level while a traced run is active.  The span name's
#: prefix (up to the first dot) is the layer the self time is booked on.
PATCHES: tuple[tuple[str, str, str, str], ...] = (
    ("repro.metadata.registry", "MetadataRegistry", "subscribe", "registry.subscribe"),
    ("repro.metadata.registry", "MetadataRegistry", "subscribe_many", "registry.subscribe_many"),
    ("repro.metadata.registry", "MetadataSubscription", "cancel", "registry.cancel"),
    ("repro.metadata.registry", "MetadataSubscription", "get", "handler.get"),
    ("repro.metadata.registry", "MetadataRegistry", "notify_changed", "propagation.notify"),
    ("repro.metadata.registry", "MetadataRegistry", "notify_changed_many", "propagation.notify"),
    ("repro.metadata.propagation", "PropagationEngine", "value_changed", "propagation.notify"),
    ("repro.metadata.handler", "PeriodicHandler", "periodic_refresh", "scheduling.periodic_refresh"),
    ("repro.operators.window", "TimeWindow", "set_size", "operators.set_size"),
    ("repro.operators.window", "TimeWindow", "step", "operators.step"),
    ("repro.operators.join", "SlidingWindowJoin", "step", "operators.join_step"),
    ("repro.graph.node", "Sink", "step", "graph.sink_step"),
    ("repro.sources.synthetic", "StreamDriver", "produce", "sources.produce"),
    ("repro.runtime.simulation", "SimulationExecutor", "run_until", "runtime.run_until"),
    ("repro.telemetry.export", "TelemetryExporter", "flush", "telemetry.export"),
)


class _ThreadSpans(threading.local):
    """Per-thread span list and current-span cursor."""

    def __init__(self) -> None:
        self.spans: list[tuple] | None = None
        self.current = 0   # id of the innermost open span; 0 = none
        self.op_id = 0     # request identifier shared by one op's spans


class Tracer:
    """Records spans around wrapped callables while ``recording`` is set."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        self._local = _ThreadSpans()
        self._threads: list[list[tuple]] = []
        self._threads_mutex = threading.Lock()
        self._patched: list[tuple[type, str, Any]] = []
        self.recording = False

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            spans = local.spans
            if spans is None:
                spans = local.spans = []
                with self._threads_mutex:
                    self._threads.append(spans)
            span_id = next(ids)
            parent = local.current
            local.current = span_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((span_id, name, start, clock(), parent, local.op_id))
                local.current = parent

        return traced

    def begin_op(self, op_id: int) -> None:
        """Tag the calling thread's following spans with ``op_id``."""
        self._local.op_id = op_id

    def install(self) -> None:
        """Wrap every entry point in :data:`PATCHES` at class level."""
        import importlib

        for module_name, class_name, method, span_name in PATCHES:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__.get(method)  # None when inherited
            self._patched.append((cls, method, original))
            setattr(cls, method, self.wrap(getattr(cls, method), span_name))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._threads_mutex:
            return [span for spans in self._threads for span in spans]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, inclusive ``total_s`` and ``self_s``."""
        spans = self.spans()
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _op in spans:
            if parent:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _parent, _op in spans:
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        return table

    def write_jsonl(self, path: Path) -> int:
        """Write one JSON object per span; returns the span count."""
        spans = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for span_id, name, start, end, parent, op_id in spans:
                stream.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent or None, "op_id": op_id,
                }) + "\n")
        return len(spans)

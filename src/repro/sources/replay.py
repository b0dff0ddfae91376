"""Trace recording and replay.

For reproducible experiments a stream can be recorded once — as a list of
``(timestamp, payload)`` pairs — and replayed bit-identically later, or
persisted to a simple JSON-lines file.  This substitutes for the production
traces the PIPES deployments of [8] used.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.common.errors import SimulationError
from repro.sources.synthetic import ArrivalProcess, StreamDriver

__all__ = ["Trace", "TraceReplayDriver", "record_trace"]


class Trace:
    """An ordered sequence of ``(timestamp, payload)`` pairs."""

    def __init__(self, events: Iterable[tuple[float, Any]]) -> None:
        self.events: list[tuple[float, Any]] = sorted(
            ((float(t), payload) for t, payload in events), key=lambda e: e[0]
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[float, Any]]:
        return iter(self.events)

    def duration(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1][0] - self.events[0][0]

    def mean_rate(self) -> float:
        span = self.duration()
        return (len(self.events) - 1) / span if span > 0 and len(self.events) > 1 else 0.0

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON lines: ``{"t": ..., "payload": ...}``."""
        with open(path, "w", encoding="utf-8") as handle:
            for timestamp, payload in self.events:
                handle.write(json.dumps({"t": timestamp, "payload": payload}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        events = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                events.append((record["t"], record["payload"]))
        return cls(events)


class TraceReplayDriver(StreamDriver):
    """Drives a source from a recorded :class:`Trace`."""

    def __init__(self, source: Any, trace: Trace) -> None:
        if not len(trace):
            raise SimulationError("cannot replay an empty trace")
        # ArrivalProcess/values are unused; replay is fully determined.
        super().__init__(source, arrivals=_NullArrivals(), values=lambda r, s, n: None)
        self.trace = trace
        self._index = 0

    def first_arrival(self) -> float:
        return self.trace.events[0][0]

    def produce(self, now: float) -> float:
        timestamp, payload = self.trace.events[self._index]
        self.source.produce(payload, now)
        self.produced += 1
        self._index += 1
        if self._index >= len(self.trace.events):
            return float("inf")
        return self.trace.events[self._index][0]


class _NullArrivals(ArrivalProcess):
    def next_gap(self, now: float, rng: random.Random) -> float:  # pragma: no cover
        return float("inf")

    def mean_rate(self) -> float:  # pragma: no cover
        return 0.0


def record_trace(
    arrivals: ArrivalProcess,
    values,
    duration: float,
    seed: int = 0,
    start: float = 0.0,
) -> Trace:
    """Materialise a synthetic workload into a replayable :class:`Trace`."""
    rng = random.Random(seed)
    events: list[tuple[float, Any]] = []
    now = start + arrivals.next_gap(start, rng)
    seq = 0
    while now <= start + duration:
        events.append((now, values(rng, seq, now)))
        seq += 1
        gap = arrivals.next_gap(now, rng)
        if gap == float("inf"):
            break
        now += gap
    return Trace(events)

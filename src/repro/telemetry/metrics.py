"""Exportable metrics — counters, gauges and fixed-bound histograms.

The metrics registry is the aggregation side of the telemetry layer: the
:class:`~repro.telemetry.hub.Telemetry` hub folds every trace event into
per-node and system-wide series here, and external tooling reads them out
through :meth:`MetricsRegistry.to_prometheus`, the Prometheus text
exposition format (``name{label="..."} value``, histogram ``_bucket``/
``_sum``/``_count`` series with cumulative ``le`` bounds).  The export
pipeline ships :meth:`MetricsRegistry.snapshot` in-band as its
``metrics.snapshot`` record.

Instruments are get-or-create by ``(name, labels)`` and thread-safe: all
mutation and export goes through one registry lock, which is fine because
metrics only update on the telemetry-*enabled* path — the disabled hot path
never reaches this module.

Histogram buckets reuse :class:`repro.common.histogram.FixedBoundHistogram`;
the default bound sets below cover the runtime's two measurement families
(sub-millisecond refresh durations, small integer wave sizes).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping
from typing import Iterator, Sequence

from repro.common.histogram import FixedBoundHistogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DURATION_BOUNDS",
    "SIZE_BOUNDS",
]

#: Seconds; covers microsecond-scale recomputes up to pathological 10s ones.
DURATION_BOUNDS: tuple[float, ...] = (
    0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0, 10.0,
)

#: Dimensionless small-integer sizes (wave sizes, queue depths).
SIZE_BOUNDS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250)

Labels = tuple[tuple[str, str], ...]


def _normalize_labels(labels: Mapping[str, str] | Labels | None) -> Labels:
    if not labels:
        return ()
    if isinstance(labels, Mapping):
        items = labels.items()
    else:
        items = labels
    return tuple(sorted((str(k), str(v)) for k, v in items))


class _Instrument:
    """Common identity of one metric series."""

    __slots__ = ("name", "labels", "_lock")

    def __init__(self, name: str, labels: Labels, lock: threading.RLock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock

    def _label_suffix(self) -> str:
        if not self.labels:
            return ""
        body = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + body + "}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}{self._label_suffix()})"


class Counter(_Instrument):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: Labels, lock: threading.RLock) -> None:
        super().__init__(name, labels, lock)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (by {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """Instantaneous value that may move in both directions."""

    __slots__ = ("_value",)

    def __init__(self, name: str, labels: Labels, lock: threading.RLock) -> None:
        super().__init__(name, labels, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed-bound cumulative histogram series."""

    __slots__ = ("_hist",)

    def __init__(
        self, name: str, labels: Labels, lock: threading.RLock,
        bounds: Sequence[float],
    ) -> None:
        super().__init__(name, labels, lock)
        self._hist = FixedBoundHistogram(bounds)

    def observe(self, value: float) -> None:
        with self._lock:
            self._hist.observe(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._hist.count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._hist.sum

    def mean(self) -> float:
        with self._lock:
            return self._hist.mean()

    def quantile(self, q: float) -> float:
        with self._lock:
            return self._hist.quantile(q)

    def cumulative(self) -> list[tuple[float, int]]:
        with self._lock:
            return self._hist.cumulative()


class MetricsRegistry:
    """Get-or-create store of metric series with wire-format exporters.

    ``prefix`` is prepended to every exported series name (Prometheus
    convention: one namespace per subsystem).
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._lock = threading.RLock()
        self._counters: dict[tuple[str, Labels], Counter] = {}
        self._gauges: dict[tuple[str, Labels], Gauge] = {}
        self._histograms: dict[tuple[str, Labels], Histogram] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        key = (name, _normalize_labels(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, key[1], self._lock)
            return instrument

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        key = (name, _normalize_labels(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, key[1], self._lock)
            return instrument

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None,
        bounds: Sequence[float] = DURATION_BOUNDS,
    ) -> Histogram:
        key = (name, _normalize_labels(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    name, key[1], self._lock, bounds
                )
            return instrument

    # -- iteration / snapshot ----------------------------------------------

    def _series(self) -> Iterator[_Instrument]:
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        return iter(sorted(instruments, key=lambda i: (i.name, i.labels)))

    def snapshot(self) -> dict[str, Any]:
        """Plain-data view of every series (used by ``describe_system``)."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in self._series():
            label = instrument.name + instrument._label_suffix()
            if isinstance(instrument, Counter):
                out["counters"][label] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][label] = instrument.value
            else:
                out["histograms"][label] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "mean": instrument.mean(),
                }
        return out

    # -- exporters ---------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_types: set[str] = set()

        def typeline(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for instrument in self._series():
            name = f"{self.prefix}_{instrument.name}"
            suffix = instrument._label_suffix()
            if isinstance(instrument, Counter):
                typeline(name, "counter")
                lines.append(f"{name}{suffix} {instrument.value}")
            elif isinstance(instrument, Gauge):
                typeline(name, "gauge")
                lines.append(f"{name}{suffix} {_fmt(instrument.value)}")
            else:
                typeline(name, "histogram")
                for bound, cum in instrument.cumulative():
                    le = "+Inf" if math.isinf(bound) else _fmt(bound)
                    lines.append(
                        f"{name}_bucket{_merge_label(suffix, le)} {cum}"
                    )
                lines.append(f"{name}_sum{suffix} {_fmt(instrument.sum)}")
                lines.append(f"{name}_count{suffix} {instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Compact float formatting (integers render without a fraction)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _merge_label(suffix: str, le: str) -> str:
    """Insert an ``le`` label into an existing (possibly empty) label set."""
    if not suffix:
        return '{le="' + le + '"}'
    return suffix[:-1] + ',le="' + le + '"}'

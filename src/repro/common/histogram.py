"""Equi-width histograms — the "data distributions" metadata of Section 1.

Sources publish a summary of their recent payload values as dynamic
metadata; query optimizers estimate predicate selectivities from it.  The
histogram is deliberately simple (fixed bucket count over an adaptive range,
rebuilt per metadata period) because the *freshness* of the distribution is
what stream systems need — Figure 2 classifies value distributions as
dynamic metadata precisely because they drift.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

__all__ = ["EquiWidthHistogram", "FixedBoundHistogram", "HistogramBuilder"]


class EquiWidthHistogram:
    """Immutable equi-width histogram over ``[low, high]``.

    Selectivity estimators interpolate linearly inside buckets, the textbook
    uniform-within-bucket assumption.
    """

    __slots__ = ("low", "high", "counts", "total")

    def __init__(self, low: float, high: float, counts: Sequence[int]) -> None:
        if not counts:
            raise ValueError("histogram needs at least one bucket")
        if high < low:
            raise ValueError(f"invalid range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in self.counts):
            raise ValueError("bucket counts must be non-negative")
        self.total = sum(self.counts)

    @classmethod
    def build(cls, values: Iterable[float], buckets: int = 20) -> "EquiWidthHistogram":
        """Build from a sample; the range adapts to the observed min/max."""
        if buckets <= 0:
            raise ValueError(f"bucket count must be positive, got {buckets}")
        data = [float(v) for v in values]
        if not data:
            return cls(0.0, 0.0, [0] * buckets)
        low, high = min(data), max(data)
        counts = [0] * buckets
        if high == low:
            counts[0] = len(data)
            return cls(low, high, counts)
        width = (high - low) / buckets
        for value in data:
            index = min(buckets - 1, int((value - low) / width))
            counts[index] += 1
        return cls(low, high, counts)

    @property
    def buckets(self) -> int:
        return len(self.counts)

    @property
    def bucket_width(self) -> float:
        if self.high == self.low:
            return 0.0
        return (self.high - self.low) / len(self.counts)

    def mean(self) -> float:
        """Mean estimated from bucket midpoints."""
        if self.total == 0:
            return 0.0
        if self.bucket_width == 0.0:
            return self.low
        acc = 0.0
        for i, count in enumerate(self.counts):
            midpoint = self.low + (i + 0.5) * self.bucket_width
            acc += midpoint * count
        return acc / self.total

    def selectivity_below(self, threshold: float) -> float:
        """Estimated fraction of values < ``threshold``."""
        if self.total == 0:
            return 0.0
        if threshold <= self.low:
            return 0.0
        if threshold > self.high:
            return 1.0
        if self.bucket_width == 0.0:
            return 1.0 if threshold > self.low else 0.0
        position = (threshold - self.low) / self.bucket_width
        full = int(position)
        fraction = position - full
        covered = sum(self.counts[:full])
        if full < len(self.counts):
            covered += self.counts[full] * fraction
        return covered / self.total

    def selectivity_between(self, low: float, high: float) -> float:
        """Estimated fraction of values in ``[low, high)``."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high})")
        return max(0.0, self.selectivity_below(high) - self.selectivity_below(low))

    def selectivity_equals(self, value: float) -> float:
        """Estimated fraction of values equal to ``value`` (uniform within
        the containing bucket, assuming integral domains of bucket width)."""
        if self.total == 0 or value < self.low or value > self.high:
            return 0.0
        if self.bucket_width == 0.0:
            return 1.0 if value == self.low else 0.0
        index = min(self.buckets - 1, int((value - self.low) / self.bucket_width))
        per_distinct = max(1.0, self.bucket_width)
        return (self.counts[index] / self.total) / per_distinct

    def merge(self, other: "EquiWidthHistogram") -> "EquiWidthHistogram":
        """Combine two histograms over a widened common range.

        Counts are redistributed proportionally into the merged buckets — an
        approximation, adequate for drifting-distribution summaries.
        """
        if self.total == 0:
            return other
        if other.total == 0:
            return self
        low = min(self.low, other.low)
        high = max(self.high, other.high)
        buckets = max(self.buckets, other.buckets)
        counts = [0.0] * buckets
        width = (high - low) / buckets if high > low else 0.0
        for histogram in (self, other):
            if histogram.bucket_width == 0.0:
                if width == 0.0:
                    counts[0] += histogram.total
                else:
                    index = min(buckets - 1, int((histogram.low - low) / width))
                    counts[index] += histogram.total
                continue
            for i, count in enumerate(histogram.counts):
                midpoint = histogram.low + (i + 0.5) * histogram.bucket_width
                index = min(buckets - 1, int((midpoint - low) / width)) if width else 0
                counts[index] += count
        return EquiWidthHistogram(low, high, [round(c) for c in counts])

    def __repr__(self) -> str:
        return (
            f"EquiWidthHistogram([{self.low:g}, {self.high:g}], "
            f"buckets={self.buckets}, total={self.total})"
        )


class FixedBoundHistogram:
    """Cumulative histogram over fixed upper bucket bounds.

    Unlike :class:`EquiWidthHistogram` (an adaptive-range *value summary*
    rebuilt per metadata period), this is a *measurement accumulator* in the
    Prometheus mould: bounds are chosen once, observations are O(log buckets),
    and the bucket semantics are cumulative-inclusive (an observation lands
    in the first bucket whose bound is ``>= value``; values above the last
    bound land in the implicit ``+Inf`` bucket).  The telemetry metrics
    registry uses it for durations, latencies and wave sizes.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        cleaned = tuple(float(b) for b in bounds)
        if any(b2 <= b1 for b1, b2 in zip(cleaned, cleaned[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = cleaned
        self.counts = [0] * (len(cleaned) + 1)  # last slot: +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with ``+Inf``.

        This is exactly the ``le`` series of the Prometheus text format.
        """
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, self.count))
        return pairs

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (bucket upper bound; ``+Inf`` capped to
        the last finite bound).  0.0 with no observations."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= target:
                return bound
        return self.bounds[-1]

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FixedBoundHistogram(buckets={len(self.bounds) + 1}, "
            f"count={self.count}, sum={self.sum:g})"
        )


class HistogramBuilder:
    """Accumulates values between metadata refreshes.

    The sample store of :class:`~repro.metadata.monitor.DistributionProbe`:
    ``add`` is called per element (cheap append with a cap),
    ``snapshot_and_reset`` once per period by the periodic handler.
    """

    def __init__(self, buckets: int = 20, max_samples: int = 10_000) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.buckets = buckets
        self.max_samples = max_samples
        self._values: list[float] = []
        self.dropped = 0

    def add(self, value: float) -> None:
        if len(self._values) >= self.max_samples:
            self.dropped += 1
            return
        if isinstance(value, (int, float)) and math.isfinite(value):
            self._values.append(float(value))

    def snapshot_and_reset(self) -> EquiWidthHistogram:
        histogram = EquiWidthHistogram.build(self._values, self.buckets)
        self.clear()
        return histogram

    def clear(self) -> None:
        """Forget every sample and the dropped count."""
        self._values = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._values)

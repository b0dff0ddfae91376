"""Online statistics building blocks.

Rate, average and variance metadata items (Figure 2's "online aggregates of
local metadata items") are built from the estimators in this module:

* :class:`OnlineMean` / :class:`OnlineVariance` — Welford's numerically stable
  single-pass algorithm.
* :class:`WindowedCounter` — the per-period element counter that backs the
  periodically updated input-rate item of Section 3.1 ("each element is still
  considered in the result as the overhead for counting incoming elements is
  low").
"""

from __future__ import annotations

import math

__all__ = [
    "OnlineMean",
    "OnlineVariance",
    "WindowedCounter",
]


class OnlineMean:
    """Single-pass running mean."""

    __slots__ = ("count", "mean")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0

    def add(self, value: float) -> None:
        """Fold ``value`` into the running mean."""
        self.count += 1
        self.mean += (value - self.mean) / self.count

    def value(self) -> float:
        """Current mean; 0.0 when no samples have been added."""
        return self.mean if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0


class OnlineVariance:
    """Welford's online mean/variance estimator."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def variance(self) -> float:
        """Population variance; 0.0 with fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    def sample_variance(self) -> float:
        """Unbiased sample variance; 0.0 with fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    def stddev(self) -> float:
        return math.sqrt(self.variance())

    def reset(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0


class WindowedCounter:
    """Counts events and converts them to a rate per fixed time window.

    The counter is the "monitoring code" of the periodically updated input
    rate (Section 3.2.2): every incoming element increments it (cheap), and at
    the end of each period the periodic handler calls :meth:`rate_and_reset`
    exactly once, which is what makes concurrent consumer access safe.
    """

    __slots__ = ("count", "_window_start")

    def __init__(self, start_time: float = 0.0) -> None:
        self.count = 0
        self._window_start = float(start_time)

    def increment(self, n: int = 1) -> None:
        self.count += n

    def rate_and_reset(self, now: float) -> float:
        """Return events/time-unit since the window start, then reset.

        Returns 0.0 if no time elapsed (the degenerate case the paper's
        Figure 4 discussion warns about can then not produce division noise).
        """
        elapsed = now - self._window_start
        rate = self.count / elapsed if elapsed > 0 else 0.0
        self.count = 0
        self._window_start = now
        return rate

    def peek_rate(self, now: float) -> float:
        """Rate since window start *without* resetting — the unsafe on-demand
        read used to reproduce Figure 4's interference problem."""
        elapsed = now - self._window_start
        return self.count / elapsed if elapsed > 0 else 0.0

    @property
    def window_start(self) -> float:
        return self._window_start


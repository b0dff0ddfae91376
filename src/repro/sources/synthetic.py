"""Synthetic stream workloads.

The paper's experiments need controllable arrival processes — constant rate
for the Figure 4 interference scenario, bursty on/off arrivals for the
Figure 5 aggregation scenario, drifting rates for the adaptivity benchmarks —
and controllable value distributions (uniform, normal, Zipf) for
selectivity-sensitive operators.  Everything is seeded and driven by virtual
time, so every experiment is reproducible bit-for-bit.

An :class:`ArrivalProcess` yields inter-arrival gaps; a value generator
yields payloads.  :class:`StreamDriver` binds both to a
:class:`~repro.graph.node.Source` and is scheduled by the simulation
executor.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Optional, Sequence

from repro.common.errors import SimulationError

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "BurstyArrivals",
    "DriftingRate",
    "TraceArrivals",
    "ValueGenerator",
    "UniformValues",
    "NormalValues",
    "ZipfValues",
    "SequentialValues",
    "StreamDriver",
]


class ArrivalProcess:
    """Produces the gap to the next element, given the current time."""

    def next_gap(self, now: float, rng: random.Random) -> float:
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Long-run average arrival rate (elements per time unit)."""
        raise NotImplementedError


class ConstantRate(ArrivalProcess):
    """One element every ``1/rate`` time units — Figure 4's constant arrival."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def next_gap(self, now: float, rng: random.Random) -> float:
        return 1.0 / self.rate

    def mean_rate(self) -> float:
        return self.rate


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals with exponential inter-arrival gaps."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise SimulationError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def next_gap(self, now: float, rng: random.Random) -> float:
        return rng.expovariate(self.rate)

    def mean_rate(self) -> float:
        return self.rate


class BurstyArrivals(ArrivalProcess):
    """Deterministic on/off phases — the bursty stream of Figure 5.

    During each ``on_duration`` the stream runs at ``peak_rate``; during each
    ``off_duration`` it is silent.  The phase is derived from absolute time,
    so two drivers with the same parameters burst in lockstep.
    """

    def __init__(
        self,
        peak_rate: float,
        on_duration: float,
        off_duration: float,
        phase: float = 0.0,
    ) -> None:
        if peak_rate <= 0 or on_duration <= 0 or off_duration < 0:
            raise SimulationError("invalid bursty arrival parameters")
        self.peak_rate = float(peak_rate)
        self.on_duration = float(on_duration)
        self.off_duration = float(off_duration)
        self.phase = float(phase)

    @property
    def cycle(self) -> float:
        return self.on_duration + self.off_duration

    def _position(self, now: float) -> float:
        return (now - self.phase) % self.cycle

    def next_gap(self, now: float, rng: random.Random) -> float:
        gap = 1.0 / self.peak_rate
        position = self._position(now)
        if position + gap <= self.on_duration:
            return gap
        # Jump to the start of the next on-phase.
        return (self.cycle - position) + gap / 2.0

    def mean_rate(self) -> float:
        return self.peak_rate * self.on_duration / self.cycle


class DriftingRate(ArrivalProcess):
    """Sinusoidally drifting rate for adaptivity and freshness experiments.

    ``rate(t) = base + amplitude * sin(2*pi*t/period)``; ``amplitude`` must
    stay below ``base`` so the rate remains positive.
    """

    def __init__(self, base_rate: float, amplitude: float, period: float) -> None:
        if base_rate <= 0 or period <= 0 or not 0 <= amplitude < base_rate:
            raise SimulationError("invalid drifting-rate parameters")
        self.base_rate = float(base_rate)
        self.amplitude = float(amplitude)
        self.period = float(period)

    def rate_at(self, now: float) -> float:
        return self.base_rate + self.amplitude * math.sin(2 * math.pi * now / self.period)

    def next_gap(self, now: float, rng: random.Random) -> float:
        return 1.0 / self.rate_at(now)

    def mean_rate(self) -> float:
        return self.base_rate


class TraceArrivals(ArrivalProcess):
    """Replays a fixed sequence of absolute arrival timestamps."""

    def __init__(self, timestamps: Sequence[float]) -> None:
        self.timestamps = sorted(float(t) for t in timestamps)
        self._index = 0

    def next_gap(self, now: float, rng: random.Random) -> float:
        while self._index < len(self.timestamps) and self.timestamps[self._index] <= now:
            self._index += 1
        if self._index >= len(self.timestamps):
            return math.inf
        return self.timestamps[self._index] - now

    def mean_rate(self) -> float:
        if len(self.timestamps) < 2:
            return 0.0
        span = self.timestamps[-1] - self.timestamps[0]
        return (len(self.timestamps) - 1) / span if span > 0 else 0.0


# ---------------------------------------------------------------------------
# Value generators
# ---------------------------------------------------------------------------

ValueGenerator = Callable[[random.Random, int, float], Any]


class UniformValues:
    """Payloads ``{field: uniform int in [low, high)}`` plus a sequence number."""

    def __init__(self, field: str = "x", low: int = 0, high: int = 100) -> None:
        if high <= low:
            raise SimulationError(f"empty value range [{low}, {high})")
        self.field = field
        self.low = low
        self.high = high

    def __call__(self, rng: random.Random, seq: int, now: float) -> dict:
        return {self.field: rng.randrange(self.low, self.high), "seq": seq}


class NormalValues:
    """Payloads with a normally distributed float field."""

    def __init__(self, field: str = "x", mean: float = 0.0, stddev: float = 1.0) -> None:
        if stddev <= 0:
            raise SimulationError(f"stddev must be positive, got {stddev}")
        self.field = field
        self.mean = mean
        self.stddev = stddev

    def __call__(self, rng: random.Random, seq: int, now: float) -> dict:
        return {self.field: rng.normalvariate(self.mean, self.stddev), "seq": seq}


class ZipfValues:
    """Zipf-skewed categorical values in ``[0, n)`` — skewed join keys.

    Uses an explicit truncated-Zipf CDF: a draw ``u`` in ``[0, 1)`` maps to
    the first rank whose cumulative probability is at least ``u``.
    """

    def __init__(self, field: str = "k", n: int = 100, skew: float = 1.1) -> None:
        if n <= 0 or skew <= 0:
            raise SimulationError("invalid Zipf parameters")
        self.field = field
        self.n = n
        self.skew = skew
        weights = [rank ** -skew for rank in range(1, n + 1)]
        total = math.fsum(weights)  # sum() of floats rounds differently from 3.12 on
        self._cdf = list(accumulate(weight / total for weight in weights))
        # Rounding can leave the sum a hair below 1.0; a draw in that gap
        # would map to rank n, outside [0, n).
        self._cdf[-1] = 1.0

    def __call__(self, rng: random.Random, seq: int, now: float) -> dict:
        return {self.field: bisect_left(self._cdf, rng.random()), "seq": seq}


class SequentialValues:
    """Deterministic increasing integers; handy for exact-content tests."""

    def __init__(self, field: str = "x") -> None:
        self.field = field

    def __call__(self, rng: random.Random, seq: int, now: float) -> dict:
        return {self.field: seq, "seq": seq}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class StreamDriver:
    """Feeds one source from an arrival process and a value generator."""

    def __init__(
        self,
        source: Any,
        arrivals: ArrivalProcess,
        values: Optional[ValueGenerator] = None,
        seed: int = 0,
        start: float = 0.0,
    ) -> None:
        self.source = source
        self.arrivals = arrivals
        self.values = values if values is not None else UniformValues()
        self.rng = random.Random(seed)
        self.start = float(start)
        self.produced = 0

    def first_arrival(self) -> float:
        """Absolute time of the first element."""
        return self.start + self.arrivals.next_gap(self.start, self.rng)

    def produce(self, now: float) -> float:
        """Emit one element at ``now``; returns the next arrival time."""
        payload = self.values(self.rng, self.produced, now)
        self.source.produce(payload, now)
        self.produced += 1
        gap = self.arrivals.next_gap(now, self.rng)
        return now + gap

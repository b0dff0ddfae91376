"""Tests for synthetic workload generators."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.sources.synthetic import (
    BurstyArrivals,
    ConstantRate,
    DriftingRate,
    NormalValues,
    PoissonArrivals,
    SequentialValues,
    StreamDriver,
    TraceArrivals,
    UniformValues,
    ZipfValues,
)


def collect_arrivals(process, duration, seed=0):
    rng = random.Random(seed)
    now = process.next_gap(0.0, rng)
    times = []
    while now <= duration:
        times.append(now)
        gap = process.next_gap(now, rng)
        if math.isinf(gap):
            break
        now += gap
    return times


class TestConstantRate:
    def test_exact_spacing(self):
        times = collect_arrivals(ConstantRate(0.1), 100.0)
        assert times == pytest.approx([10.0 * i for i in range(1, 11)])

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            ConstantRate(0.0)

    def test_mean_rate(self):
        assert ConstantRate(0.25).mean_rate() == 0.25


class TestPoisson:
    def test_empirical_rate_close_to_nominal(self):
        times = collect_arrivals(PoissonArrivals(1.0), 5000.0, seed=42)
        assert len(times) / 5000.0 == pytest.approx(1.0, rel=0.1)

    def test_deterministic_under_seed(self):
        a = collect_arrivals(PoissonArrivals(0.5), 200.0, seed=7)
        b = collect_arrivals(PoissonArrivals(0.5), 200.0, seed=7)
        assert a == b

    def test_invalid_rate(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(-1.0)


class TestBursty:
    def test_silent_during_off_phase(self):
        process = BurstyArrivals(peak_rate=1.0, on_duration=10.0, off_duration=90.0)
        times = collect_arrivals(process, 300.0)
        for t in times:
            position = t % 100.0
            assert position <= 10.0 + 1.0  # inside (or at edge of) the burst

    def test_mean_rate_accounts_for_duty_cycle(self):
        process = BurstyArrivals(peak_rate=1.0, on_duration=10.0, off_duration=90.0)
        assert process.mean_rate() == pytest.approx(0.1)
        times = collect_arrivals(process, 2000.0)
        assert len(times) / 2000.0 == pytest.approx(0.1, rel=0.2)

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            BurstyArrivals(0.0, 1.0, 1.0)


class TestDriftingRate:
    def test_rate_oscillates(self):
        process = DriftingRate(base_rate=1.0, amplitude=0.5, period=100.0)
        assert process.rate_at(25.0) == pytest.approx(1.5)
        assert process.rate_at(75.0) == pytest.approx(0.5)

    def test_invalid_amplitude(self):
        with pytest.raises(SimulationError):
            DriftingRate(base_rate=1.0, amplitude=1.0, period=10.0)


class TestTraceArrivals:
    def test_replays_exact_times(self):
        process = TraceArrivals([5.0, 7.5, 20.0])
        times = collect_arrivals(process, 100.0)
        assert times == [5.0, 7.5, 20.0]

    def test_mean_rate(self):
        assert TraceArrivals([0.0, 10.0, 20.0]).mean_rate() == pytest.approx(0.1)
        assert TraceArrivals([5.0]).mean_rate() == 0.0


class TestValueGenerators:
    def test_uniform_bounds_and_seq(self):
        gen = UniformValues("v", 10, 20)
        rng = random.Random(0)
        for seq in range(50):
            payload = gen(rng, seq, 0.0)
            assert 10 <= payload["v"] < 20
            assert payload["seq"] == seq

    def test_uniform_empty_range_rejected(self):
        with pytest.raises(SimulationError):
            UniformValues("v", 5, 5)

    def test_normal_distribution_shape(self):
        gen = NormalValues("v", mean=100.0, stddev=5.0)
        rng = random.Random(1)
        values = [gen(rng, i, 0.0)["v"] for i in range(2000)]
        assert np.mean(values) == pytest.approx(100.0, abs=0.5)
        assert np.std(values) == pytest.approx(5.0, rel=0.1)

    def test_zipf_is_skewed(self):
        gen = ZipfValues("k", n=50, skew=1.5)
        rng = random.Random(2)
        values = [gen(rng, i, 0.0)["k"] for i in range(5000)]
        assert all(0 <= v < 50 for v in values)
        counts = np.bincount(values, minlength=50)
        assert counts[0] > counts[10] > 0  # heavy head

    def test_zipf_top_draw_stays_in_range(self):
        class TopDraw:
            def random(self):
                return math.nextafter(1.0, 0.0)

        assert ZipfValues("k", n=50, skew=1.5)(TopDraw(), 0, 0.0)["k"] == 49

    def test_sequential(self):
        gen = SequentialValues("x")
        rng = random.Random(0)
        assert [gen(rng, i, 0.0)["x"] for i in range(3)] == [0, 1, 2]


class TestGoldenDraws:
    """The first draws for seed 0, pinned so every supported Python agrees."""

    @pytest.mark.parametrize("generator, expected", [
        (UniformValues("v", 0, 100), [49, 97, 53, 5, 33]),
        (NormalValues("v", 10.0, 2.0),
         [9.632263557813484, 10.065008258155164, 11.39765538650796,
          9.80726430996945, 12.827015580096242]),
        (ZipfValues("v", n=50, skew=1.5), [9, 5, 0, 0, 1]),
    ], ids=["uniform", "normal", "zipf"])
    def test_values(self, generator, expected):
        rng = random.Random(0)
        draws = [generator(rng, seq, 0.0)["v"] for seq in range(5)]
        assert draws == pytest.approx(expected, rel=1e-12)

    def test_poisson_gaps(self):
        rng = random.Random(0)
        process = PoissonArrivals(2.0)
        assert [process.next_gap(0.0, rng) for _ in range(5)] == pytest.approx(
            [0.9303035555326117, 0.7093145764858809, 0.2728565727707964,
             0.14982115610690708, 0.35797737488357534], rel=1e-12)


class TestStreamDriver:
    class FakeSource:
        def __init__(self):
            self.events = []

        def produce(self, payload, timestamp):
            self.events.append((timestamp, payload))

    def test_driver_produces_and_advances(self):
        source = self.FakeSource()
        driver = StreamDriver(source, ConstantRate(0.1), SequentialValues(), seed=0)
        t = driver.first_arrival()
        assert t == 10.0
        t = driver.produce(t)
        assert t == 20.0
        assert source.events == [(10.0, {"x": 0, "seq": 0})]
        assert driver.produced == 1

    def test_start_offset(self):
        driver = StreamDriver(self.FakeSource(), ConstantRate(1.0), start=100.0)
        assert driver.first_arrival() == pytest.approx(101.0)

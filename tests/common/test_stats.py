"""Tests for the online statistics building blocks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.common.stats import (
    OnlineMean,
    OnlineVariance,
    WindowedCounter,
)


class TestOnlineMean:
    def test_empty_mean_is_zero(self):
        assert OnlineMean().value() == 0.0

    def test_single_value(self):
        mean = OnlineMean()
        mean.add(7.0)
        assert mean.value() == 7.0

    def test_matches_numpy(self):
        values = [1.5, -2.0, 3.25, 10.0, 0.0]
        mean = OnlineMean()
        for v in values:
            mean.add(v)
        assert mean.value() == pytest.approx(np.mean(values))

    def test_reset(self):
        mean = OnlineMean()
        mean.add(5.0)
        mean.reset()
        assert mean.count == 0
        assert mean.value() == 0.0


class TestOnlineVariance:
    def test_fewer_than_two_samples(self):
        var = OnlineVariance()
        assert var.variance() == 0.0
        var.add(3.0)
        assert var.variance() == 0.0

    def test_matches_numpy_population(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        var = OnlineVariance()
        for v in values:
            var.add(v)
        assert var.variance() == pytest.approx(np.var(values))
        assert var.sample_variance() == pytest.approx(np.var(values, ddof=1))
        assert var.stddev() == pytest.approx(np.std(values))

    def test_numerically_stable_for_large_offset(self):
        offset = 1e9
        values = [offset + v for v in (1.0, 2.0, 3.0)]
        var = OnlineVariance()
        for v in values:
            var.add(v)
        assert var.variance() == pytest.approx(np.var(values), rel=1e-6)


class TestWindowedCounter:
    def test_rate_and_reset(self):
        counter = WindowedCounter(start_time=0.0)
        for _ in range(5):
            counter.increment()
        assert counter.rate_and_reset(now=50.0) == pytest.approx(0.1)
        # Window restarted.
        assert counter.count == 0
        assert counter.window_start == 50.0

    def test_zero_elapsed_returns_zero(self):
        counter = WindowedCounter(start_time=10.0)
        counter.increment(3)
        assert counter.rate_and_reset(now=10.0) == 0.0

    def test_peek_does_not_reset(self):
        counter = WindowedCounter(start_time=0.0)
        counter.increment(4)
        assert counter.peek_rate(now=20.0) == pytest.approx(0.2)
        assert counter.count == 4
        assert counter.window_start == 0.0

    def test_increment_by_n(self):
        counter = WindowedCounter()
        counter.increment(10)
        assert counter.count == 10


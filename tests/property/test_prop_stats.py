"""Property tests: online statistics match numpy reference implementations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import OnlineMean, OnlineVariance

floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestWelfordMatchesNumpy:
    @given(values=st.lists(floats, min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_mean(self, values):
        mean = OnlineMean()
        for v in values:
            mean.add(v)
        assert mean.value() == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)

    @given(values=st.lists(floats, min_size=2, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_variance(self, values):
        var = OnlineVariance()
        for v in values:
            var.add(v)
        expected = np.var(values)
        assert var.variance() == pytest.approx(expected, rel=1e-6, abs=1e-6)
        assert var.sample_variance() == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-6
        )

    @given(values=st.lists(floats, min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_variance_non_negative(self, values):
        var = OnlineVariance()
        for v in values:
            var.add(v)
        assert var.variance() >= 0.0


"""Unit and property tests for the empirical-CDF helper."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import MeasurementError
from repro.utils.cdf import EmpiricalCDF, quantile


class TestEmpiricalCDF:
    def test_empty_sample_rejected(self):
        with pytest.raises(MeasurementError):
            EmpiricalCDF([])

    def test_basic_evaluation(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0
        assert cdf(99.0) == 1.0

    def test_statistics(self):
        cdf = EmpiricalCDF([3, 1, 2])
        assert cdf.min == 1
        assert cdf.max == 3
        assert cdf.mean == pytest.approx(2.0)
        assert cdf.n == 3

    def test_quantiles(self):
        cdf = EmpiricalCDF([10, 20, 30, 40])
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40

    def test_quantile_bounds_checked(self):
        cdf = EmpiricalCDF([1])
        with pytest.raises(MeasurementError):
            cdf.quantile(0.0)
        with pytest.raises(MeasurementError):
            cdf.quantile(1.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = EmpiricalCDF(samples)
        points = sorted(samples)
        values = [cdf(x) for x in points]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert cdf(points[-1]) == 1.0

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=40),
        st.floats(0.01, 1.0),
    )
    def test_quantile_inverts_cdf(self, samples, q):
        cdf = EmpiricalCDF(samples)
        value = cdf.quantile(q)
        assert cdf(value) >= q - 1e-12
        assert value in cdf.values


class TestHelpers:
    def test_quantile_wrapper(self):
        assert quantile([5, 1, 9], 0.5) == 5

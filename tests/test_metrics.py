"""Metric identities: RMSE, KS distance and CDFs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanprop.errors import DataShapeError
from urbanprop.metrics import empirical_cdf, ks_distance, rmse

series = st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                  max_size=40)


class TestRmse:
    def test_identical(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_value(self):
        assert rmse([1, 2, 3], [1, 2, 5]) == pytest.approx(np.sqrt(4.0 / 3.0))

    @given(series, st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=80)
    def test_offset_identity(self, xs, c):
        assert rmse(xs, [x + c for x in xs]) == pytest.approx(abs(c), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DataShapeError):
            rmse([1, 2], [1, 2, 3])
        with pytest.raises(DataShapeError):
            rmse([], [])


class TestKsDistance:
    def test_identical(self):
        assert ks_distance([3, 1, 2], [1, 2, 3]) == 0.0

    def test_hand_value(self):
        assert ks_distance([1, 2, 3], [1, 2, 3, 100]) == 0.25

    @given(series, series)
    @settings(max_examples=80)
    def test_symmetry_and_range(self, a, b):
        d = ks_distance(a, b)
        assert d == ks_distance(b, a)
        assert 0.0 <= d <= 1.0

    def test_disjoint_supports(self):
        assert ks_distance([0, 1], [10, 11]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataShapeError):
            ks_distance([], [1])


class TestEmpiricalCdf:
    def test_single_sample(self):
        assert empirical_cdf([4.2]) == [(4.2, 1.0)]

    def test_monotone_range(self):
        rng = np.random.default_rng(17)
        pairs = empirical_cdf(rng.normal(size=200))
        fs = [f for _x, f in pairs]
        assert fs == sorted(fs)
        assert fs[-1] == 1.0
        assert fs[0] > 0.0

    def test_median_crossing(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=2001)
        pairs = empirical_cdf(xs)
        med = np.median(xs)
        below = [f for x, f in pairs if x <= med]
        assert below[-1] == pytest.approx(0.5, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(DataShapeError):
            empirical_cdf([])

"""Baseline model tests: empirical urban curves and the no-recursion
simplified variant."""

import numpy as np
import pytest

from conftest import corner_route, predict_one
from urbanprop.baselines import gpp_path_loss
from urbanprop.errors import NumericalDomainError


class TestGppPathLoss:
    def test_los_100m(self):
        pl = gpp_path_loss(100.0, 5.8, True)
        assert pl == pytest.approx(38.77 + 33.4 + 18.2 * np.log10(5.8),
                                   abs=1e-9)
        assert pl == pytest.approx(86.08, abs=0.02)

    def test_nlos_100m(self):
        pl = gpp_path_loss(100.0, 5.8, False)
        assert pl == pytest.approx(36.85 + 60.0 + 18.9 * np.log10(5.8),
                                   abs=1e-9)
        assert pl == pytest.approx(111.29, abs=0.02)

    def test_one_meter_is_intercept_plus_frequency(self):
        pl = gpp_path_loss(1.0, 5.8, True)
        assert pl == pytest.approx(38.77 + 18.2 * np.log10(5.8), abs=1e-12)

    def test_monotone_in_distance_and_frequency(self):
        d = np.linspace(1.0, 500.0, 40)
        pls = [gpp_path_loss(x, 5.8, True) for x in d]
        assert all(b > a for a, b in zip(pls, pls[1:]))
        f = np.linspace(1.0, 10.0, 20)
        pls = [gpp_path_loss(100.0, x, False) for x in f]
        assert all(b > a for a, b in zip(pls, pls[1:]))

    def test_nlos_above_los(self):
        # the curves cross just below d = 1.4 m; beyond urban-relevant
        # distances the NLOS curve always dominates
        for d in (2.0, 10.0, 100.0, 1000.0):
            for f in (1.0, 5.8, 10.0):
                assert gpp_path_loss(d, f, False) >= gpp_path_loss(d, f, True)

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            gpp_path_loss(0.5, 5.8, True)


class TestSimplifiedModel:
    def test_empty_map_identical(self, empty_map, cfg):
        res = predict_one(cfg, empty_map, np.array([120.0, 10.0, 2.0]))
        assert res.pl_simplified_db[0] == res.pl_model_db[0]

    def test_single_stage_identical(self, canyon_map, cfg):
        # receiver beside the first (left-only) block: one-stage chain
        res = predict_one(cfg, canyon_map, np.array([30.0, 0.0, 2.0]))
        assert res.n_stages[0] == 1
        assert abs(res.pl_simplified_db[0] - res.pl_model_db[0]) < 1e-9

    def test_multi_stage_differs(self, corner_map, cfg):
        seen = False
        for rx in corner_route():
            res = predict_one(cfg, corner_map, rx)
            if res.n_stages[0] >= 2 and not res.los[0]:
                assert abs(res.pl_simplified_db[0] - res.pl_model_db[0]) > 1.0
                seen = True
        assert seen

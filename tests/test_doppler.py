"""Doppler tests: per-path shifts, power-weighted spread, route handling and
the empirical estimate."""

import numpy as np
import pytest

from conftest import TX, corner_route
from urbanprop.config import Route, ScenarioConfig
from urbanprop.doppler import (DopplerSample, PathComponent, doppler_shift,
                               enumerate_paths, gpp_doppler_estimate,
                               rms_spread, route_doppler, route_velocities)
from urbanprop.errors import (DegenerateGeometryError, NumericalDomainError,
                              RouteError)
from urbanprop.pipeline import predict_position, predict_route

F58 = 5.8e9
LAM = 299792458.0 / F58
V20 = 20.0 / 3.6   # 20 km/h in m/s


def comp(u, power):
    u = np.asarray(u, float)
    return PathComponent(u / np.linalg.norm(u), power, "direct")


class TestDopplerShift:
    def test_parallel_20kmh(self):
        f = doppler_shift([V20, 0, 0], [1, 0, 0], F58)
        assert f == pytest.approx(107.48, abs=0.01)

    def test_orthogonal(self):
        assert doppler_shift([5, 0, 0], [0, 1, 0], F58) == 0.0

    def test_antiparallel(self):
        f = doppler_shift([V20, 0, 0], [-1, 0, 0], F58)
        assert f == pytest.approx(-107.48, abs=0.01)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NumericalDomainError):
            doppler_shift([1, 0, 0], [1, 1, 0], F58)


class TestRmsSpread:
    def test_single_path(self):
        s = rms_spread([comp([1, 0, 0], 1.0)], [10, 0, 0], F58)
        assert s.spread == 0.0

    def test_symmetric_pair(self):
        paths = [comp([1, 0, 0], 2.0), comp([-1, 0, 0], 2.0)]
        v = [50.0 * LAM, 0, 0]   # shifts are exactly +-50 Hz
        s = rms_spread(paths, v, F58)
        assert s.weighted_mean == pytest.approx(0.0, abs=1e-9)
        assert s.spread == pytest.approx(50.0, abs=1e-9)

    def test_hand_computed_weights(self):
        # powers {1, 3} at shifts {0, 40} Hz: mean 30, spread sqrt(300)
        paths = [comp([0, 1, 0], 1.0), comp([1, 0, 0], 3.0)]
        v = [40.0 * LAM, 0, 0]
        s = rms_spread(paths, v, F58)
        assert s.weighted_mean == pytest.approx(30.0, abs=1e-9)
        assert s.spread == pytest.approx(np.sqrt(300.0), abs=1e-9)

    def test_weight_invariance(self):
        paths = [comp([0.6, 0.8, 0], 1.0), comp([1, 0, 0], 3.0)]
        scaled = [PathComponent(p.arrival_unit, 8.0 * p.power, p.kind)
                  for p in paths]
        v = [3.0, 1.0, 0.0]
        a, b = rms_spread(paths, v, F58), rms_spread(scaled, v, F58)
        assert a.weighted_mean == b.weighted_mean
        assert a.spread == b.spread

    def test_frame_consistency(self):
        # rotating the velocity and every arrival direction together leaves
        # all shifts unchanged
        rng = np.random.default_rng(5)
        ang = 1.234
        c, s = np.cos(ang), np.sin(ang)
        rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        us = rng.normal(size=(4, 3))
        v = rng.normal(size=3) * 10
        for u in us:
            u = u / np.linalg.norm(u)
            f1 = doppler_shift(v, u, F58)
            f2 = doppler_shift(rot @ v, rot @ u, F58)
            assert f1 == pytest.approx(f2, abs=1e-9)

    def test_empty_paths_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            rms_spread([], [1, 0, 0], F58)


class TestEmpiricalEstimate:
    def test_20kmh_value(self):
        assert gpp_doppler_estimate(V20, F58) == pytest.approx(20.63, abs=0.01)

    def test_zero_speed(self):
        assert gpp_doppler_estimate(0.0, F58) == 0.0

    def test_linearity(self):
        assert gpp_doppler_estimate(2 * V20, F58) == \
            pytest.approx(2 * gpp_doppler_estimate(V20, F58), abs=1e-12)

    def test_geometry_independence(self):
        # identical at equal speed regardless of the propagation state
        assert gpp_doppler_estimate(7.7, F58) == gpp_doppler_estimate(7.7, F58)


class TestRouteVelocities:
    def test_central_differences(self):
        route = Route(np.array([0.0, 1.0, 2.0]),
                      np.array([[0.0, 0, 0], [10, 0, 0], [30, 0, 0]]))
        v = route_velocities(route)
        assert np.allclose(v[0], [10, 0, 0])
        assert np.allclose(v[1], [15, 0, 0])
        assert np.allclose(v[2], [20, 0, 0])

    def test_non_monotone_rejected(self):
        route = Route(np.array([0.0, 0.0]), np.array([[0.0, 0, 0], [1, 0, 0]]))
        with pytest.raises(RouteError):
            route_velocities(route)

    def test_too_short_rejected(self):
        with pytest.raises(RouteError):
            route_velocities(Route(np.array([0.0]), np.zeros((1, 3))))


class TestEnumeratePaths:
    def test_open_field_single_path(self, empty_map, cfg):
        rx = np.array([80.0, 0.0, 2.0])
        res = predict_position(cfg, empty_map, rx)
        paths = enumerate_paths(res.full, cfg.tx, rx, res.term, 1.0, F58)
        assert len(paths) == 1
        assert np.allclose(paths[0].arrival_unit,
                           (cfg.tx - rx) / 80.0,
                           atol=1e-9)

    def test_nlos_components(self, corner_map, cfg):
        rx = np.array([59.0, 30.0, 2.0])
        res = predict_position(cfg, corner_map, rx)
        assert not res.full.los
        paths = enumerate_paths(res.full, cfg.tx, rx, res.term, 1.0, F58)
        assert 1 <= len(paths) <= 2
        kinds = {p.kind for p in paths}
        assert "diffracted_I" in kinds
        for p in paths:
            assert p.power > 0.0
            assert abs(np.linalg.norm(p.arrival_unit) - 1.0) < 1e-9


class TestRouteDoppler:
    def make_route(self, points, dt=0.5):
        return Route(dt * np.arange(len(points)), np.array(points))

    def test_bound_on_fixture(self, corner_map, cfg):
        route = self.make_route(corner_route())
        samples = route_doppler(cfg, route, predict_route(cfg, corner_map, route))
        vels = route_velocities(route)
        for i, (full, simp, sigma) in enumerate(samples):
            vmax = np.linalg.norm(vels[i]) / LAM
            assert full.spread <= vmax + 1e-9
            assert simp.spread <= vmax + 1e-9
            assert all(abs(f) <= vmax + 1e-9 for f in full.shifts)
            assert sigma == pytest.approx(
                gpp_doppler_estimate(float(np.linalg.norm(vels[i])), F58))

    def test_receding_los_route(self, empty_map):
        cfg = ScenarioConfig(tx=np.array([0.0, 0.0, 2.0]))
        pts = [[50.0 + V20 * 0.1 * i, 0.0, 2.0] for i in range(5)]
        route = Route(0.1 * np.arange(5), np.array(pts))
        samples = route_doppler(cfg, route, predict_route(cfg, empty_map, route))
        for full, _simp, _sigma in samples:
            assert len(full.shifts) == 1
            assert full.shifts[0] == pytest.approx(-107.48, abs=0.01)
            assert full.spread == pytest.approx(0.0, abs=1e-9)

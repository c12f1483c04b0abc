"""Doppler tests: per-path shifts, power-weighted spread, route handling and
the empirical estimate."""

import numpy as np
import pytest

from conftest import corner_route, predict_one
from test_identify import _grid_scene
from urbanprop.config import Route, ScenarioConfig
from urbanprop.doppler import (check_spread_range, doppler_shift,
                               gpp_doppler_estimate, rms_spread, route_doppler,
                               route_velocities)
from urbanprop.errors import NumericalDomainError, RouteError
from urbanprop.pipeline import predict_route

F58 = 5.8e9
LAM = 299792458.0 / F58
V20 = 20.0 / 3.6   # 20 km/h in m/s


def unit(u):
    u = np.asarray(u, float)
    return u / np.linalg.norm(u)


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

    def test_rows_match_single_paths(self):
        # a batched (3, 3) @ (3,) product rounds some rows apart; each row
        # must keep the bits of its own 1-D dot product
        rng = np.random.default_rng(11)
        us = rng.normal(size=(64, 3))
        us /= np.linalg.norm(us, axis=1)[:, None]
        vs = rng.normal(size=(64, 3)) * 20.0
        rows = doppler_shift(vs, us, F58)
        assert rows.tobytes() == np.array(
            [v @ u / LAM for v, u in zip(vs, us)]).tobytes()


class TestRmsSpread:
    def test_single_path(self):
        f = doppler_shift([10, 0, 0], [1, 0, 0], F58)
        _mean, spread = rms_spread(np.array([f]), np.array([1.0]))
        assert spread == 0.0

    def test_single_powered_path_random(self):
        # p * f / p misses f in the last bit for about one power in ten, and
        # (p1 f + p2 f) / (p1 + p2) for about one pair in three; a single
        # powered path, or powered paths sharing one shift, must still give
        # that shift and no spread
        rng = np.random.default_rng(22)
        shifts = rng.normal(size=(20000, 3)) * 300.0
        power = rng.uniform(size=(20000, 3)) * 10.0 ** rng.uniform(
            -15, 0, size=(20000, 1))
        path = rng.integers(0, 3, size=20000)
        own = shifts[np.arange(20000), path]
        single = np.where(np.arange(3) == path[:, None], power, 0.0)
        # two or three powered paths at one shift; a dropped path's shift
        # is NaN, as for an absent path
        dropped = rng.integers(-1, 3, size=20000)[:, None] == np.arange(3)
        shared = np.where(dropped, 0.0, power)
        shifts = np.concatenate([shifts, np.where(dropped, np.nan, own[:, None])])
        power = np.concatenate([single, shared])
        own = np.concatenate([own, own])
        naive = (np.where(power > 0.0, power * shifts, 0.0).sum(axis=1)
                 / power.sum(axis=1))
        assert (naive[:20000] != own[:20000]).any()
        assert (naive[20000:] != own[20000:]).any()
        mean, spread = rms_spread(shifts, power)
        assert (mean == own).all()
        assert (spread == 0.0).all()

    def test_symmetric_pair(self):
        v = [50.0 * LAM, 0, 0]   # shifts are exactly +-50 Hz
        shifts = doppler_shift(v, [[1, 0, 0], [-1, 0, 0]], F58)
        mean, spread = rms_spread(shifts, np.array([2.0, 2.0]))
        assert mean == 0.0
        assert spread == abs(shifts[0]) == pytest.approx(50.0, abs=1e-9)

    def test_hand_computed_weights(self):
        # powers {1, 3} at shifts {0, 40} Hz: mean 30, spread sqrt(300)
        v = [40.0 * LAM, 0, 0]
        shifts = doppler_shift(v, [[0, 1, 0], [1, 0, 0]], F58)
        mean, spread = rms_spread(shifts, np.array([1.0, 3.0]))
        assert mean == pytest.approx(30.0, abs=1e-9)
        assert spread == pytest.approx(np.sqrt(300.0), abs=1e-9)

    def test_weight_invariance(self):
        shifts = doppler_shift([3.0, 1.0, 0.0], [unit([0.6, 0.8, 0]),
                                                 [1, 0, 0]], F58)
        power = np.array([1.0, 3.0])
        assert rms_spread(shifts, power) == rms_spread(shifts, 8.0 * power)

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

    def test_no_power_gives_zeros(self):
        mean, spread = rms_spread(np.array([[3.0, np.nan], [1.0, 2.0]]),
                                  np.array([[0.0, 0.0], [0.0, 0.0]]))
        assert mean.tolist() == spread.tolist() == [0.0, 0.0]

    def test_absent_paths_are_ignored(self):
        # zero-power paths leave the result bit for bit as without them,
        # whatever their shifts
        shifts = np.array([-0.0, 7.0, np.nan])
        power = np.array([2.0, 0.0, 0.0])
        got = np.array(rms_spread(shifts, power))
        assert got.tobytes() == np.array(
            rms_spread(shifts[:1], power[:1])).tobytes()
        assert got.tolist() == [0.0, 0.0]

    def test_last_axis_rows(self):
        rng = np.random.default_rng(8)
        shifts = rng.normal(size=(5, 2, 3)) * 100.0
        power = rng.uniform(size=(5, 2, 3)) * (rng.uniform(size=(5, 2, 3)) > 0.3)
        mean, spread = rms_spread(shifts, power)
        assert mean.shape == spread.shape == (5, 2)
        for i in range(5):
            for m in range(2):
                assert (mean[i, m], spread[i, m]) == rms_spread(
                    shifts[i, m], power[i, m])


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

    def test_speeds(self):
        speeds = np.array([0.0, V20, 7.7])
        assert gpp_doppler_estimate(speeds, F58).tolist() == [
            gpp_doppler_estimate(float(s), F58) for s in speeds]
        with pytest.raises(NumericalDomainError):
            gpp_doppler_estimate(np.array([1.0, -1.0]), F58)


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

    @pytest.mark.parametrize("t, x, row", [
        ([-1.0, -1e-320, 0.0, 1e-320, 1.0], [0.0, 1, 2, 3, 4], 2),   # velocity
        ([-1.0, -1e-200, 0.0, 1e-200, 1.0], [0.0, 1, 2, 3, 4], 2),   # speed
        ([0.0, 1, 2, 3, 4], [0.0, 1e200, 2e200, 3e200, 4e200], 0),   # all
    ])
    def test_overflow_names_the_first_row(self, t, x, row):
        """A velocity or speed beyond the float range is a route error
        naming its first row, raised without a numpy warning."""
        route = Route(np.array(t), np.column_stack([x, np.zeros((5, 2))]))
        with pytest.raises(RouteError, match=(
                f"^bad route row {row}: velocity beyond the float range$")):
            route_velocities(route)


class TestSpreadRange:
    @pytest.mark.parametrize("scale", [0.999, 1.001])
    def test_either_side_of_the_bound(self, scale):
        """A shift deviation is at most 2 |v| / lambda, reached by two
        opposite paths, the second far weaker: just under the bound its
        square is finite, just over it overflows, and the check names the
        first row over it."""
        top = np.sqrt(np.finfo(np.float64).max)    # largest finite square root
        speed = scale * top * LAM / 2.0
        vels = np.array([[0.0, 0.0, 0.0], [0.0, speed, 0.0], [speed, 0, 0]])
        shifts, power = np.array([speed, -speed]) / LAM, np.array([1.0, 1e-9])
        if scale < 1.0:
            check_spread_range(vels, F58)
            assert np.isfinite(rms_spread(shifts, power)).all()
        else:
            with pytest.raises(RouteError, match=(
                    "^bad route row 1: Doppler spread beyond the float range$")):
                check_spread_range(vels, F58)
            with pytest.warns(RuntimeWarning, match="overflow"):
                rms_spread(shifts, power)


class TestPathPowers:
    def test_open_field_single_path(self, empty_map, cfg):
        res = predict_one(cfg, empty_map, np.array([80.0, 0.0, 2.0]))
        assert (res.power[0, :, 0] > 0.0).all()
        assert (res.power[0, :, 1:] == 0.0).all()
        assert np.isnan(res.edge).all() and np.isnan(res.wall_point).all()

    def test_nlos_components(self, corner_map, cfg):
        rx = np.array([59.0, 30.0, 2.0])
        res = predict_one(cfg, corner_map, rx)
        assert not res.los[0]
        assert 1 <= np.count_nonzero(res.power[0, 0]) <= 2
        assert res.power[0, 0, 1] > 0.0
        # moving straight at the terminal edge gives the largest shift,
        # |v| / lambda, so its arrival direction has unit length
        step = 0.5 * (res.edge[0] - rx) / np.linalg.norm(res.edge[0] - rx)
        route = Route(np.array([0.0, 1.0]), np.array([rx, rx + step]))
        result = predict_route(cfg, corner_map, route)
        _speed, shifts, power, *_ = route_doppler(cfg, route, result)
        assert power[0, 0, 1] == res.power[0, 0, 1]
        assert shifts[0, 1] == pytest.approx(0.5 / LAM, rel=1e-12)


def scalar_doppler(cfg, rx, v, power, edge, wall):
    """(mean, spread) of each model at one position by the per-path
    arithmetic: 1-D norms and dot products, and sums over present paths
    only, of the shifts relative to the first present path's."""
    lam = 299792458.0 / cfg.freq_hz
    out = []
    for model_power in power:
        ps, fs = [], []
        for p, end in zip(model_power, (cfg.tx, edge, wall)):
            d = end - rx
            n = np.linalg.norm(d)
            if p > 0.0 and n > 0.0:
                ps.append(p)
                fs.append(float(v @ (d / n) / lam))
        if not ps:
            out.append((0.0, 0.0))
            continue
        ps, rel = np.array(ps), np.array(fs) - fs[0]
        total = ps.sum()
        offset = float((ps * rel).sum() / total)
        out.append((fs[0] + offset,
                    float(np.sqrt((ps * (rel - offset) ** 2).sum() / total))))
    return out


class TestRouteDoppler:
    def make_route(self, points, dt=0.5):
        return Route(dt * np.arange(len(points)), np.array(points))

    def test_bound_on_fixture(self, corner_map, cfg):
        route = self.make_route(corner_route())
        speed, shifts, power, _mean, spread, sigma = route_doppler(
            cfg, route, predict_route(cfg, corner_map, route))
        vmax = np.linalg.norm(route_velocities(route), axis=1) / LAM
        assert (spread <= vmax[:, None] + 1e-9).all()
        present = (power > 0.0).any(axis=1)
        assert (np.abs(shifts[present]) <= np.broadcast_to(
            vmax[:, None], shifts.shape)[present] + 1e-9).all()
        assert sigma.tolist() == [gpp_doppler_estimate(float(s), F58)
                                  for s in speed]

    def test_receding_los_route(self, empty_map):
        cfg = ScenarioConfig(tx=np.array([0.0, 0.0, 2.0]))
        pts = [[50.0 + V20 * 0.1 * i, 0.0, 2.0] for i in range(5)]
        route = Route(0.1 * np.arange(5), np.array(pts))
        _speed, shifts, power, _mean, spread, _sigma = route_doppler(
            cfg, route, predict_route(cfg, empty_map, route))
        assert (np.count_nonzero(power[:, 0], axis=1) == 1).all()
        assert shifts[:, 0] == pytest.approx(np.full(5, -107.48), abs=0.01)
        assert spread[:, 0] == pytest.approx(np.zeros(5), abs=1e-9)

    @pytest.mark.parametrize("scene", ["corner", "grid"])
    def test_matches_per_path_arithmetic(self, corner_map, cfg, scene):
        """Every row equals the per-path scalar arithmetic bit for bit."""
        if scene == "corner":
            gmap, points = corner_map, corner_route()
        else:
            gmap, tx, points = _grid_scene()
            cfg = ScenarioConfig(tx=tx)
        route = self.make_route(points)
        res = predict_route(cfg, gmap, route)
        _speed, _shifts, _power, mean, spread, _sigma = route_doppler(
            cfg, route, res)
        want = [scalar_doppler(cfg, rx, v, p, e, w) for rx, v, p, e, w in zip(
            route.xyz, route_velocities(route), res.power, res.edge,
            res.wall_point)]
        assert np.stack([mean, spread], axis=-1).tobytes() == \
            np.array(want).tobytes()

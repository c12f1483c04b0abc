"""Link-budget tests: chain extraction geometry, reflection and slope
coefficients, terminal composition and path-loss conversion."""

import warnings

import numpy as np
import pytest

from conftest import build_map, corner_route
from urbanprop.errors import NumericalDomainError
from urbanprop.fields import direct_field, transition_function
from urbanprop.geometry import Point3
from urbanprop.identify import identify_position
from urbanprop.link import (MaterialConfig, TerminalGeometry, extract_chain,
                            friis_path_loss_db, path_loss,
                            reflection_coefficient, slope_coefficient,
                            total_field)
from urbanprop.pipeline import predict_position

K58 = 2.0 * np.pi * 5.8e9 / 299792458.0


def pt(x, y, z=2.0):
    return Point3(float(x), float(y), float(z))


# -- chain extraction --------------------------------------------------------


class TestExtractChain:
    def test_empty_visibility(self, empty_map, tx):
        vis = identify_position(tx, pt(50, 0), empty_map)
        stages, term = extract_chain(vis, tx, pt(50, 0), empty_map)
        assert stages == [] and term is None

    def test_single_left_building(self, tx):
        gmap = build_map([(0, (30.0, 10.0, 60.0, 20.0, 15.0))])
        rx = pt(90, 0)
        vis = identify_position(tx, rx, gmap)
        stages, term = extract_chain(vis, tx, rx, gmap)
        assert len(stages) == 1
        # nearest roof corner to the street line is (30, 10) or (60, 10);
        # both are 10 m off the line, the lower vertex index (30, 10) wins
        edge = term.edge
        assert (edge.x, edge.y) == (30.0, 10.0)
        assert edge.z == pytest.approx(2.0)   # line height
        d_hand = np.linalg.norm([30.0, 10.0, 0.0])
        assert stages[0].d_tx == pytest.approx(d_hand)
        assert term.d_n == pytest.approx(d_hand)
        assert term.length_direct == pytest.approx(
            np.linalg.norm([90.0 - 30.0, -10.0, 0.0]))
        assert not term.has_reflection

    def test_corner_scene_distances_hand_measured(self, corner_map, tx):
        rx = pt(59, 30)
        vis = identify_position(tx, rx, corner_map)
        stages, term = extract_chain(vis, tx, rx, corner_map)
        assert len(stages) >= 1
        # every stage distance equals the straight-line distance between the
        # TX and that stage's corner at line height
        for st in stages:
            assert st.d_tx > 0 and st.dist_next > 0
        assert term.length_direct == pytest.approx(
            float(np.linalg.norm(rx.as_array() - term.edge.as_array())))
        assert term.length_reflected >= term.length_direct

    def test_canyon_reflection_branch(self, canyon_map, tx):
        # flanked street: the last stage sees an opposite-side wall
        rx = pt(95, 0)
        vis = identify_position(tx, rx, canyon_map)
        stages, term = extract_chain(vis, tx, rx, canyon_map)
        assert len(stages) == 3
        assert term.has_reflection
        assert term.wall_point is not None
        assert term.length_reflected > term.length_direct


# -- reflection coefficient --------------------------------------------------


class TestReflectionCoefficient:
    def test_conducting_limits(self):
        h = reflection_coefficient(0.7, MaterialConfig(1e8, "H"))
        v = reflection_coefficient(0.7, MaterialConfig(1e8, "V"))
        assert abs(h + 1.0) < 1e-3
        assert abs(v - 1.0) < 1e-3

    def test_perfect_conductor_flag(self):
        m = MaterialConfig(perfect_conductor=True, polarization="H")
        assert reflection_coefficient(0.3, m) == -1.0
        m = MaterialConfig(perfect_conductor=True, polarization="V")
        assert reflection_coefficient(0.3, m) == 1.0

    def test_normal_incidence_concrete(self):
        got = reflection_coefficient(0.0, MaterialConfig(6.0, "H"))
        assert got == pytest.approx((1 - np.sqrt(6)) / (1 + np.sqrt(6)), abs=1e-9)

    def test_grazing_limit(self):
        # the formula tends to -1 as incidence approaches the wall plane
        got = reflection_coefficient(np.pi / 2 - 1e-6, MaterialConfig(6.0, "H"))
        assert got == pytest.approx(-1.0, abs=1e-3)

    def test_magnitude_bounded(self):
        for theta in np.linspace(0.0, np.pi / 2 - 1e-3, 100):
            for eps in np.linspace(1.01, 80.0, 100):
                for pol in ("H", "V"):
                    r = reflection_coefficient(theta, MaterialConfig(eps, pol))
                    assert abs(r) <= 1.0 + 1e-12

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            reflection_coefficient(-0.1, MaterialConfig())
        with pytest.raises(NumericalDomainError):
            MaterialConfig(0.5, "V")
        with pytest.raises(NumericalDomainError):
            MaterialConfig(6.0, "X")


# -- slope coefficient -------------------------------------------------------


def term_geom(psi, theta, beta, ell, r, d_n):
    return TerminalGeometry(pt(0, 0), ell, r, psi, theta, beta, d_n)


class TestSlopeCoefficient:
    def test_kind_symmetry(self):
        t = term_geom(psi=1.1, theta=1.1, beta=0.4, ell=30.0, r=30.0, d_n=80.0)
        assert slope_coefficient("I", t, K58) == slope_coefficient("II", t, K58)

    def test_reduces_to_bare_form(self):
        # far from the forward direction with a large reduced distance the
        # transition factors are ~1 and the bare cosecant/secant form holds
        t = term_geom(psi=2.2, theta=2.2, beta=0.3, ell=500.0, r=500.0,
                      d_n=800.0)
        got = slope_coefficient("I", t, K58)
        s = np.sin((2.2 - 0.3) / 2.0)
        c = np.cos((2.2 + 0.3) / 2.0)
        bare = -np.exp(-1j * np.pi / 4.0) / (2.0 * np.sqrt(2.0 * np.pi * K58)) \
            * (1.0 / (-s) - 1.0 / (-c))
        assert abs(got - bare) < 0.01 * abs(bare)

    def test_finite_at_grazing_coincidence(self):
        t = term_geom(psi=0.4, theta=0.4, beta=0.4, ell=30.0, r=30.0, d_n=80.0)
        v = slope_coefficient("I", t, K58)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_magnitude_continuous_through_coincidence(self):
        # the coefficient flips sign across the departure/arrival coincidence
        # (that flip offsets the toggling direct term at the shadow boundary)
        # but its magnitude crosses smoothly
        vals = []
        for db in (-1e-4, 0.0, 1e-4):
            t = term_geom(psi=0.4 + db, theta=0.4, beta=0.4, ell=30.0,
                          r=30.0, d_n=80.0)
            vals.append(slope_coefficient("I", t, K58))
        for v in (vals[0], vals[2]):
            assert abs(abs(v) - abs(vals[1])) < 2.5e-2 * abs(vals[1])

    def test_bad_kind(self):
        t = term_geom(1.0, 1.0, 0.5, 10.0, 10.0, 20.0)
        with pytest.raises(NumericalDomainError):
            slope_coefficient("III", t, K58)


class TestAmplitudeFactors:
    def test_range_and_monotonicity(self):
        ell = 25.0
        prev = 0.0
        for d_n in (10.0, 50.0, 200.0, 5000.0):
            a = np.sqrt(d_n / (ell * (d_n + ell)))
            assert 0.0 < a <= 1.0 / np.sqrt(ell) + 1e-12
            assert a > prev
            prev = a


# -- path loss ---------------------------------------------------------------


class TestPathLoss:
    def test_friis_reduction_at_100m(self):
        e = direct_field(1.0, 100.0, K58)
        _pr, pl, capped = path_loss(e, 1.0, 1.0, 5.8e9)
        assert not capped
        assert pl == pytest.approx(friis_path_loss_db(100.0, 5.8e9), abs=1e-9)
        assert pl == pytest.approx(87.72, abs=0.01)

    def test_double_field_is_6db(self):
        e = direct_field(1.0, 150.0, K58)
        _pr1, pl1, _c1 = path_loss(e, 1.0, 1.0, 5.8e9)
        _pr2, pl2, _c2 = path_loss(2 * e, 1.0, 1.0, 5.8e9)
        assert pl1 - pl2 == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)

    def test_zero_field_capped(self):
        p_r, pl, capped = path_loss(0j, 1.0, 1.0, 5.8e9)
        assert p_r == 0.0 and pl == 300.0 and capped

    def test_power_ratio_invariance(self):
        gmap = build_map([(0, (30.0, 10.0, 60.0, 20.0, 15.0))])
        tx, rx = pt(0, 0), pt(90, 0)
        vis = identify_position(tx, rx, gmap)
        stages, term = extract_chain(vis, tx, rx, gmap)
        m = MaterialConfig()
        pl1 = total_field(vis, stages, term, m, 1.0, tx, rx, K58).pl_db
        pl9 = total_field(vis, stages, term, m, 9.0, tx, rx, K58).pl_db
        assert pl1 == pl9

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            path_loss(1 + 0j, 0.0, 1.0, 5.8e9)
        with pytest.raises(NumericalDomainError):
            path_loss(1 + 0j, 1.0, 1.0, -1.0)


class TestTotalField:
    def test_empty_map_is_friis(self, empty_map, tx):
        rx = pt(200, 40)
        vis = identify_position(tx, rx, empty_map)
        stages, term = extract_chain(vis, tx, rx, empty_map)
        pred = total_field(vis, stages, term, MaterialConfig(), 1.0, tx, rx,
                           K58)
        d = float(np.linalg.norm(rx.as_array() - tx.as_array()))
        assert pred.los and pred.n_stages == 0
        assert pred.pl_db == pytest.approx(friis_path_loss_db(d, 5.8e9),
                                           abs=1e-9)

    def test_rx_directly_above_tx(self, canyon_map, cfg):
        # the TX-RX line has no horizontal length: no candidates, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = predict_position(cfg, canyon_map, pt(0, 0, 10))
        assert res.full.los and res.full.n_stages == 0
        assert res.full.pl_db == pytest.approx(res.pl_friis_db, abs=1e-9)

    def test_nlos_exceeds_matched_los(self, corner_map, cfg):
        # deep-NLOS corner position vs an open-street LOS position at the
        # same 3D distance
        nlos = predict_position(cfg, corner_map, pt(59, 45))
        assert not nlos.full.los
        d = float(np.linalg.norm(pt(59, 45).as_array() - cfg.tx.as_array()))
        los = predict_position(cfg, corner_map, pt(d, 0))
        assert los.full.los
        assert nlos.full.pl_db > los.full.pl_db

    def test_shadow_attenuates_below_friis(self, corner_map, cfg):
        for rx in corner_route():
            res = predict_position(cfg, corner_map, rx)
            if not res.full.los:
                assert res.full.pl_db >= res.pl_friis_db

    def test_reflected_branch_composition(self, canyon_map, tx):
        rx = pt(95, 0)
        vis = identify_position(tx, rx, canyon_map)
        stages, term = extract_chain(vis, tx, rx, canyon_map)
        # force NLOS-style composition check through the component split:
        pred = total_field(vis, stages, term, MaterialConfig(), 1.0, tx, rx,
                           K58)
        assert pred.e_total == pred.components["direct"] \
            + pred.components["final_I"] + pred.components["final_II"]

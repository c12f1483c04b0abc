"""Field-math tests: quadrature oracles for the Fresnel and transition
functions, the exact half-plane solution as reference, region rules and the
recursion chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from urbanprop.errors import NumericalDomainError
from urbanprop.fields import (ChainStage, RegionKind, WedgeGeometry,
                              classify_region, direct_field, fresnel_integral,
                              halfplane_fields, recursive_chain,
                              region_total_field, transition_function)

QUAD = dict(limit=4000, epsabs=1e-13, epsrel=1e-13)


def fresnel_quadrature(u):
    """Adaptive-quadrature reference for int_0^u exp(-j tau^2) dtau.

    With s = tau^2 it is int_0^(u^2) exp(-j s) / (2 sqrt(s)) ds: QUADPACK's
    QAWS takes the 1/sqrt(s) end-point singularity on [0, min(u^2, 1)] and
    QAWO the cos/sin oscillation on the rest (Piessens et al., 1983).
    """
    head, end = min(u * u, 1.0), u * u
    alg = dict(weight="alg", wvar=(-0.5, 0.0), **QUAD)
    re = quad(lambda s: 0.5 * np.cos(s), 0.0, head, **alg)[0]
    im = -quad(lambda s: 0.5 * np.sin(s), 0.0, head, **alg)[0]
    if end > 1.0:
        def amplitude(s):
            return 0.5 / np.sqrt(s)
        re += quad(amplitude, 1.0, end, weight="cos", wvar=1.0, **QUAD)[0]
        im -= quad(amplitude, 1.0, end, weight="sin", wvar=1.0, **QUAD)[0]
    return complex(re, im)


FRESNEL_INF = np.sqrt(np.pi) / 2.0 * np.exp(-1j * np.pi / 4.0)


def transition_quadrature(x):
    """Reference F(X) built from the tail integral int_sqrt(X)^inf."""
    sx = np.sqrt(x)
    tail = FRESNEL_INF - fresnel_quadrature(sx)
    return 2j * sx * np.exp(1j * x) * tail


def sommerfeld_halfplane(e0, alpha, phi, k_d):
    """Exact half-plane total field (Fresnel-integral form).

    Independent closed-form reference: the two modified Fresnel terms with
    the incidence angle measured from the screen, valid at every angle.
    """
    a_s = np.pi - alpha
    out = 0j
    for sign in (1.0, -1.0):
        ang = phi - sign * a_s
        arg = -np.sqrt(2.0 * k_d) * np.cos(ang / 2.0)
        # F_c(a) = e^{j pi/4}/sqrt(pi) * int_a^inf e^{-j tau^2} d tau
        tail = FRESNEL_INF - fresnel_quadrature(abs(arg)) * np.sign(arg)
        fc = np.exp(1j * np.pi / 4.0) / np.sqrt(np.pi) * tail
        out += sign * np.exp(1j * k_d * np.cos(ang)) * fc
    return e0 * out


# -- fresnel_integral --------------------------------------------------------


class TestFresnelIntegral:
    def test_zero(self):
        assert fresnel_integral(0.0) == 0j

    def test_limit_value(self):
        v = fresnel_integral(50.0)
        assert abs(v - FRESNEL_INF) < 2e-2  # oscillatory tail ~ 1/(2u)

    @pytest.mark.parametrize("u", [0.25, 0.5, 1.0, 1.7, 2.0, 3.0, 7.5, 20.0])
    def test_against_quadrature(self, u):
        ref = fresnel_quadrature(u)
        assert abs(fresnel_integral(u) - ref) <= 1e-8 * max(abs(ref), 1.0)

    def test_conjugation_reciprocity(self):
        for u in (0.5, 1.0, 2.5):
            plus = quad(lambda t: np.cos(t * t), 0.0, u, **QUAD)[0] \
                + 1j * quad(lambda t: np.sin(t * t), 0.0, u, **QUAD)[0]
            assert abs(np.conj(fresnel_integral(u)) - plus) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            fresnel_integral(-0.1)
        with pytest.raises(NumericalDomainError):
            fresnel_integral(np.nan)


# -- transition_function -----------------------------------------------------


class TestTransitionFunction:
    def test_large_argument(self):
        f = transition_function(100.0)
        assert abs(f - (1.0 + 0.005j)) < 1e-4

    def test_small_argument_form(self):
        x = 1e-3
        approx = np.sqrt(np.pi * x) * np.exp(1j * (np.pi / 4.0 + x))
        # integral-term bound: |2j sqrt(X) e^{jX} int_0^sqrt(X)| <= 2X
        assert abs(transition_function(x) - approx) <= 2 * x

    def test_magnitude_and_phase_bounds(self):
        for x in np.logspace(-6, 5, 120):
            f = transition_function(x)
            assert 0.0 < abs(f) <= 1.0 + 1e-12
            assert -1e-12 <= np.angle(f) <= np.pi / 4.0 + 1e-12

    @pytest.mark.parametrize("x", [1e-4, 1e-2, 0.5, 1.0, 10.0, 400.0])
    def test_against_quadrature(self, x):
        ref = transition_quadrature(x)
        assert abs(transition_function(x) - ref) <= 1e-6 * abs(ref)

    def test_large_x_deviation_bound(self):
        for x in (10.0, 50.0, 1e3):
            assert abs(transition_function(x) - 1.0) <= 0.6 / x

    def test_domain_error(self):
        with pytest.raises(NumericalDomainError):
            transition_function(0.0)


# -- region classification ---------------------------------------------------


class TestRegionClassification:
    def wedge(self, alpha_deg, phi_deg):
        return WedgeGeometry(np.deg2rad(alpha_deg), np.deg2rad(phi_deg),
                             10.0, 1.0)

    def test_reflection(self):
        assert classify_region(self.wedge(30, 20)) is RegionKind.REFLECTION

    def test_transmission_and_shadow(self):
        assert classify_region(self.wedge(30, 200)) is RegionKind.TRANSMISSION
        assert classify_region(self.wedge(30, 340)) is RegionKind.SHADOW

    def test_renormalized_wedge(self):
        # original angle 150 deg maps to boundaries at 150 and 210 deg
        assert classify_region(self.wedge(150, 100)) is RegionKind.REFLECTION

    def test_boundaries_closed_below(self):
        assert classify_region(self.wedge(30, 30)) is RegionKind.REFLECTION
        assert classify_region(self.wedge(30, 330)) is RegionKind.TRANSMISSION

    def test_partition_exhaustive(self):
        g = [classify_region(self.wedge(40, p)) for p in np.arange(0, 360, 7)]
        assert set(g) == {RegionKind.REFLECTION, RegionKind.TRANSMISSION,
                          RegionKind.SHADOW}

    def test_invalid_angles(self):
        with pytest.raises(NumericalDomainError):
            WedgeGeometry(-0.1, 0.0, 1.0, 1.0)
        with pytest.raises(NumericalDomainError):
            WedgeGeometry(1.0, 7.0, 1.0, 1.0)


# -- half-plane fields -------------------------------------------------------


class TestHalfplaneFields:
    def test_zero_source(self):
        g = WedgeGeometry(np.deg2rad(60), np.deg2rad(120), 5.0, 2.0)
        f = halfplane_fields(0.0, g)
        assert f["t"] == f["r"] == f["d"] == 0j

    def test_uncorrected_form_far_from_boundaries(self):
        # kD = 1000, mid-transmission: F ~ 1 so the bare secant form applies
        alpha, phi, kd = np.deg2rad(50), np.deg2rad(180), 1000.0
        g = WedgeGeometry(alpha, phi, kd, 1.0)
        e_d = halfplane_fields(1.0, g)["d"]
        a_s = np.pi - alpha
        bare = -np.exp(-1j * kd) * np.exp(-1j * np.pi / 4.0) / (
            2.0 * np.sqrt(2.0 * np.pi * kd)) * (
            1.0 / np.cos((phi - a_s) / 2.0) - 1.0 / np.cos((phi + a_s) / 2.0))
        assert abs(e_d - bare) < 0.005 * abs(bare)

    def test_finite_at_shadow_boundary(self):
        alpha = np.deg2rad(70)
        kd = 500.0
        for dphi in (-0.1, -0.01, 0.0, 0.01, 0.1):
            phi = 2 * np.pi - alpha + np.deg2rad(dphi)
            g = WedgeGeometry(alpha, phi % (2 * np.pi), kd, 1.0)
            f = halfplane_fields(1.0, g)
            assert np.isfinite(f["d"].real) and np.isfinite(f["d"].imag)
            assert abs(f["d"]) < 2.0

    @given(st.floats(0.1, 3.0), st.floats(0.1, 6.1), st.floats(1.0, 1e3),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60)
    def test_linearity_in_source(self, alpha, phi, kd, re, im):
        e0 = complex(re, im)
        g = WedgeGeometry(min(alpha, np.pi), phi % (2 * np.pi), kd, 1.0)
        base = region_total_field(1.0, g)
        assert abs(region_total_field(e0, g) - e0 * base) < 1e-9 * (1 + abs(e0))


class TestRegionTotalField:
    def test_shadow_is_diffraction_only(self):
        g = WedgeGeometry(np.deg2rad(40), np.deg2rad(350), 100.0, 1.0)
        assert classify_region(g) is RegionKind.SHADOW
        assert region_total_field(1.0, g) == halfplane_fields(1.0, g)["d"]

    def test_transmission_dominated_by_incident(self):
        g = WedgeGeometry(np.deg2rad(40), np.deg2rad(180), 1e6, 1.0)
        e = region_total_field(1.0, g)
        assert abs(e - halfplane_fields(1.0, g)["t"]) < 1e-2

    def test_matches_exact_solution(self):
        """Uniform region fields vs the exact half-plane reference, all
        regions, angles at least 2 degrees from the GO boundaries."""
        rng = np.random.default_rng(11)
        for alpha_deg in (30.0, 75.0, 120.0):
            alpha = np.deg2rad(alpha_deg)
            bounds = np.array([alpha, 2 * np.pi - alpha])
            for kd in (100.0, 1e3, 1e4):
                for phi in rng.uniform(0.0, 2 * np.pi, 12):
                    if np.min(np.abs(phi - bounds)) < np.deg2rad(2.0):
                        continue
                    g = WedgeGeometry(alpha, phi, kd, 1.0)
                    got = region_total_field(1.0, g)
                    ref = sommerfeld_halfplane(1.0, alpha, phi, kd)
                    assert abs(abs(got) - abs(ref)) <= 0.02 * max(abs(ref), 1e-3)

    def test_continuity_as_offset_shrinks(self):
        """The jump across each boundary vanishes linearly with the offset."""
        for alpha_deg in (30.0, 90.0, 150.0):
            alpha = np.deg2rad(alpha_deg)
            for bnd in (alpha, 2 * np.pi - alpha):
                jumps = []
                for delta in (1e-4, 1e-6):
                    es = [region_total_field(
                        1.0, WedgeGeometry(alpha, (bnd + s * delta) % (2 * np.pi),
                                           200.0, 1.0)) for s in (-1.0, 1.0)]
                    jumps.append(abs(es[0] - es[1]))
                assert jumps[1] < jumps[0] / 50.0
                assert jumps[1] < 1e-3


# -- direct field and recursion ----------------------------------------------


class TestDirectField:
    def test_magnitude_100m(self):
        e = direct_field(1.0, 100.0, 1.0)
        assert abs(abs(e) - np.sqrt(60.0) / 100.0) < 1e-12

    def test_inverse_distance_and_phase(self):
        k = 2.0
        e1, e2 = direct_field(1.0, 50.0, k), direct_field(1.0, 100.0, k)
        assert abs(abs(e1) - 2 * abs(e2)) < 1e-12
        assert abs(np.angle(e2 / e1) - (-k * 50.0) % (2 * np.pi) + 2 * np.pi) \
            % (2 * np.pi) < 1e-9

    def test_power_scaling(self):
        assert abs(abs(direct_field(4.0, 10.0, 1.0))
                   - 2 * abs(direct_field(1.0, 10.0, 1.0))) < 1e-12

    def test_domain_error(self):
        with pytest.raises(NumericalDomainError):
            direct_field(0.0, 1.0, 1.0)


class TestRecursiveChain:
    def test_single_stage_is_free_space(self):
        st1 = ChainStage(40.0, 10.0, np.pi / 2, np.pi)
        e, trace = recursive_chain(2.0, [st1], 1.5)
        assert e == direct_field(2.0, 40.0, 1.5)
        assert len(trace) == 1 and trace[0].region is None

    def test_two_stage_shadow_loses_energy(self):
        # deep-shadow first wedge, second edge cannot see the TX
        st1 = ChainStage(50.0, 30.0, np.deg2rad(80), np.deg2rad(350))
        st2 = ChainStage(80.0, 20.0, np.deg2rad(80), np.deg2rad(300),
                         direct_blocked=True)
        e, trace = recursive_chain(1.0, [st1, st2], 121.0)
        assert abs(e) < abs(direct_field(1.0, 80.0, 121.0))
        assert trace[1].region is RegionKind.SHADOW

    def test_linear_in_sqrt_power(self):
        st1 = ChainStage(50.0, 30.0, np.deg2rad(80), np.deg2rad(350))
        st2 = ChainStage(80.0, 20.0, np.deg2rad(80), np.deg2rad(200))
        e1, _ = recursive_chain(1.0, [st1, st2], 10.0)
        e9, _ = recursive_chain(9.0, [st1, st2], 10.0)
        assert abs(e9 - 3.0 * e1) < 1e-9 * abs(e1)

    def test_empty_chain_rejected(self):
        with pytest.raises(NumericalDomainError):
            recursive_chain(1.0, [], 1.0)

    def test_stage_error_carries_index(self):
        bad = ChainStage(10.0, 5.0, np.pi / 2, np.pi)
        object.__setattr__(bad, "alpha", -1.0)
        # the bad wedge of stage 1 is consumed when evaluating stage 2
        with pytest.raises(NumericalDomainError, match="stage 2"):
            recursive_chain(1.0, [ChainStage(5.0, 5.0, 1.0, 1.0), bad,
                                  ChainStage(9.0, 5.0, 1.0, 1.0)], 1.0)

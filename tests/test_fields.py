"""Field-math tests: quadrature oracles for the transition function, the
exact half-plane solution as reference for the stage transfer factor, its
region rules, and the recursion chain against a per-component reference."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from urbanprop.errors import NumericalDomainError
from urbanprop.fields import (STAGE, diffraction_term, direct_field,
                              recursive_chain, stage_transfer,
                              transition_function)
from urbanprop.link import ChainTable

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

    @pytest.mark.parametrize("x", [np.nextafter(1e-12, 0.0), 1e-20, 1e-4,
                                   1e-2, 0.5, 1.0, 10.0, 400.0])
    def test_against_quadrature(self, x):
        ref = transition_quadrature(x)
        assert abs(transition_function(x) - ref) <= 1e-6 * abs(ref)

    def test_large_x_deviation_bound(self):
        for x in (10.0, 50.0, 1e3):
            assert abs(transition_function(x) - 1.0) <= 0.6 / x

    def test_domain_error(self):
        for x in (0.0, -0.1, np.nan):
            with pytest.raises(NumericalDomainError):
                transition_function(x)


# -- stage transfer factor ---------------------------------------------------


def halfplane_components(e0, alpha, phi, k_d):
    """Reference: the incident, reflected and diffracted fields of the source
    ``e0`` at one stage (distance ``k_d`` at k = 1), each scaled by it."""
    a_s = np.pi - alpha
    phi_i, phi_r = phi - a_s, phi + a_s
    e_t = e0 * np.exp(1j * k_d * np.cos(phi_i))
    e_r = -e0 * np.exp(1j * k_d * np.cos(phi_r))
    pref = -e0 * np.exp(-1j * k_d) * np.exp(-1j * np.pi / 4.0) / (
        2.0 * np.sqrt(2.0 * np.pi * k_d))
    e_d = pref * (diffraction_term(np.cos(phi_i / 2.0), k_d)
                  - diffraction_term(np.cos(phi_r / 2.0), k_d))
    return e_t, e_r, e_d


# the three region sums of the components, by region
REGION_SUMS = {"reflection": lambda t, r, d: t + r + d,
               "transmission": lambda t, r, d: t + d,
               "shadow": lambda t, r, d: d}


def component_stage(e0, alpha, phi, k_d):
    """Reference stage: the components summed per the region table, with a
    boundary angle in the region listed first."""
    region = ("reflection" if phi <= alpha else
              "transmission" if phi <= 2.0 * np.pi - alpha else "shadow")
    return REGION_SUMS[region](*halfplane_components(e0, alpha, phi, k_d))


def regions_matched(alpha_deg, phi_deg, k_d=10.0):
    """The regions whose component sum the transfer factor equals."""
    alpha, phi = np.deg2rad(alpha_deg), np.deg2rad(phi_deg)
    tau = stage_transfer(alpha, phi, k_d, 1.0)
    comps = halfplane_components(1.0, alpha, phi, k_d)
    return {name for name, f in REGION_SUMS.items()
            if abs(tau - f(*comps)) <= 1e-12 * max(abs(tau), 1.0)}


class TestRegionClassification:
    def test_reflection(self):
        assert regions_matched(30, 20) == {"reflection"}

    def test_transmission_and_shadow(self):
        assert regions_matched(30, 200) == {"transmission"}
        assert regions_matched(30, 340) == {"shadow"}

    def test_renormalized_wedge(self):
        # original angle 150 deg maps to boundaries at 150 and 210 deg
        assert regions_matched(150, 100) == {"reflection"}

    def test_boundaries_closed_below(self):
        assert regions_matched(30, 30) == {"reflection"}
        assert regions_matched(30, 330) == {"transmission"}

    def test_partition_exhaustive(self):
        # from 3 deg: on the screen face (phi = 0) t + r = 0, so the
        # reflection and shadow sums coincide there
        g = [regions_matched(40, p) for p in np.arange(3, 360, 7)]
        assert all(len(m) == 1 for m in g)
        assert set().union(*g) == {"reflection", "transmission", "shadow"}

    def test_invalid_angles(self):
        for args, message in [
                ((-0.1, 0.0, 1.0, 1.0), r"alpha must be in \[0, pi\], got -0.1"),
                ((1.0, 7.0, 1.0, 1.0), r"phi must be in \[0, 2\*pi\), got 7.0"),
                ((1.0, 1.0, 0.0, 1.0), "distance and k must be positive"),
                ((1.0, 1.0, 1.0, -1.0), "distance and k must be positive")]:
            with pytest.raises(NumericalDomainError, match=f"^{message}$"):
                stage_transfer(*args)


class TestHalfplaneFields:
    def test_uncorrected_form_far_from_boundaries(self):
        # kD = 1000, mid-transmission: F ~ 1 so the bare secant form applies
        alpha, phi, kd = np.deg2rad(50), np.deg2rad(180), 1000.0
        e_d = stage_transfer(alpha, phi, kd, 1.0) - np.exp(
            1j * kd * np.cos(phi - (np.pi - alpha)))
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
            tau = stage_transfer(alpha, phi % (2 * np.pi), kd, 1.0)
            assert np.isfinite(tau.real) and np.isfinite(tau.imag)
            assert abs(tau) < 2.0

    @given(st.floats(0.1, 3.0), st.floats(0.1, 6.1), st.floats(1.0, 1e3),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60)
    def test_linearity_in_source(self, alpha, phi, kd, re, im):
        """The components of any source sum to the source times the factor."""
        e0 = complex(re, im)
        alpha, phi = min(alpha, np.pi), phi % (2 * np.pi)
        tau = stage_transfer(alpha, phi, kd, 1.0)
        assert abs(component_stage(e0, alpha, phi, kd) - e0 * tau) \
            < 1e-9 * (1 + abs(e0))


class TestRegionTotalField:
    def test_shadow_is_diffraction_only(self):
        alpha, phi = np.deg2rad(40), np.deg2rad(350)
        assert stage_transfer(alpha, phi, 100.0, 1.0) \
            == halfplane_components(1.0, alpha, phi, 100.0)[2]

    def test_transmission_dominated_by_incident(self):
        alpha, phi = np.deg2rad(40), np.deg2rad(180)
        tau = stage_transfer(alpha, phi, 1e6, 1.0)
        assert abs(tau - halfplane_components(1.0, alpha, phi, 1e6)[0]) < 1e-2

    def test_full_screen_is_zero(self):
        """At alpha = pi the reflected field cancels the incident one and the
        two edge terms cancel each other: the factor is exactly 0."""
        for phi in np.linspace(0.0, 2 * np.pi, 37)[:-1]:
            assert stage_transfer(np.pi, phi, 50.0, 2.0) == 0

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
                    got = stage_transfer(alpha, phi, kd, 1.0)
                    ref = sommerfeld_halfplane(1.0, alpha, phi, kd)
                    assert abs(abs(got) - abs(ref)) <= 0.02 * max(abs(ref), 1e-3)

    def test_continuity_as_offset_shrinks(self):
        """The jump across each boundary vanishes linearly with the offset."""
        for alpha_deg in (30.0, 90.0, 150.0):
            alpha = np.deg2rad(alpha_deg)
            for bnd in (alpha, 2 * np.pi - alpha):
                jumps = []
                for delta in (1e-4, 1e-6):
                    es = [stage_transfer(alpha, (bnd + s * delta) % (2 * np.pi),
                                         200.0, 1.0) for s in (-1.0, 1.0)]
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


# one stage of a chain, as a row of the stage table
Stage = namedtuple("Stage", STAGE.names, defaults=(False,))


def stage_table(chains):
    """The ``ChainTable`` of the stages of ``chains``, lists of ``Stage``s."""
    return ChainTable(np.cumsum([0] + [len(c) for c in chains]),
                      np.array([tuple(st) for c in chains for st in c],
                               dtype=STAGE), None, None)


def component_chain(p_t, stages, k):
    """Reference recursion: each stage's components of the field at its edge,
    summed per the region table, plus the next edge's direct field.  Also
    returns the chain's magnitude scale: the same recursion over the
    absolute values of every summed term, which bounds the rounding error."""
    e = direct_field(p_t, stages[0].d_tx, k)
    scale = abs(e)
    for prev, st in zip(stages, stages[1:]):
        k_d = k * prev.dist_next
        terms = halfplane_components(1.0, prev.alpha, prev.phi, k_d)
        e = component_stage(e, prev.alpha, prev.phi, k_d)
        scale *= sum(map(abs, terms))
        if not st.blocked:
            e_dir = direct_field(p_t, st.d_tx, k)
            e += e_dir
            scale += abs(e_dir)
    return e, scale


@st.composite
def chain_stages(draw, min_size=1):
    """``min_size``-7 stages; about a tenth of the wedges are full screens
    (alpha = pi)."""
    def stage():
        return st.builds(
            Stage, st.floats(1.0, 2000.0), st.floats(1e-3, 500.0),
            st.integers(0, 9).flatmap(lambda i: st.just(np.pi) if i == 0
                                      else st.floats(0.0, np.pi)),
            st.floats(0.0, 2 * np.pi, exclude_max=True), st.booleans())
    return draw(st.lists(stage(), min_size=min_size, max_size=7))


class TestRecursiveChain:
    def test_single_stage_is_free_space(self):
        st1 = Stage(40.0, 10.0, np.pi / 2, np.pi)
        assert recursive_chain(2.0, stage_table([[st1]]), 1.5)[0] \
            == direct_field(2.0, 40.0, 1.5)

    def test_two_stage_shadow_loses_energy(self):
        # deep-shadow first wedge, second edge cannot see the TX
        st1 = Stage(50.0, 30.0, np.deg2rad(80), np.deg2rad(350))
        st2 = Stage(80.0, 20.0, np.deg2rad(80), np.deg2rad(300), blocked=True)
        e = recursive_chain(1.0, stage_table([[st1, st2]]), 121.0)[0]
        assert abs(e) < abs(direct_field(1.0, 80.0, 121.0))
        e1 = direct_field(1.0, 50.0, 121.0)
        shadow = halfplane_components(e1, st1.alpha, st1.phi, 121.0 * 30.0)[2]
        assert abs(e - shadow) <= 1e-12 * abs(shadow)

    def test_linear_in_sqrt_power(self):
        st1 = Stage(50.0, 30.0, np.deg2rad(80), np.deg2rad(350))
        st2 = Stage(80.0, 20.0, np.deg2rad(80), np.deg2rad(200))
        e1, e9 = (recursive_chain(p_t, stage_table([[st1, st2]]), 10.0)[0]
                  for p_t in (1.0, 9.0))
        assert abs(e9 - 3.0 * e1) < 1e-9 * abs(e1)

    @given(st.lists(chain_stages(min_size=0), min_size=1, max_size=16),
           st.floats(1.0, 250.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_component_recursion(self, chains, k):
        """One table of 1-16 chains, one recurrence over them: one factor per
        stage gives each chain's per-component recursion within 1e-12 of its
        magnitude scale (|E| itself unless terms cancel), and the same exact
        zeros where a full screen nulls the chain; a chain without stages
        gets 0, and a table without stages is rejected."""
        if not any(chains):
            with pytest.raises(NumericalDomainError):
                recursive_chain(1.0, stage_table(chains), k)
            return
        block = recursive_chain(1.0, stage_table(chains), k)
        assert block.shape == (len(chains),)
        for got, stages in zip(block, chains):
            if not stages:
                assert got == 0
                continue
            want, scale = component_chain(1.0, stages, k)
            assert abs(got - want) <= 1e-12 * scale
            # a full screen (alpha = pi) zeroes its stage exactly, so a chain
            # with no direct term after one is exactly 0 in both forms; other
            # cancellations (alpha = 0 at phi just below 2 pi) leave residues
            # that differ by rounding, held to the bound above
            if any(prev.alpha == np.pi and all(s.blocked for s in stages[n:])
                   for n, prev in enumerate(stages[:-1], start=1)):
                assert got == want == 0

    @given(chain_stages(), st.floats(1.0, 250.0), st.integers(0, 15))
    @settings(max_examples=50, deadline=None)
    def test_block_equals_alone(self, stages, k, at):
        """A chain gets the bits of its table of one in any row of a block."""
        others = [[Stage(30.0 + n, 7.0, 1.0, 3.0)] * (n % 4) for n in range(16)]
        block = recursive_chain(1.0, stage_table(
            others[:at] + [stages] + others[at:]), k)
        alone = recursive_chain(1.0, stage_table([stages]), k)
        assert block[at:at + 1].tobytes() == alone.tobytes()

    def test_empty_chain_rejected(self):
        with pytest.raises(NumericalDomainError):
            recursive_chain(1.0, stage_table([[]]), 1.0)

    def test_stage_error_carries_index(self):
        bad = Stage(10.0, 5.0, -1.0, np.pi)
        # the bad wedge of stage 1 is consumed when evaluating stage 2
        with pytest.raises(NumericalDomainError,
                           match=r"^stage 2: alpha must be in \[0, pi\], got -1.0$"):
            recursive_chain(1.0, stage_table([[Stage(5.0, 5.0, 1.0, 1.0), bad,
                                               Stage(9.0, 5.0, 1.0, 1.0)]]), 1.0)

    def test_block_error_names_the_first_bad_stage(self):
        """The check runs over the whole table before any field: the first
        bad stage in row order is named, here the first of the third chain,
        read by its stage 1, ahead of a later chain's bad phi."""
        good = [Stage(5.0, 5.0, 1.0, 1.0), Stage(9.0, 5.0, 1.0, 1.0)]
        chains = [good, [], [Stage(7.0, 5.0, 4.0, 1.0)] + good,
                  [Stage(7.0, 5.0, 1.0, 7.0)] + good]
        with pytest.raises(NumericalDomainError,
                           match=r"^stage 1: alpha must be in \[0, pi\], got 4.0$"):
            recursive_chain(1.0, stage_table(chains), 1.0)
        with pytest.raises(NumericalDomainError,
                           match=r"^stage 1: phi must be in \[0, 2\*pi\), got 7.0$"):
            recursive_chain(1.0, stage_table(chains[3:]), 1.0)
        with pytest.raises(NumericalDomainError,
                           match="^stage 2: distance and k must be positive$"):
            recursive_chain(1.0, stage_table(
                [good, good + [Stage(0.0, 5.0, 1.0, 1.0)]]), 1.0)

    def test_last_wedge_is_not_checked(self):
        """A chain's last wedge is not read by the recursion, so a bad one
        there does not raise, in any row of a block."""
        good = [Stage(5.0, 5.0, 1.0, 1.0), Stage(9.0, 5.0, 1.0, 1.0)]
        chains = [good, good + [Stage(7.0, 5.0, -1.0, 9.0)], good]
        block = recursive_chain(1.0, stage_table(chains), 1.0)
        assert np.all(np.isfinite(block)) and block[0] == block[2]

"""Complex-field mathematics for half-plane diffraction.

Implements the Fresnel integral, the Kouyoumjian-style transition function,
region classification at a wedge, the uniform (F-corrected) half-plane
fields and the recursive multiple-diffraction chain.

Angle convention: ``alpha`` is the wedge angle with GO boundaries at
``phi = alpha`` (reflection boundary) and ``phi = 2*pi - alpha`` (shadow
boundary) for alpha in [0, pi].  Internally the incidence angle measured
from the screen is ``pi - alpha``; using it in the incident/reflected phase
angles is what makes the GO switching of the region table coincide with the
sign flips of the secant terms, so the total field is continuous across
both boundaries.  Time convention is exp(+j w t) with outgoing phase
exp(-j k d).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import fresnel, modfresnelm

from .errors import NumericalDomainError

SQRT_PI = np.sqrt(np.pi)

# Transition-function branch thresholds.  The asymptotic series takes over
# only where its truncation error is far below the 1e-6 accuracy target
# (error ~ 105/(16 X^4), i.e. ~1e-10 at X=500); the closed small-argument
# form is kept only for arguments too small to matter numerically.
F_ASYMPTOTIC_MIN = 500.0
F_SMALL_MAX = 1e-12


def fresnel_integral(u):
    """``int_0^u exp(-j tau^2) dtau`` for real u >= 0.

    Evaluated through the scipy Fresnel sine/cosine integrals, accurate to
    machine precision (far inside the 1e-8 contract).
    """
    if not np.isfinite(u) or u < 0.0:
        raise NumericalDomainError(f"fresnel_integral requires finite u >= 0, got {u}")
    s, c = fresnel(u * np.sqrt(2.0 / np.pi))
    return np.sqrt(np.pi / 2.0) * complex(c, -s)


def transition_function(x):
    """Transition function F(X) regularizing diffraction near GO boundaries.

    F(X) = sqrt(pi X) e^{j(pi/4+X)} - 2j sqrt(X) e^{jX} int_0^sqrt(X) e^{-j tau^2} dtau,
    evaluated cancellation-safely as 2j sqrt(X) e^{jX} int_sqrt(X)^inf e^{-j tau^2} dtau
    (the modified negative Fresnel integral); a 4-term asymptotic series takes
    over for large arguments.  |F| is in (0, 1] and arg F in [0, pi/4].
    """
    if not np.isfinite(x) or x <= 0.0:
        raise NumericalDomainError(f"transition_function requires finite X > 0, got {x}")
    if x >= F_ASYMPTOTIC_MIN:
        xi = 1.0 / x
        return 1.0 + xi * (0.5j + xi * (-0.75 + xi * -1.875j))
    if x < F_SMALL_MAX:
        return np.sqrt(np.pi * x) * np.exp(1j * (np.pi / 4.0 + x))
    sx = np.sqrt(x)
    fm = complex(modfresnelm(sx)[0])
    return 2j * sx * np.exp(1j * x) * fm


class RegionKind(Enum):
    REFLECTION = "reflection"
    TRANSMISSION = "transmission"
    SHADOW = "shadow"


@dataclass(frozen=True)
class WedgeGeometry:
    """One half-plane stage: wedge angle, observation angle, distance, wavenumber."""

    alpha: float   # rad, in [0, pi]
    phi: float     # rad, in [0, 2*pi)
    distance: float  # edge-to-observation distance, m
    k: float       # wavenumber, rad/m

    def __post_init__(self):
        if not 0.0 <= self.alpha <= np.pi:
            raise NumericalDomainError(f"alpha must be in [0, pi], got {self.alpha}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise NumericalDomainError(f"phi must be in [0, 2*pi), got {self.phi}")
        if self.distance <= 0.0 or self.k <= 0.0:
            raise NumericalDomainError("distance and k must be positive")


def classify_region(g):
    """Region of the observation angle: reflection / transmission / shadow.

    Boundaries sit at ``alpha`` and ``2*pi - alpha`` (identical whether the
    wedge angle is given directly in [0, pi/2] or renormalized from
    [pi/2, pi]); a boundary angle belongs to the region listed first.
    """
    if g.phi <= g.alpha:
        return RegionKind.REFLECTION
    if g.phi <= 2.0 * np.pi - g.alpha:
        return RegionKind.TRANSMISSION
    return RegionKind.SHADOW


def diffraction_term(cos_half, k_d):
    """sec(ang/2) * F(2 kD cos^2(ang/2)), finite through the boundary: the
    UTD edge term of the chain stages and of ``link.slope_coefficient``."""
    x = 2.0 * k_d * cos_half * cos_half
    if x < 1e-24:
        # limit of sec * F as the cosine vanishes; the sign flip across the
        # boundary is what cancels the GO step
        sign = 1.0 if cos_half >= 0.0 else -1.0
        return sign * np.sqrt(2.0 * np.pi * k_d) * np.exp(1j * np.pi / 4.0)
    return transition_function(x) / cos_half


def halfplane_fields(e0, g):
    """Incident, reflected and diffracted field phasors at the observation point.

    The diffracted term carries the uniform F-correction on each secant so
    that the total field stays finite and continuous at the GO boundaries.

    Returns a dict with keys ``"t"``, ``"r"``, ``"d"``.
    """
    e0 = complex(e0)
    a_s = np.pi - g.alpha       # incidence angle from the screen
    phi_i, phi_r = g.phi - a_s, g.phi + a_s
    k_d = g.k * g.distance
    e_t = e0 * np.exp(1j * k_d * np.cos(phi_i))
    e_r = -e0 * np.exp(1j * k_d * np.cos(phi_r))
    pref = -e0 * np.exp(-1j * k_d) * np.exp(-1j * np.pi / 4.0) / (
        2.0 * np.sqrt(2.0 * np.pi * k_d))
    e_d = pref * (diffraction_term(np.cos(phi_i / 2.0), k_d)
                  - diffraction_term(np.cos(phi_r / 2.0), k_d))
    return {"t": e_t, "r": e_r, "d": e_d}


def region_total_field(e0, g):
    """Total field per the region table: Et+Er+Ed / Et+Ed / Ed."""
    f = halfplane_fields(e0, g)
    region = classify_region(g)
    if region is RegionKind.REFLECTION:
        return f["t"] + f["r"] + f["d"]
    if region is RegionKind.TRANSMISSION:
        return f["t"] + f["d"]
    return f["d"]


def direct_field(p_t, d, k):
    """Free-space field phasor ``2 sqrt(15 P_t)/d * exp(-j k d)`` in V/m."""
    if p_t <= 0.0 or d <= 0.0 or k <= 0.0:
        raise NumericalDomainError("direct_field requires positive P_t, d and k")
    return 2.0 * np.sqrt(15.0 * p_t) / d * np.exp(-1j * k * d)


@dataclass(frozen=True)
class ChainStage:
    """Per-edge geometry of the diffraction chain.

    ``dist_next`` is the edge-to-next-edge distance (for the final stage it
    is the edge-to-terminal distance and is not consumed by the recursion).
    ``direct_blocked`` zeroes the per-stage free-space term when the edge
    cannot see the TX; it never applies to the first stage (recursion base).
    """

    d_tx: float        # TX-to-edge distance, m
    dist_next: float   # edge-to-next-point distance, m
    alpha: float       # wedge angle, rad
    phi: float         # observation angle toward the next point, rad
    direct_blocked: bool = False

    def __post_init__(self):
        if self.d_tx <= 0.0 or self.dist_next <= 0.0:
            raise NumericalDomainError("stage distances must be positive")


@dataclass
class StageTrace:
    stage: ChainStage
    region: RegionKind = None
    e_total: complex = 0j


def recursive_chain(p_t, stages, k):
    """Field at the last edge of the chain, plus the per-stage trace.

    E_1 = E_dir(d_1); E_n = E_dir(d_n) + E_z[E_{n-1}, alpha_{n-1},
    phi_{n-1}, D_{n-1}] for n >= 2, where the per-stage direct term is
    dropped for edges whose view of the TX is blocked.
    """
    if not stages:
        raise NumericalDomainError("recursive_chain requires at least one stage")
    trace = []
    e_prev = None
    for n, st in enumerate(stages):
        try:
            if n == 0:
                e_here = direct_field(p_t, st.d_tx, k)
                region = None
            else:
                prev = stages[n - 1]
                g = WedgeGeometry(prev.alpha, prev.phi, prev.dist_next, k)
                region = classify_region(g)
                e_here = region_total_field(e_prev, g)
                if not st.direct_blocked:
                    e_here += direct_field(p_t, st.d_tx, k)
        except NumericalDomainError as exc:
            raise NumericalDomainError(f"stage {n}: {exc}") from exc
        trace.append(StageTrace(st, region, e_here))
        e_prev = e_here
    return e_prev, trace

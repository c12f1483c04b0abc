"""Complex-field mathematics for half-plane diffraction: the Kouyoumjian-style
transition function, the UTD edge term, the transfer factor of one stage
(the field behind a stage is linear in the field at its edge, so a stage is
one complex factor) and the recursive multiple-diffraction chain.

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

import numpy as np
from scipy.special import modfresnelm

from .errors import NumericalDomainError

# Transition-function branch thresholds.  The asymptotic series takes over
# only where its truncation error is far below the 1e-6 accuracy target
# (error ~ 105/(16 X^4), i.e. ~1e-10 at X=500); the closed small-argument
# form is kept only for arguments too small to matter numerically.
F_ASYMPTOTIC_MIN = 500.0
F_SMALL_MAX = 1e-12


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


def stage_transfer(alpha, phi, distance, k):
    """Transfer factor of one half-plane stage: the total field at
    ``distance`` from the edge and angle ``phi``, per unit field at the edge.

    The incident (t), reflected (r) and diffracted (d) terms sum to t + r + d
    up to ``alpha``, t + d up to ``2*pi - alpha`` and d beyond; a boundary
    angle belongs to the region listed first.  The F-corrected secants of d
    keep the factor finite and continuous at both GO boundaries.
    """
    if not 0.0 <= alpha <= np.pi:
        raise NumericalDomainError(f"alpha must be in [0, pi], got {alpha}")
    if not 0.0 <= phi < 2.0 * np.pi:
        raise NumericalDomainError(f"phi must be in [0, 2*pi), got {phi}")
    if distance <= 0.0 or k <= 0.0:
        raise NumericalDomainError("distance and k must be positive")
    a_s = np.pi - alpha       # incidence angle from the screen
    phi_i, phi_r = phi - a_s, phi + a_s
    k_d = k * distance
    pref = -np.exp(-1j * k_d) * np.exp(-1j * np.pi / 4.0) / (
        2.0 * np.sqrt(2.0 * np.pi * k_d))
    d = pref * (diffraction_term(np.cos(phi_i / 2.0), k_d)
                - diffraction_term(np.cos(phi_r / 2.0), k_d))
    if phi > 2.0 * np.pi - alpha:
        return d
    t = np.exp(1j * k_d * np.cos(phi_i))
    if phi > alpha:
        return t + d
    return t - np.exp(1j * k_d * np.cos(phi_r)) + d


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


def recursive_chain(p_t, stages, k):
    """Field at the last edge of the chain.

    E_1 = E_dir(d_1); E_n = E_dir(d_n) + tau_{n-1} E_{n-1} for n >= 2, with
    tau_{n-1} the ``stage_transfer`` of edge n-1 over D_{n-1}, and the
    per-stage direct term dropped for edges whose view of the TX is blocked.
    """
    if not stages:
        raise NumericalDomainError("recursive_chain requires at least one stage")
    n = 0
    try:
        e = direct_field(p_t, stages[0].d_tx, k)
        for n, (prev, st) in enumerate(zip(stages, stages[1:]), start=1):
            e = e * stage_transfer(prev.alpha, prev.phi, prev.dist_next, k)
            if not st.direct_blocked:
                e += direct_field(p_t, st.d_tx, k)
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"stage {n}: {exc}") from exc
    return e

"""Complex-field mathematics for half-plane diffraction, elementwise on arrays:
the Kouyoumjian-style transition function, the UTD edge term, the transfer
factor of a stage (the field behind a stage is linear in the field at its
edge: one complex factor) and the recursive chain, a block of chains at once.

Angle convention: ``alpha`` is the wedge angle with GO boundaries at
``phi = alpha`` (reflection boundary) and ``phi = 2*pi - alpha`` (shadow
boundary) for alpha in [0, pi].  Internally the incidence angle measured
from the screen is ``pi - alpha``; using it in the incident/reflected phase
angles is what makes the GO switching of the region table coincide with the
sign flips of the secant terms, so the total field is continuous across
both boundaries.  Time convention is exp(+j w t) with outgoing phase
exp(-j k d).
"""

import numpy as np
from scipy.special import modfresnelm

from .errors import NumericalDomainError

# Transition-function branch thresholds.  The asymptotic series takes over
# only where its truncation error is far below the 1e-6 accuracy target
# (error ~ 105/(16 X^4), i.e. ~1e-10 at X=500); the closed small-argument
# form is kept only for arguments too small to matter numerically.
F_ASYMPTOTIC_MIN = 500.0
F_SMALL_MAX = 1e-12

# A chain stage: distances TX-to-edge and edge-to-next point (the terminal,
# for the last stage), wedge and observation angles, and whether the edge's
# view of the TX is blocked, which drops its direct term (not on the first).
STAGE = np.dtype([("d_tx", "f8"), ("dist_next", "f8"), ("alpha", "f8"),
                  ("phi", "f8"), ("blocked", "?")])


def cmul(a, b):
    """Complex ``a * b``, each real product rounded alone as numpy's scalar
    product does; its array loops may fuse them, changing a block's bits."""
    re = a.real * b.real - a.imag * b.imag
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, a.real * b.imag + a.imag * b.real
    return out[()]


def transition_function(x):
    """Transition function F(X) regularizing diffraction near GO boundaries.

    F(X) = sqrt(pi X) e^{j(pi/4+X)} - 2j sqrt(X) e^{jX} int_0^sqrt(X) e^{-j tau^2} dtau,
    evaluated cancellation-safely as 2j sqrt(X) e^{jX} int_sqrt(X)^inf e^{-j tau^2} dtau
    (the modified negative Fresnel integral); a 4-term asymptotic series takes
    over for large arguments.  |F| is in (0, 1] and arg F in [0, pi/4].
    """
    x = np.asarray(x, dtype=np.float64)
    bad = ~((0.0 < x) & (x < np.inf))
    if bad.any():
        raise NumericalDomainError(
            f"transition_function requires finite X > 0, got {x[bad][0]}")
    f = np.empty(x.shape, dtype=np.complex128)
    big, small = x >= F_ASYMPTOTIC_MIN, x < F_SMALL_MAX
    xi, xs, rest = 1.0 / x[big], x[small], x[~big]
    f[big] = 1.0 + xi * (0.5j + xi * (-0.75 + xi * -1.875j))
    sx = np.sqrt(rest)
    f[~big] = cmul(cmul(2j * sx, np.exp(1j * rest)), modfresnelm(sx)[0])
    f[small] = np.sqrt(np.pi * xs) * np.exp(1j * (np.pi / 4.0 + xs))
    return f[()]


def diffraction_term(cos_half, k_d):
    """sec(ang/2) * F(2 kD cos^2(ang/2)), finite through the boundary: the
    UTD edge term of the chain stages and of ``link.slope_coefficient``."""
    x = 2.0 * k_d * cos_half * cos_half
    near = x < 1e-24
    # limit of sec * F as the cosine vanishes; the sign flip across the
    # boundary is what cancels the GO step
    limit = (np.where(cos_half >= 0.0, 1.0, -1.0) * np.sqrt(2.0 * np.pi * k_d)
             * np.exp(1j * np.pi / 4.0))
    term = transition_function(np.where(near, 1.0, x)) / np.where(near, 1.0, cos_half)
    return np.where(near, limit, term)[()]


def _check_stages(alpha, phi, distance, k, name=lambda j, c: ""):
    """Raise for the first element, in order, outside ``stage_transfer``'s
    domain, naming its first failed check c after ``name(element, c)``."""
    alpha, phi, distance = map(np.ravel, np.broadcast_arrays(alpha, phi, distance))
    failed = np.array([~((0.0 <= alpha) & (alpha <= np.pi)),
                       ~((0.0 <= phi) & (phi < 2.0 * np.pi)),
                       (distance <= 0.0) | (k <= 0.0)])
    if failed.any():
        j, c = divmod(int(failed.T.argmax()), 3)   # first element, first check
        raise NumericalDomainError(name(j, c) + (
            f"alpha must be in [0, pi], got {alpha[j]}", f"phi must be in "
            f"[0, 2*pi), got {phi[j]}", "distance and k must be positive")[c])


def stage_transfer(alpha, phi, distance, k):
    """Transfer factor of one half-plane stage: the total field at
    ``distance`` from the edge and angle ``phi``, per unit field at the edge.

    The incident (t), reflected (r) and diffracted (d) terms sum to t + r + d
    up to ``alpha``, t + d up to ``2*pi - alpha`` and d beyond; a boundary
    angle belongs to the region listed first.  The F-corrected secants of d
    keep the factor finite and continuous at both GO boundaries.
    """
    _check_stages(alpha, phi, distance, k)
    a_s = np.pi - alpha       # incidence angle from the screen
    phi_i, phi_r = phi - a_s, phi + a_s
    k_d = k * distance
    pref = cmul(-np.exp(-1j * k_d), np.exp(-1j * np.pi / 4.0)) / (
        2.0 * np.sqrt(2.0 * np.pi * k_d))
    terms = diffraction_term(np.cos(np.array([phi_i, phi_r]) / 2.0), k_d)
    d = cmul(pref, terms[0] - terms[1])
    t = np.exp(1j * k_d * np.cos(phi_i))
    return np.where(phi > 2.0 * np.pi - alpha, d, np.where(
        phi > alpha, t + d, t - np.exp(1j * k_d * np.cos(phi_r)) + d))[()]


def direct_field(p_t, d, k):
    """Free-space field phasor ``2 sqrt(15 P_t)/d * exp(-j k d)`` in V/m."""
    if p_t <= 0.0 or k <= 0.0 or np.any(np.asarray(d) <= 0.0):
        raise NumericalDomainError("direct_field requires positive P_t, d and k")
    return 2.0 * np.sqrt(15.0 * p_t) / d * np.exp(-1j * k * d)


def recursive_chain(p_t, table, k):
    """Field at the last edge of each chain i of ``table``, its ``STAGE``
    rows ``stages[start[i]:start[i + 1]]`` (0 without stages): E_1 = E_dir(d_1),
    E_n = E_dir(d_n) + tau_{n-1} E_{n-1}, tau_{n-1} the ``stage_transfer`` of
    edge n-1 over D_{n-1}, with the direct term dropped for edges whose view
    of the TX is blocked.  One check first names the table's first bad
    stage: ``stage n`` reads the bad value, so a last wedge is not checked."""
    start, s = np.asarray(table.start), table.stages
    if not len(s):
        raise NumericalDomainError("recursive_chain requires at least one stage")
    size = np.diff(start)
    n = np.arange(len(s)) - np.repeat(start[:-1], size)   # index in its chain
    used = n + 1 < np.repeat(size, size)                 # read by the next stage
    _check_stages(np.where(used, s["alpha"], 0.0), np.where(used, s["phi"], 0.0),
                  np.minimum(s["d_tx"], s["dist_next"]), k,
                  lambda j, c: f"stage {n[j] + (c < 2)}: ")
    tau = np.zeros(len(s), dtype=np.complex128)
    tau[used] = stage_transfer(s["alpha"][used], s["phi"][used], s["dist_next"][used], k)
    # (chain, n) tables; a chain past its end keeps its field
    live = np.arange(size.max()) < size[:, None]
    row = np.where(live, start[:-1, None] + np.arange(size.max()), 0)
    tau, direct = tau[row], direct_field(p_t, s["d_tx"], k)[row]
    blocked = s["blocked"][row]
    e = np.where(live[:, 0], direct[:, 0], 0.0)
    for m in range(1, size.max()):
        e_m = cmul(e, tau[:, m - 1])
        e = np.where(live[:, m], np.where(blocked[:, m], e_m, e_m + direct[:, m]), e)
    return e

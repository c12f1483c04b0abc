"""Per-path Doppler shifts and power-weighted RMS Doppler spread.

Paths come from the component decomposition of the terminal field (direct,
terminal-diffraction branch, wall-reflected branch); per-stage intermediate
diffraction is already folded into the chain field and is not emitted as a
separate path.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, NumericalDomainError, RouteError
from .link import C_LIGHT, received_power

# empirical angular-spread parameter: 11 degrees, applied in radians
ANGULAR_SPREAD_RAD = np.deg2rad(11.0)


@dataclass(frozen=True, eq=False)
class PathComponent:
    arrival_unit: np.ndarray   # unit 3-vector from the RX toward the source
    power: float               # W
    kind: str                  # direct | diffracted_I | reflected_II


@dataclass
class DopplerSample:
    shifts: list = field(default_factory=list)   # Hz per path
    weighted_mean: float = 0.0
    spread: float = 0.0


def enumerate_paths(pred, tx, rx, term, g_r, freq):
    """Arrival directions and powers of the terminal-field components.

    Each arrival direction points from the receiver back toward the last
    interaction point of its component (TX, terminal edge, or wall point), so
    motion toward a source yields a positive shift and motion away a negative
    one.
    """
    ends = [("direct", "direct", tx)]
    if term is not None:
        ends += [("final_I", "diffracted_I", term.edge),
                 ("final_II", "reflected_II", term.wall_point)]
    paths = []
    for name, kind, end in ends:
        e = pred.components[name]
        if e == 0:
            continue
        v = end - rx
        n = np.linalg.norm(v)
        power = received_power(e, g_r, freq)
        if n > 0 and power > 0.0:
            paths.append(PathComponent(v / n, power, kind))
    return paths


def doppler_shift(v, u, freq):
    """Single-path shift (v . u)/lambda in Hz; ``u`` must be unit length."""
    u = np.asarray(u, dtype=np.float64)
    if abs(np.linalg.norm(u) - 1.0) > 1e-6:
        raise NumericalDomainError("direction vector must be unit length")
    lam = C_LIGHT / freq
    return float(np.asarray(v, dtype=np.float64) @ u / lam)


def rms_spread(paths, v, freq):
    """Power-weighted mean shift and RMS spread over the path set."""
    if not paths:
        raise DegenerateGeometryError("no propagation path with positive power")
    powers = np.array([p.power for p in paths])
    total = powers.sum()
    if total <= 0.0:
        raise DegenerateGeometryError("total path power is zero")
    shifts = np.array([doppler_shift(v, p.arrival_unit, freq) for p in paths])
    mean = float((powers * shifts).sum() / total)
    spread = float(np.sqrt((powers * (shifts - mean) ** 2).sum() / total))
    return DopplerSample(list(shifts), mean, spread)


def gpp_doppler_estimate(v_mag, freq):
    """Empirical spread f_max * angular-spread (Hz)."""
    if v_mag < 0.0:
        raise NumericalDomainError("speed must be non-negative")
    lam = C_LIGHT / freq
    return float(v_mag / lam * ANGULAR_SPREAD_RAD)


def route_velocities(route):
    """Central finite-difference velocities (forward/backward at the ends)
    of a ``config.Route``."""
    t, pos = route.t, route.xyz
    if len(t) < 2:
        raise RouteError("route must contain at least two points for Doppler")
    if np.any(np.diff(t) <= 0.0):
        raise RouteError("route timestamps must be strictly increasing")
    v = np.empty_like(pos)
    v[0] = (pos[1] - pos[0]) / (t[1] - t[0])
    v[-1] = (pos[-1] - pos[-2]) / (t[-1] - t[-2])
    if len(t) > 2:
        v[1:-1] = (pos[2:] - pos[:-2]) / (t[2:] - t[:-2])[:, None]
    return v


def route_doppler(cfg, route, results):
    """One (full-model, simplified-model, empirical) sample triple per point,
    from the route's ``pipeline.predict_route`` results.

    Returns a list of ``(sample_full, sample_simplified, sigma_gpp)``;
    field-less positions yield zero-path samples with zero spread.
    """
    vels = route_velocities(route)
    out = []
    for rx, res, v in zip(route.xyz, results, vels):
        samples = []
        for pred in (res.full, res.simplified):
            paths = enumerate_paths(pred, cfg.tx, rx, res.term,
                                    cfg.g_r_linear, cfg.freq_hz)
            if paths:
                samples.append(rms_spread(paths, v, cfg.freq_hz))
            else:
                samples.append(DopplerSample())
        sigma_gpp = gpp_doppler_estimate(float(np.linalg.norm(v)), cfg.freq_hz)
        out.append((samples[0], samples[1], sigma_gpp))
    return out

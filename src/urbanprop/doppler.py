"""Per-path Doppler shifts and power-weighted RMS Doppler spread over the
columns of a route's ``pipeline.RouteResult``.

Paths come from the component decomposition of the terminal field (direct,
terminal-diffraction branch, wall-reflected branch); per-stage intermediate
diffraction is already folded into the chain field and is not emitted as a
separate path.  Each row keeps the bits of the arithmetic on its own paths:
dot products go through ``geometry.row_dot``, absent paths add ``-0.0``.
"""

import numpy as np

from .errors import NumericalDomainError, RouteError
from .geometry import row_dot
from .link import C_LIGHT

# empirical angular-spread parameter: 11 degrees, applied in radians
ANGULAR_SPREAD_RAD = np.deg2rad(11.0)


def doppler_shift(v, u, freq):
    """Shift (v . u)/lambda in Hz of each unit arrival direction ``u``
    (..., 3) for the velocity ``v`` (..., 3), broadcasting over rows."""
    v, u = np.asarray(v, dtype=np.float64), np.asarray(u, dtype=np.float64)
    if np.any(np.abs(np.sqrt(row_dot(u, u)) - 1.0) > 1e-6):
        raise NumericalDomainError("direction vector must be unit length")
    return row_dot(v, u) / (C_LIGHT / freq)


def rms_spread(shifts, power):
    """Power-weighted mean shift and RMS spread over the last axis.

    Paths with zero power are absent, whatever their shift (NaN included);
    where no path has power, the mean and the spread are 0.  Both sums run
    over the shifts taken relative to the first powered path's, ``ref``:
    the mean is ``ref + sum(p (f - ref)) / sum(p)``, so powered paths that
    share one shift (a single one included) give exactly that shift and a
    spread of exactly 0, where ``sum(p f) / sum(p)`` can miss it by a bit.
    """
    on = power > 0.0
    total = np.where(on, power, -0.0).sum(axis=-1)
    some = total > 0.0
    total = np.where(some, total, 1.0)
    ref = np.take_along_axis(shifts, on.argmax(axis=-1)[..., None], axis=-1)
    rel = shifts - ref
    offset = np.where(on, power * rel, -0.0).sum(axis=-1) / total
    dev = np.where(on, power * (rel - offset[..., None]) ** 2, -0.0)
    spread = np.sqrt(dev.sum(axis=-1) / total)
    return np.where(some, ref[..., 0] + offset, 0.0), np.where(some, spread, 0.0)


def gpp_doppler_estimate(v_mag, freq):
    """Empirical spread f_max * angular-spread (Hz) of each speed."""
    if np.any(np.asarray(v_mag) < 0.0):
        raise NumericalDomainError("speed must be non-negative")
    return v_mag / (C_LIGHT / freq) * ANGULAR_SPREAD_RAD


def route_velocities(route):
    """Central finite-difference velocities (forward/backward at the ends)
    of a ``config.Route``; a ``RouteError`` names the first row whose
    velocity or speed is beyond the float range."""
    t, pos = route.t, route.xyz
    if len(t) < 2:
        raise RouteError("route must contain at least two points for Doppler")
    if np.any(np.diff(t) <= 0.0):
        raise RouteError("route timestamps must be strictly increasing")
    v = np.empty_like(pos)
    with np.errstate(over="ignore", invalid="ignore"):
        v[0] = (pos[1] - pos[0]) / (t[1] - t[0])
        v[-1] = (pos[-1] - pos[-2]) / (t[-1] - t[-2])
        v[1:-1] = (pos[2:] - pos[:-2]) / (t[2:] - t[:-2])[:, None]
        bad = np.flatnonzero(~np.isfinite(row_dot(v, v)))
    if len(bad):
        raise RouteError(f"bad route row {bad[0]}: velocity beyond the float range")
    return v


def route_doppler(cfg, route, result):
    """Doppler columns of a route from its ``pipeline.RouteResult``:
    ``(speed, shifts, power, mean, spread, sigma_gpp)``.

    ``shifts`` (P, 3) are those of the direct, final_I and final_II paths,
    arriving from the TX, the terminal edge and the wall point (NaN where
    there is none); ``power`` (P, 2, 3) is the full and simplified models'
    path power, 0 where a path is absent; ``mean`` and ``spread`` are (P, 2).
    """
    vels = route_velocities(route)
    ends = np.stack(np.broadcast_arrays(cfg.tx, result.edge,
                                        result.wall_point), axis=1)
    arrival = ends - route.xyz[:, None, :]
    dist = np.sqrt(row_dot(arrival, arrival))
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = arrival / dist[..., None]
    shifts = doppler_shift(vels[:, None, :], unit, cfg.freq_hz)
    power = np.where((dist > 0.0)[:, None, :], result.power, 0.0)
    mean, spread = rms_spread(shifts[:, None, :], power)
    speed = np.sqrt(row_dot(vels, vels))
    return (speed, shifts, power, mean, spread,
            gpp_doppler_estimate(speed, cfg.freq_hz))

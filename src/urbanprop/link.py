"""Chain extraction, terminal field composition and path-loss conversion,
a block of positions at a time: one table of the stage and terminal columns
of their chains (a stage per visible building, at the roof corner nearest
the propagation line), then each position's LOS/NLOS terminal field from
the slope-diffraction branches and its path loss, each quantity one pass.

Wedge angles are measured in the horizontal plane at each corner: the
screen is the first ring wall most nearly parallel to the incident ray, and
the orientation is chosen so the source lies at a positive angle from the
screen; a corner without ring walls or incident horizontal length takes
straight-transmission angles, and its terminal the x axis as screen.
Distances are full 3D lengths with edge points taken at the height of the
propagation line.  Points are ``(3,)`` float64 arrays.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import gpp_path_loss
from .errors import NumericalDomainError
from .fields import STAGE, cmul, diffraction_term, direct_field, recursive_chain
from .geometry import EPS_LEN, f_block, first_per_group, row_dot

C_LIGHT = 299792458.0
ETA_0 = 120.0 * np.pi
PL_CAP_DB = 300.0

# A chain's terminal in its last stage's frame: that corner, RX distances
# direct (L) and by the wall (r), departures toward the RX (psi) and its
# image (theta), arrival (beta), TX distance (d_n), wall point (NaN: none).
TERMINAL = np.dtype([("edge", "f8", 3), ("length_direct", "f8"),
                     ("length_reflected", "f8"), ("psi", "f8"), ("theta", "f8"),
                     ("beta", "f8"), ("d_n", "f8"), ("wall_point", "f8", 3),
                     ("wall_incidence", "f8")])


@dataclass(eq=False)
class ChainTable:
    """A block's chains: position i's ``STAGE`` rows ``stages[start[i]:
    start[i + 1]]``, ``VisibilitySet`` and ``TERMINAL`` row (NaN: none)."""

    start: np.ndarray
    stages: np.ndarray
    vis: list
    terminal: np.ndarray


@dataclass(eq=False)
class LinkPrediction:
    """Both field models and the empirical references at one position, or
    (P,) columns over a block; ``power`` (2, 3): component powers (W)."""

    pl_db: float
    pl_simplified_db: float
    e_total: complex
    components: dict      # {"direct", "final_I", "final_II"} -> complex
    power: np.ndarray
    capped: bool
    pl_gpp_db: float
    pl_free_space_db: float


def _angle(w, v):
    """Signed angles of the 2D rows v from the unit rows w, in (-pi, pi]."""
    return np.arctan2(w[:, 0] * v[:, 1] - w[:, 1] * v[:, 0],
                      w[:, 0] * v[:, 0] + w[:, 1] * v[:, 1])


def _reflection_branch(gmap, opposite, e, x):
    """Image of each RX ``x[n]`` across the nearest wall of the buildings
    ``opposite[n]`` (a list of ids), seen from the final edge ``e[n]``:
    ``(n, r, wall_point, image, incidence)`` over the rows n with a specular
    point.  Of equally near walls the first, by building and face, wins."""
    w, size = gmap.wall_rows([bid for ids in opposite for bid in ids])
    group = np.repeat(np.repeat(np.arange(len(opposite)),
                                [len(ids) for ids in opposite]), size)
    nrm, p0 = gmap.wall_normal.take(w, axis=0), gmap.wall_point.take(w, axis=0)
    e, x = e.take(group, axis=0), x.take(group, axis=0)   # take: faster than indexing
    d_rx = row_dot(x - p0, nrm)
    image = x - 2.0 * d_rx[:, None] * nrm
    seg = image - e
    denom = row_dot(seg, nrm)
    # walls (nearly) parallel to the image ray give huge or NaN t: masked
    with np.errstate(all="ignore"):
        t = row_dot(p0 - e, nrm) / denom
        wall_point = e + t[:, None] * seg
        inc_dir = wall_point - e
        inc_norm = np.sqrt(row_dot(inc_dir, inc_dir))
    # edge and RX on the same wall side, a specular point inside the segment
    i = np.flatnonzero((d_rx * row_dot(e - p0, nrm) > 0.0)
                       & (np.abs(denom) >= 1e-12) & (0.0 < t) & (t < 1.0)
                       & (inc_norm >= 1e-9))
    i = i[first_per_group(group[i], np.abs(d_rx[i]))]
    incidence = np.arccos(np.clip(
        np.abs(row_dot(inc_dir[i], nrm[i])) / inc_norm[i], -1.0, 1.0))
    return (group[i], np.sqrt(row_dot(seg[i], seg[i])), wall_point[i],
            image[i], incidence)


def chain_table(vis_list, tx, rxs, gmap):
    """The ``ChainTable`` of ``VisibilitySet``s ``vis_list`` at ``rxs`` (P, 3).

    A position's stages are its visible buildings, each from its first
    sub-segment, sorted by sub-segment, line parameter and id, but for one
    anchored at the TX, which cannot diffract toward it.  One ``f_block``
    query tests the TX->edge rays of every stage but the first of each chain.
    """
    rows, start = [], [0]    # (sub-segment, t, id, roof row, side, sub)
    for vis in vis_list:
        first = {}
        for s, sub in enumerate(vis.visible):
            for side, ids in enumerate((sub.left, sub.right)):
                for bid in ids:
                    _dist, row, t = sub.corner[bid]
                    first.setdefault(bid, (s, t, bid, row, side, sub))
        rows += sorted(first.values())
        start.append(len(rows))
    _s, t, _bid, row, side, subs = zip(*rows) if rows else [()] * 6
    row = np.array(row, dtype=np.int64)
    a_z, b_z = (np.array([getattr(sub, k)[2] for sub in subs]) for k in "ab")
    edge = np.column_stack([gmap.roof_xy.take(row, axis=0),
                            a_z + np.clip(t, 0.0, 1.0) * (b_z - a_z)])
    keep = np.flatnonzero(np.sqrt(row_dot(edge - tx, edge - tx)) > EPS_LEN)
    start = np.searchsorted(keep, start)
    row, edge = row[keep], edge.take(keep, axis=0)
    terminal = np.full(len(vis_list), np.nan, TERMINAL)
    has = np.diff(start) > 0
    head, last = start[:-1][has], start[1:][has] - 1
    prev, nxt = np.roll(edge, 1, axis=0), np.roll(edge, -1, axis=0)
    prev[head], nxt[last] = tx, rxs[has]
    rest = np.ones(len(row), dtype=bool)
    rest[head] = False
    blocked = np.zeros(len(row), dtype=bool)
    blocked[rest] = f_block(np.broadcast_to(tx, (rest.sum(), 3)), edge[rest], gmap)
    # the screen frame: the first wall of equally parallel ones wins
    inc = edge[:, :2] - prev[:, :2]
    inc_n = np.hypot(inc[:, 0], inc[:, 1])
    w, size = gmap.ring_wall_rows(row)
    framed = (inc_n >= 1e-9) & (size > 0)
    group = np.repeat(np.arange(len(row)), size)
    w, group = w[framed[group]], group[framed[group]]
    with np.errstate(all="ignore"):
        inc = inc / inc_n[:, None]
    walls = gmap.ring_dir.take(w, axis=0)
    score = np.abs((walls * inc.take(group, axis=0)).sum(axis=1))
    screen = np.tile([1.0, 0.0], (len(row), 1))
    screen[framed] = walls.take(first_per_group(group, -score), axis=0)
    a_back = _angle(screen[framed], -inc[framed])   # back toward the source
    orient, alpha_s = np.ones(len(row)), np.full(len(row), np.pi / 2.0)
    orient[framed] = np.where(a_back >= 0.0, 1.0, -1.0)
    alpha_s[framed] = orient[framed] * a_back

    def depart(k, v):   # angles of the 2D rows v from the screens of stages k
        a = (orient[k] * _angle(screen[k], v)) % (2.0 * np.pi)
        return np.where(a == 2.0 * np.pi, 0.0, a)   # -1e-17 % 2pi is 2pi
    out, to_tx = nxt - edge, edge - tx
    dist_next, d_tx = np.sqrt(row_dot(out, out)), np.sqrt(row_dot(to_tx, to_tx))
    phi = depart(slice(None), out[:, :2])
    stages = np.empty(len(row), STAGE)
    stages["d_tx"], stages["dist_next"] = d_tx, np.maximum(dist_next, 1e-9)
    stages["dist_next"][last] = dist_next[last]    # L: an RX at the corner fails
    stages["alpha"] = np.clip(np.pi - alpha_s, 0.0, np.pi)
    stages["phi"], stages["blocked"] = np.where(framed, phi, np.pi), blocked
    # the terminal, in the screen frame of the last stage, whose corner it is
    hit, r, wall_point, image, incidence = _reflection_branch(
        gmap, [(subs[k].right, subs[k].left)[side[k]] for k in keep[last].tolist()],
        edge.take(last, axis=0), rxs[has])
    term = np.zeros(len(last), TERMINAL)
    term["edge"], term["psi"], term["beta"] = edge[last], phi[last], alpha_s[last]
    term["length_direct"] = term["length_reflected"] = dist_next[last]
    term["theta"], term["d_n"], term["wall_point"] = phi[last], d_tx[last], np.nan
    term["theta"][hit] = depart(last[hit], image[:, :2] - edge[last[hit], :2])
    term["length_reflected"][hit] = np.maximum(r, dist_next[last[hit]])
    term["wall_point"][hit], term["wall_incidence"][hit] = wall_point, incidence
    terminal[has] = term
    return ChainTable(start, stages, vis_list, terminal)


def extract_chain(table, i):
    """Position i's ``(STAGE rows, TERMINAL row)`` cut from a ``chain_table``;
    no rows and None when no building is visible (free-space link)."""
    lo, hi = table.start[i], table.start[i + 1]
    return table.stages[lo:hi], table.terminal[i] if hi > lo else None


def reflection_coefficient(theta, eps_r, polarization):
    """Fresnel coefficient of a wall of permittivity ``eps_r`` for "H" or "V"
    ``polarization`` at incidence ``theta`` from its normal, in [0, pi/2)."""
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all((0.0 <= theta) & (theta < np.pi / 2.0)):
        raise NumericalDomainError("theta must be in [0, pi/2)")
    s2 = np.sin(theta) ** 2
    if np.any(eps_r < s2):
        raise NumericalDomainError("eps_r below sin^2(theta)")
    root = (1.0 if polarization == "H" else 1.0 / eps_r) * np.sqrt(eps_r - s2)
    return (np.cos(theta) - root) / (np.cos(theta) + root)


def slope_coefficient(kind, term, k):
    """Terminal slope-diffraction coefficient of the ``TERMINAL`` rows
    ``term`` for ``kind`` (per row) I, direct departure, or II,
    wall-reflected departure, from the chain's UTD edge term."""
    if not set(np.ravel(kind)) <= {"I", "II"}:
        raise NumericalDomainError("kind must be 'I' or 'II'")
    depart, length = (np.where(np.asarray(kind) == "II", term[b], term[a]) for a, b
                      in (("psi", "theta"), ("length_direct", "length_reflected")))
    d_n = term["d_n"]
    l_red = length * d_n / (d_n + length)   # reduced distance parameter
    s = np.sin((depart - term["beta"]) / 2.0)
    c = np.cos((depart + term["beta"]) / 2.0)
    pref = -np.exp(-1j * np.pi / 4.0) / (2.0 * np.sqrt(2.0 * np.pi * k))
    terms = diffraction_term(np.array([c, s]), k * l_red)
    return cmul(pref, terms[0] - terms[1])


def chain_fields(table, cfg, rxs):
    """``LinkPrediction`` columns of a ``chain_table`` at ``rxs`` in scenario
    ``cfg``: the terminal branches fed with the recursive chain field at the
    final edge (full model) or free space to it (simplified), plus the direct
    field where LOS."""
    p_t, tx, freq, g_r = cfg.p_t_watts, cfg.tx, cfg.freq_hz, cfg.g_r_linear
    k = 2.0 * np.pi * freq / C_LIGHT
    los = np.array([vis.classification.los for vis in table.vis], dtype=bool)
    d3d = np.sqrt(row_dot(rxs - tx, rxs - tx))
    comps = np.zeros((len(los), 2, 3), dtype=np.complex128)  # direct, I, II
    comps[los, :, 0] = direct_field(p_t, d3d[los], k)[:, None]
    h = np.flatnonzero(np.diff(table.start))
    if len(h):
        term = table.terminal[h]
        e_n = np.stack([recursive_chain(p_t, table, k)[h],
                        direct_field(p_t, term["d_n"], k)], axis=1)
        # branch I of every chain, then branch II where a wall reflects
        w = np.flatnonzero(~los[h] & ~np.isnan(term["wall_point"][:, 0]))
        kind, term = np.repeat(["I", "II"], [len(h), len(w)]), term[np.r_[:len(h), w]]
        source = np.concatenate([e_n, reflection_coefficient(
            term["wall_incidence"][len(h):], cfg.eps_r,
            cfg.polarization)[:, None] * e_n[w]])
        ell = np.where(kind == "II", term["length_reflected"], term["length_direct"])
        branch = cmul(cmul(source, slope_coefficient(kind, term, k)[:, None])
                      * np.sqrt(term["d_n"] / (ell * (term["d_n"] + ell)))[:, None],
                      np.exp(-1j * k * ell)[:, None])
        comps[h, :, 1], comps[h[w], :, 2] = branch[:len(h)], branch[len(h):]
    e = comps[:, :, 0] + comps[:, :, 1] + comps[:, :, 2]
    _p_r, pl_db, capped = path_loss(e, p_t, g_r, freq, cfg.pl_cap_db)
    return LinkPrediction(
        pl_db[:, 0], pl_db[:, 1], e[:, 0],
        dict(zip(("direct", "final_I", "final_II"), comps[:, 0].T)),
        received_power(comps, g_r, freq), capped[:, 0],
        gpp_path_loss(np.maximum(d3d, 1.0), freq / 1e9, los),
        friis_path_loss_db(d3d, freq))


def total_field(fields, i):
    """Position i's ``LinkPrediction`` cut from its block's ``chain_fields``."""
    return LinkPrediction(**{name: {key: c[i] for key, c in column.items()}
                             if name == "components" else column[i]
                             for name, column in vars(fields).items()})


def path_loss(e, p_t, g_r, freq, pl_cap_db=PL_CAP_DB):
    """(received power W, path loss dB (float), capped flag) of phasors."""
    if p_t <= 0.0 or g_r <= 0.0 or freq <= 0.0:
        raise NumericalDomainError("P_t, G_r and freq must be positive")
    p_r = received_power(e, g_r, freq)
    with np.errstate(divide="ignore"):
        pl_db = -10.0 * np.log10(p_r / p_t)
    capped = pl_db > pl_cap_db
    return p_r, np.where(capped, float(pl_cap_db), pl_db)[()], capped


def received_power(e, g_r, freq):
    """Power (W) a receiver of gain ``g_r`` takes from the field phasor ``e``."""
    return (C_LIGHT / freq) ** 2 * g_r * np.hypot(e.real, e.imag) ** 2 / (
        8.0 * np.pi * ETA_0)


def friis_path_loss_db(d, freq):
    """Free-space reference 20 log10(4 pi d / lambda)."""
    return 20.0 * np.log10(4.0 * np.pi * d / (C_LIGHT / freq))

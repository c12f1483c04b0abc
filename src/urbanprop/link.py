"""Chain extraction, terminal field composition and path-loss conversion.

From the visibility sets of a block of positions this module builds their
ordered diffraction chains (one stage per visible building, anchored at the
roof corner nearest the propagation line that identification recorded) in
array passes over the stacked stages, composes each position's LOS/NLOS
terminal field from the slope-diffraction branches, and converts field
strength to received power and path loss.

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

from .errors import NumericalDomainError
from .fields import ChainStage, diffraction_term, direct_field, recursive_chain
from .geometry import f_block, row_dot

C_LIGHT = 299792458.0
ETA_0 = 120.0 * np.pi
PL_CAP_DB = 300.0


@dataclass(frozen=True)
class MaterialConfig:
    eps_r: float = 6.0
    polarization: str = "V"          # "H" or "V"

    def __post_init__(self):
        if self.polarization not in ("H", "V"):
            raise NumericalDomainError("polarization must be 'H' or 'V'")
        if not 1.0 < self.eps_r < np.inf:
            raise NumericalDomainError("eps_r must be finite and exceed 1")


@dataclass(eq=False)
class TerminalGeometry:
    """Final-edge geometry feeding the two terminal branches."""

    edge: np.ndarray      # last diffraction corner (at line height)
    length_direct: float  # final edge -> RX, m  (L)
    length_reflected: float  # final edge -> wall -> RX path length, m  (r)
    psi: float            # departure angle toward RX, rad
    theta: float          # departure angle toward the RX wall-image, rad
    beta: float           # arrival angle at the final edge, rad
    d_n: float            # straight TX -> final-edge distance, m
    wall_point: np.ndarray = None  # specular wall point; None: no reflection
    wall_incidence: float = 0.0    # incidence angle from the wall normal, rad


@dataclass(eq=False)
class LinkPrediction:
    """Both field models at one position: the full model's field and cap
    flag, and ``power`` (2, 3) of each component (W), full model first."""

    pl_db: float
    pl_simplified_db: float
    e_total: complex
    components: dict      # {"direct", "final_I", "final_II"} -> complex
    power: np.ndarray
    capped: bool = False


# -- chain geometry, a block of positions at a time -----------------------


def _angle(w, v):
    """Signed angles of the 2D rows v from the unit rows w, in (-pi, pi]."""
    return np.arctan2(w[:, 0] * v[:, 1] - w[:, 1] * v[:, 0],
                      w[:, 0] * v[:, 0] + w[:, 1] * v[:, 1])


def _first_per_group(group, key):
    """The first row of each group after a stable sort by ``key``."""
    order = np.lexsort((key, group))
    return order[np.diff(group[order], prepend=-1) != 0]


def _reflection_branch(gmap, opposite, e, x):
    """Image of each RX ``x[n]`` across the nearest wall of the buildings
    ``opposite[n]`` (a list of ids), seen from the final edge ``e[n]``.

    Returns ``(n, r, wall_point, image, incidence)``, arrays over the rows n
    with a valid specular construction.  Of equally near walls the first, in
    building-then-face order, wins.
    """
    w, size = gmap.wall_rows([bid for ids in opposite for bid in ids])
    group = np.repeat(np.repeat(np.arange(len(opposite)),
                                [len(ids) for ids in opposite]), size)
    nrm, p0, e, x = gmap.wall_normal[w], gmap.wall_point[w], e[group], x[group]
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
    i = i[_first_per_group(group[i], np.abs(d_rx[i]))]
    incidence = np.arccos(np.clip(
        np.abs(row_dot(inc_dir[i], nrm[i])) / inc_norm[i], -1.0, 1.0))
    return (group[i], np.sqrt(row_dot(seg[i], seg[i])), wall_point[i],
            image[i], incidence)


def chain_table(vis_list, tx, rxs, gmap):
    """The chains of a block of positions (``VisibilitySet``s ``vis_list``,
    receivers ``rxs`` (P, 3)): one ``(vis, stages, terminal)`` per
    position, ``stages`` as tuples of ``ChainStage`` fields.

    A position's stages are its visible buildings, each from its first
    sub-segment, sorted by sub-segment, line parameter and id.  The stages
    of all positions are stacked, so one ``f_block`` query tests the
    TX->edge rays of every stage but the first of each chain, and each
    quantity is one array pass.
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
    if not rows:
        return [(vis, [], None) for vis in vis_list]
    _s, t, _bid, row, side, subs = zip(*rows)
    row = np.array(row)
    a_z, b_z = (np.array([getattr(sub, k)[2] for sub in subs]) for k in "ab")
    edge = np.column_stack([gmap.roof_xy[row],
                            a_z + np.clip(t, 0.0, 1.0) * (b_z - a_z)])
    has = np.diff(start) > 0
    head, last = np.array(start[:-1])[has], np.array(start[1:])[has] - 1
    prev, nxt = np.roll(edge, 1, axis=0), np.roll(edge, -1, axis=0)
    prev[head], nxt[last] = tx, rxs[has]
    rest = np.ones(len(rows), dtype=bool)
    rest[head] = False
    blocked = np.zeros(len(rows), dtype=bool)
    blocked[rest] = f_block(np.broadcast_to(tx, (rest.sum(), 3)), edge[rest], gmap)

    # the screen frame: the first wall of equally parallel ones wins
    inc = edge[:, :2] - prev[:, :2]
    inc_n = np.hypot(inc[:, 0], inc[:, 1])
    w, size = gmap.ring_wall_rows(row)
    framed = (inc_n >= 1e-9) & (size > 0)
    group = np.repeat(np.arange(len(rows)), size)
    w, group = w[framed[group]], group[framed[group]]
    with np.errstate(all="ignore"):
        inc = inc / inc_n[:, None]
    walls = gmap.ring_dir[w]
    score = np.abs(walls[:, 0] * inc[group, 0] + walls[:, 1] * inc[group, 1])
    screen = np.tile([1.0, 0.0], (len(rows), 1))
    screen[framed] = walls[_first_per_group(group, -score)]
    a_back = _angle(screen[framed], -inc[framed])   # back toward the source
    orient, alpha_s = np.ones(len(rows)), np.full(len(rows), np.pi / 2.0)
    orient[framed] = np.where(a_back >= 0.0, 1.0, -1.0)
    alpha_s[framed] = orient[framed] * a_back

    def depart(k, v):   # angles of the 2D rows v from the screens of stages k
        return (orient[k] * _angle(screen[k], v)) % (2.0 * np.pi)

    out, to_tx = nxt - edge, edge - tx
    dist_next, d_tx = np.sqrt(row_dot(out, out)), np.sqrt(row_dot(to_tx, to_tx))
    phi = depart(slice(None), out[:, :2])
    stages = list(zip(d_tx.tolist(), np.maximum(dist_next, 1e-9).tolist(),
                      np.clip(np.pi - alpha_s, 0.0, np.pi).tolist(),
                      np.where(framed, phi, np.pi).tolist(), blocked.tolist()))

    # the terminal, in the screen frame of the last stage, whose corner it is
    hit, r, wall_point, image, incidence = _reflection_branch(
        gmap, [(subs[k].right, subs[k].left)[side[k]] for k in last.tolist()],
        edge[last], rxs[has])
    theta = phi[last]
    theta[hit] = depart(last[hit], image[:, :2] - edge[last[hit], :2])
    refl = dict(zip(hit.tolist(), zip(r.tolist(), wall_point, incidence.tolist())))
    terminal = [None] * len(vis_list)
    for q, (p, k) in enumerate(zip(np.flatnonzero(has).tolist(), last.tolist())):
        ell = float(dist_next[k])
        r_q, wall_q, incidence_q = refl.get(q, (ell, None, 0.0))
        terminal[p] = TerminalGeometry(
            edge[k], ell, max(r_q, ell), float(phi[k]), float(theta[q]),
            float(alpha_s[k]), float(d_tx[k]), wall_q, incidence_q)
    return [(vis, stages[lo:hi], term) for vis, lo, hi, term
            in zip(vis_list, start, start[1:], terminal)]


def extract_chain(table, i):
    """Position i's ``(stages, terminal)`` cut from a ``chain_table``; an
    empty list and None when no building is visible (free-space link)."""
    _vis, stages, term = table[i]
    return [ChainStage(*row) for row in stages], term


# -- terminal coefficients -------------------------------------------------


def reflection_coefficient(theta, material):
    """Fresnel wall reflection coefficient for H or V polarization.

    ``theta`` is the incidence angle from the wall normal, in [0, pi/2).
    """
    if not 0.0 <= theta < np.pi / 2.0:
        raise NumericalDomainError("theta must be in [0, pi/2)")
    eps = material.eps_r
    s2 = np.sin(theta) ** 2
    if eps < s2:
        raise NumericalDomainError("eps_r below sin^2(theta)")
    a = 1.0 if material.polarization == "H" else 1.0 / eps
    root = a * np.sqrt(eps - s2)
    return float((np.cos(theta) - root) / (np.cos(theta) + root))


def slope_coefficient(kind, term, k):
    """Terminal slope-diffraction coefficient for branch I (direct departure)
    or II (wall-reflected departure), from the chain's UTD edge term."""
    if kind == "I":
        depart, length = term.psi, term.length_direct
    elif kind == "II":
        depart, length = term.theta, term.length_reflected
    else:
        raise NumericalDomainError("kind must be 'I' or 'II'")
    d_n = term.d_n
    l_red = length * d_n / (d_n + length)   # reduced distance parameter
    s = np.sin((depart - term.beta) / 2.0)
    c = np.cos((depart + term.beta) / 2.0)
    pref = -np.exp(-1j * np.pi / 4.0) / (2.0 * np.sqrt(2.0 * np.pi * k))
    k_l = k * l_red
    return pref * (diffraction_term(c, k_l) - diffraction_term(s, k_l))


# -- composition and path loss ---------------------------------------------


def total_field(vis, stages, term, material, p_t, tx, rx, freq,
                g_r=1.0, pl_cap_db=PL_CAP_DB):
    """Both models' terminal field as a LinkPrediction: the same terminal
    branches, fed with the recursive chain field at the final edge (full
    model) or with free space from the TX to it (simplified model)."""
    k = 2.0 * np.pi * freq / C_LIGHT
    los = vis.classification.los
    direct = direct_field(p_t, float(np.linalg.norm(rx - tx)), k) if los else 0j
    comps = [(direct, 0j, 0j)] * 2       # full, simplified
    if stages:
        e_full = recursive_chain(p_t, stages, k)
        ell, r = term.length_direct, term.length_reflected
        s_i = slope_coefficient("I", term, k)
        a_i = np.sqrt(term.d_n / (ell * (term.d_n + ell)))
        ph_i = np.exp(-1j * k * ell)
        reflected = not los and term.wall_point is not None
        if reflected:
            a_ii = np.sqrt(term.d_n / (r * (term.d_n + r)))
            refl = reflection_coefficient(term.wall_incidence, material)
            s_ii = slope_coefficient("II", term, k)
            ph_ii = np.exp(-1j * k * r)
        comps = [(direct, e_n * s_i * a_i * ph_i,
                  refl * e_n * s_ii * a_ii * ph_ii if reflected else 0j)
                 for e_n in (e_full, direct_field(p_t, term.d_n, k))]

    e_total, e_simplified = (c[0] + c[1] + c[2] for c in comps)
    (_p, pl_db, capped), (_p, pl_simplified_db, _capped) = (
        path_loss(e, p_t, g_r, freq, pl_cap_db=pl_cap_db)
        for e in (e_total, e_simplified))
    # scalar received_power: numpy's array abs and ** 2 round differently
    power = np.array([[received_power(e, g_r, freq) for e in c] for c in comps])
    return LinkPrediction(pl_db, pl_simplified_db, e_total,
                          dict(zip(("direct", "final_I", "final_II"), comps[0])),
                          power, capped)


def path_loss(e, p_t, g_r, freq, pl_cap_db=PL_CAP_DB):
    """(received power W, path loss dB, capped flag) from a field phasor."""
    if p_t <= 0.0 or g_r <= 0.0 or freq <= 0.0:
        raise NumericalDomainError("P_t, G_r and freq must be positive")
    p_r = received_power(e, g_r, freq)
    cap = float(pl_cap_db)      # an integer cap must not make an int column
    if p_r <= 0.0:
        return 0.0, cap, True
    pl_db = -10.0 * np.log10(p_r / p_t)
    if pl_db > cap:
        return p_r, cap, True
    return p_r, float(pl_db), False


def received_power(e, g_r, freq):
    """Power (W) a receiver of gain ``g_r`` takes from the field phasor ``e``."""
    lam = C_LIGHT / freq
    return lam ** 2 * g_r * abs(e) ** 2 / (8.0 * np.pi * ETA_0)


def friis_path_loss_db(d, freq):
    """Free-space reference 20 log10(4 pi d / lambda)."""
    lam = C_LIGHT / freq
    return float(20.0 * np.log10(4.0 * np.pi * d / lam))

"""Chain extraction, terminal field composition and path-loss conversion.

From a per-position visibility set this module builds the ordered
diffraction chain (one stage per visible building, anchored at the roof
corner nearest the propagation line that identification recorded),
composes the LOS/NLOS terminal field from the slope-diffraction branches,
and converts field strength to received power and path loss.

Wedge angles are measured in the horizontal plane at each corner: the
screen is the footprint wall most nearly parallel to the incident ray, and
the orientation is chosen so the source lies at a positive angle from the
screen.  Distances are full 3D lengths with edge points taken at the height
of the propagation line.  Points are ``(3,)`` float64 arrays.
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


# -- stage geometry helpers ------------------------------------------------


def _angle_from(w, v):
    """Signed angle of 2D vector v measured from unit direction w, in (-pi, pi]."""
    cross = w[0] * v[1] - w[1] * v[0]
    dot = w[0] * v[0] + w[1] * v[1]
    return np.arctan2(cross, dot)


def _screen_frame(gmap, row, edge_xy, prev_xy):
    """Screen wall and orientation at the corner in roof-table row ``row``
    for the incident ray prev->edge.

    Returns ``(screen, orient, alpha_s)``: the roof-ring wall direction most
    nearly parallel to the ray, the sign that puts the source at a positive
    angle from it, and that source angle in [0, pi].  None when the ray has
    no horizontal length or the corner no adjacent ring wall.
    """
    inc = edge_xy - prev_xy
    inc_n = np.hypot(inc[0], inc[1])
    if inc_n < 1e-9:
        return None
    walls = gmap.ring_walls(row)
    if not len(walls):
        return None
    inc = inc / inc_n
    # the first wall of equally parallel ones wins
    screen = walls[np.argmax(np.abs(walls[:, 0] * inc[0] + walls[:, 1] * inc[1]))]
    a_back = _angle_from(screen, -inc)       # direction back toward the source
    orient = 1.0 if a_back >= 0.0 else -1.0
    return screen, orient, orient * a_back


def _departure(frame, v):
    """Angle of the 2D direction v from the frame's screen, in [0, 2 pi)."""
    screen, orient, _alpha_s = frame
    return float((orient * _angle_from(screen, v)) % (2.0 * np.pi))


def _wedge_angles(frame, edge_xy, next_xy):
    """(alpha, phi) at one corner from its screen frame, outgoing edge->next."""
    if frame is None:
        return np.pi / 2.0, np.pi  # degenerate: treat as straight transmission
    alpha = np.pi - frame[2]
    return float(np.clip(alpha, 0.0, np.pi)), _departure(frame, next_xy - edge_xy)


def _edge_point(gmap, row, t, a, b):
    """Roof corner in roof-table row ``row`` at the height of the line a->b
    at parameter ``t``, clamped to the sub-segment."""
    tz = min(max(t, 0.0), 1.0)
    x, y = gmap.roof_xy[row]
    return np.array([x, y, a[2] + tz * (b[2] - a[2])])


def _reflection_branch(gmap, vis_opposite, e, x):
    """Image of the RX ``x`` across the nearest visible opposite-side wall,
    seen from the final edge ``e``.

    Returns (r, wall_point, image, incidence) or None when no wall yields a
    valid specular construction.  Of equally near walls the first, in
    building-then-face order, wins.
    """
    if not vis_opposite:
        return None
    nrm, p0 = (np.concatenate(a) for a in zip(
        *[gmap.vertical_faces(bid) for bid in vis_opposite]))
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
    valid = ((d_rx * row_dot(e - p0, nrm) > 0.0) & (np.abs(denom) >= 1e-12)
             & (0.0 < t) & (t < 1.0) & (inc_norm >= 1e-9))
    if not valid.any():
        return None
    i = np.flatnonzero(valid)[np.argmin(np.abs(d_rx[valid]))]
    incidence = float(np.arccos(
        np.clip(abs(inc_dir[i] @ nrm[i]) / inc_norm[i], -1.0, 1.0)))
    return float(np.linalg.norm(seg[i])), wall_point[i], image[i], incidence


def extract_chain(vis, tx, rx, gmap):
    """Ordered chain stages plus terminal geometry for one receiver position.

    Returns ``(stages, terminal)``; both are empty/None when no building is
    visible (free-space link).
    """
    first = {}      # building id -> its entry in its first sub-segment
    for seg_idx, vseg in enumerate(vis.visible):
        for side in ("left", "right"):
            for bid in getattr(vseg, side):
                _dist, row, t = vseg.corner[bid]
                first.setdefault(bid, (seg_idx, t, bid, row, side))
    if not first:
        return [], None
    ordered = sorted(first.values())     # by sub-segment, line parameter, id
    edges = [_edge_point(gmap, row, t, vis.visible[seg].a, vis.visible[seg].b)
             for seg, t, _bid, row, _side in ordered]

    points = [tx, *edges, rx]
    # whether the TX->edge ray of each stage after the first is blocked
    blocked = [0, *f_block(np.broadcast_to(tx, (len(edges) - 1, 3)),
                           np.array(edges[1:]), gmap)]
    stages = []
    for i, (_seg, _t, _bid, row, _side) in enumerate(ordered):
        here_xy = points[i + 1][:2]
        frame = _screen_frame(gmap, row, here_xy, points[i][:2])
        alpha, phi = _wedge_angles(frame, here_xy, points[i + 2][:2])
        d_tx = float(np.linalg.norm(points[i + 1] - tx))
        dist_next = float(np.linalg.norm(points[i + 2] - points[i + 1]))
        stages.append(ChainStage(d_tx, max(dist_next, 1e-9), alpha, phi,
                                 direct_blocked=bool(blocked[i])))

    last_seg, _t, _bid, _row, last_side = ordered[-1]
    last_edge = edges[-1]
    length_direct = float(np.linalg.norm(rx - last_edge))
    d_n = stages[-1].d_tx

    # angles at the final edge, in the screen frame of the last stage (whose
    # corner it is; ``frame`` and ``here_xy`` are left from that iteration)
    if frame is None:
        frame = (np.array([1.0, 0.0]), 1.0, np.pi / 2.0)
    beta = float(frame[2])
    psi = _departure(frame, rx[:2] - here_xy)

    opposite = "left" if last_side == "right" else "right"
    refl = _reflection_branch(gmap, getattr(vis.visible[last_seg], opposite),
                              last_edge, rx)
    r, wall_point, theta, incidence = length_direct, None, psi, 0.0
    if refl is not None:
        r, wall_point, image, incidence = refl
        theta = _departure(frame, image[:2] - here_xy)
    term = TerminalGeometry(last_edge, length_direct, max(r, length_direct),
                            psi, theta, beta, d_n, wall_point, incidence)
    return stages, term


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

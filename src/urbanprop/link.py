"""Chain extraction, terminal field composition and path-loss conversion.

From a per-position visibility set this module builds the ordered
diffraction chain (one stage per visible building, anchored at its roof
corner nearest the propagation line), composes the LOS/NLOS terminal field
from the slope-diffraction branches, and converts field strength to
received power and path loss.

Wedge angles are measured in the horizontal plane at each corner: the
screen is the footprint wall most nearly parallel to the incident ray, and
the orientation is chosen so the source lies at a positive angle from the
screen.  Distances are full 3D lengths with edge points taken at the height
of the propagation line.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .fields import ChainStage, direct_field, recursive_chain, transition_function
from .geometry import Point3, f_block, line_2d

C_LIGHT = 299792458.0
ETA_0 = 120.0 * np.pi
PL_CAP_DB = 300.0


@dataclass(frozen=True)
class MaterialConfig:
    eps_r: float = 6.0
    polarization: str = "V"          # "H" or "V"
    perfect_conductor: bool = False

    def __post_init__(self):
        if self.polarization not in ("H", "V"):
            raise NumericalDomainError("polarization must be 'H' or 'V'")
        if not (self.perfect_conductor or 1.0 < self.eps_r < np.inf):
            raise NumericalDomainError("eps_r must be finite and exceed 1")


@dataclass
class TerminalGeometry:
    """Final-edge geometry feeding the two terminal branches."""

    edge: Point3          # last diffraction corner (at line height)
    length_direct: float  # final edge -> RX, m  (L)
    length_reflected: float  # final edge -> wall -> RX path length, m  (r)
    psi: float            # departure angle toward RX, rad
    theta: float          # departure angle toward the RX wall-image, rad
    beta: float           # arrival angle at the final edge, rad
    d_n: float            # straight TX -> final-edge distance, m
    has_reflection: bool = True
    wall_point: Point3 = None      # specular point on the reflecting wall
    wall_incidence: float = 0.0    # incidence angle from the wall normal, rad


@dataclass
class LinkPrediction:
    pl_db: float
    p_r: float
    e_total: complex
    components: dict      # {"direct", "final_I", "final_II"} -> complex
    los: bool
    n_stages: int = 0
    capped: bool = False


# -- stage geometry helpers ------------------------------------------------


def _ring_neighbors(gmap, bid, vid):
    """Horizontal directions of roof-ring walls adjacent to a corner vertex."""
    top = set(int(v) for v in gmap.top_vertices(bid))
    here = gmap.vertices[vid][:2]
    dirs = []
    b = gmap.building(bid)
    for fi in b.face_indices:
        ids = gmap.faces[fi].vertex_ids
        n = len(ids)
        for k, v in enumerate(ids):
            if v != vid:
                continue
            for nb in (ids[(k - 1) % n], ids[(k + 1) % n]):
                if nb not in top:
                    continue
                d = gmap.vertices[nb][:2] - here
                norm = np.hypot(d[0], d[1])
                if norm > 1e-9:
                    dirs.append(d / norm)
    return dirs


def _angle_from(w, v):
    """Signed angle of 2D vector v measured from unit direction w, in (-pi, pi]."""
    cross = w[0] * v[1] - w[1] * v[0]
    dot = w[0] * v[0] + w[1] * v[1]
    return np.arctan2(cross, dot)


def _screen_frame(gmap, bid, vid, edge_xy, prev_xy):
    """Screen wall and orientation at a corner for the incident ray prev->edge.

    Returns ``(screen, orient, alpha_s)``: the roof-ring wall direction most
    nearly parallel to the ray, the sign that puts the source at a positive
    angle from it, and that source angle in [0, pi].  None when the ray has
    no horizontal length or the corner no adjacent ring wall.
    """
    inc = edge_xy - prev_xy
    inc_n = np.hypot(inc[0], inc[1])
    if inc_n < 1e-9:
        return None
    walls = _ring_neighbors(gmap, bid, vid)
    if not walls:
        return None
    inc = inc / inc_n
    screen = max(walls, key=lambda w: abs(w[0] * inc[0] + w[1] * inc[1]))
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


def _corner_for_line(gmap, bid, a, b):
    """Roof corner of the building nearest the sub-segment line (ties by
    index): ``(vertex id, unclamped line parameter, edge point)``, the edge
    point being the corner at the height of the line, clamped to a->b."""
    ring = gmap.top_vertices(bid)
    c = gmap.vertices[ring]
    t, _cross, dist = line_2d(c, a, b)
    k = np.argmin(dist)       # rings ascend, so a tie goes to the lower index
    tz = min(max(t[k], 0.0), 1.0)
    edge = Point3(float(c[k, 0]), float(c[k, 1]), float(a.z + tz * (b.z - a.z)))
    return int(ring[k]), t[k], edge


def _vertical_faces(gmap, bid):
    """(unit normal, first vertex) of each vertical face of the building."""
    out = []
    for fi in gmap.building(bid).face_indices:
        nrm = gmap.face_normal[fi]
        if abs(nrm[2]) < 0.1:    # False for the NaN normal of a degenerate face
            out.append((nrm, gmap.vertices[gmap.faces[fi].vertex_ids[0]]))
    return out


def _reflection_branch(gmap, vis_opposite, edge, rx):
    """RX image across the nearest visible opposite-side wall.

    Returns (r, wall_point, image, incidence) or None when no wall yields a
    valid specular construction.
    """
    e = edge.as_array()
    x = rx.as_array()
    best = None
    for bid in vis_opposite:
        for nrm, p0 in _vertical_faces(gmap, bid):
            d_rx = (x - p0) @ nrm
            d_e = (e - p0) @ nrm
            if d_rx * d_e <= 0.0:
                continue  # edge and RX must face the same wall side
            image = x - 2.0 * d_rx * nrm
            seg = image - e
            denom = seg @ nrm
            if abs(denom) < 1e-12:
                continue
            t = ((p0 - e) @ nrm) / denom
            if not 0.0 < t < 1.0:
                continue
            wall_point = e + t * seg
            r = float(np.linalg.norm(image - e))
            inc_dir = wall_point - e
            inc_norm = np.linalg.norm(inc_dir)
            if inc_norm < 1e-9 or r <= 0.0:
                continue
            incidence = float(np.arccos(
                np.clip(abs(inc_dir @ nrm) / inc_norm, -1.0, 1.0)))
            key = abs(d_rx)
            if best is None or key < best[0]:
                best = (key, r, wall_point, image, incidence)
    if best is None:
        return None
    return best[1], Point3.from_array(best[2]), best[3], best[4]


def extract_chain(vis, tx, rx, gmap):
    """Ordered chain stages plus terminal geometry for one receiver position.

    Returns ``(stages, terminal)``; both are empty/None when no building is
    visible (free-space link).
    """
    entries = []
    for seg_idx, vseg in enumerate(vis.visible):
        side_of = {}
        for side in ("left", "right"):
            for bid in getattr(vseg, side):
                side_of[bid] = side
        for bid, side in side_of.items():
            vid, t, edge = _corner_for_line(gmap, bid, vseg.a, vseg.b)
            entries.append((seg_idx, t, bid, vid, edge, side))
    if not entries:
        return [], None
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    # deduplicate buildings appearing in several sub-segments, first wins
    seen, ordered = set(), []
    for e in entries:
        if e[2] not in seen:
            seen.add(e[2])
            ordered.append(e)

    txa, rxa = tx.as_array(), rx.as_array()
    points = [txa] + [e[4].as_array() for e in ordered] + [rxa]
    stages = []
    for i, (_seg, _t, bid, vid, edge, _side) in enumerate(ordered):
        here_xy = points[i + 1][:2]
        frame = _screen_frame(gmap, bid, vid, here_xy, points[i][:2])
        alpha, phi = _wedge_angles(frame, here_xy, points[i + 2][:2])
        d_tx = float(np.linalg.norm(points[i + 1] - txa))
        dist_next = float(np.linalg.norm(points[i + 2] - points[i + 1]))
        blocked = bool(f_block(tx, edge, gmap)) if i > 0 else False
        stages.append(ChainStage(d_tx, max(dist_next, 1e-9), alpha, phi,
                                 direct_blocked=blocked))

    last_seg, _t, _bid, _vid, last_edge, last_side = ordered[-1]
    vseg = vis.visible[last_seg]
    length_direct = float(np.linalg.norm(rxa - last_edge.as_array()))
    d_n = stages[-1].d_tx

    # angles at the final edge, in the screen frame of the last stage (whose
    # corner it is; ``frame`` and ``here_xy`` are left from that iteration)
    if frame is None:
        frame = (np.array([1.0, 0.0]), 1.0, np.pi / 2.0)
    beta = float(frame[2])
    psi = _departure(frame, rxa[:2] - here_xy)

    opposite = "left" if last_side == "right" else "right"
    vis_opposite = getattr(vseg, opposite)
    refl = _reflection_branch(gmap, vis_opposite, last_edge, rx) \
        if vis_opposite else None
    if refl is None:
        term = TerminalGeometry(last_edge, length_direct, length_direct, psi,
                                psi, beta, d_n, has_reflection=False)
    else:
        r, wall_point, image, incidence = refl
        theta = _departure(frame, image[:2] - here_xy)
        term = TerminalGeometry(last_edge, length_direct, max(r, length_direct),
                                psi, theta, beta, d_n, has_reflection=True,
                                wall_point=wall_point, wall_incidence=incidence)
    return stages, term


# -- terminal coefficients -------------------------------------------------


def reflection_coefficient(theta, material):
    """Fresnel wall reflection coefficient for H or V polarization.

    ``theta`` is the incidence angle from the wall normal, in [0, pi/2).
    """
    if not 0.0 <= theta < np.pi / 2.0:
        raise NumericalDomainError("theta must be in [0, pi/2)")
    if material.perfect_conductor:
        return -1.0 if material.polarization == "H" else 1.0
    eps = material.eps_r
    s2 = np.sin(theta) ** 2
    if eps < s2:
        raise NumericalDomainError("eps_r below sin^2(theta)")
    a = 1.0 if material.polarization == "H" else 1.0 / eps
    root = a * np.sqrt(eps - s2)
    return float((np.cos(theta) - root) / (np.cos(theta) + root))


def _slope_term(trig_val, k, length):
    """F(X)/(-trig) with X = 2 k length trig^2, finite through trig -> 0."""
    x = 2.0 * k * length * trig_val * trig_val
    if x < 1e-24:
        sign = 1.0 if trig_val >= 0.0 else -1.0
        return -sign * np.sqrt(2.0 * np.pi * k * length) * np.exp(1j * np.pi / 4.0)
    return transition_function(x) / (-trig_val)


def slope_coefficient(kind, term, k):
    """Terminal slope-diffraction coefficient for branch I (direct departure)
    or II (wall-reflected departure)."""
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
    return pref * (_slope_term(s, k, l_red) - _slope_term(c, k, l_red))


# -- composition and path loss ---------------------------------------------


def total_field(vis, stages, term, material, p_t, tx, rx, k,
                g_r=1.0, simplified=False, pl_cap_db=PL_CAP_DB):
    """Compose the terminal field and convert it to a LinkPrediction.

    ``simplified=True`` replaces the recursive chain field with plain free
    space from TX to the final edge (no intermediate region fields).
    """
    d3d = float(np.linalg.norm(rx.as_array() - tx.as_array()))
    los = vis.classification.los
    freq = k * C_LIGHT / (2.0 * np.pi)

    comp = {"direct": 0j, "final_I": 0j, "final_II": 0j}
    if los:
        comp["direct"] = direct_field(p_t, d3d, k)

    n_stages = len(stages)
    if n_stages:
        if simplified:
            e_n = direct_field(p_t, term.d_n, k)
        else:
            e_n, _trace = recursive_chain(p_t, stages, k)
        ell, r = term.length_direct, term.length_reflected
        a_i = np.sqrt(term.d_n / (ell * (term.d_n + ell)))
        comp["final_I"] = (e_n * slope_coefficient("I", term, k) * a_i
                           * np.exp(-1j * k * ell))
        if not los and term.has_reflection:
            a_ii = np.sqrt(term.d_n / (r * (term.d_n + r)))
            refl = reflection_coefficient(term.wall_incidence, material)
            comp["final_II"] = (refl * e_n * slope_coefficient("II", term, k)
                                * a_ii * np.exp(-1j * k * r))

    e_total = comp["direct"] + comp["final_I"] + comp["final_II"]
    p_r, pl_db, capped = path_loss(e_total, p_t, g_r, freq, pl_cap_db=pl_cap_db)
    return LinkPrediction(pl_db, p_r, e_total, comp, los, n_stages, capped)


def path_loss(e, p_t, g_r, freq, pl_cap_db=PL_CAP_DB):
    """(received power W, path loss dB, capped flag) from a field phasor."""
    if p_t <= 0.0 or g_r <= 0.0 or freq <= 0.0:
        raise NumericalDomainError("P_t, G_r and freq must be positive")
    lam = C_LIGHT / freq
    p_r = lam ** 2 * g_r * abs(e) ** 2 / (8.0 * np.pi * ETA_0)
    if p_r <= 0.0:
        return 0.0, pl_cap_db, True
    pl_db = -10.0 * np.log10(p_r / p_t)
    if pl_db > pl_cap_db:
        return p_r, pl_cap_db, True
    return p_r, float(pl_db), False


def friis_path_loss_db(d, freq):
    """Free-space reference 20 log10(4 pi d / lambda)."""
    lam = C_LIGHT / freq
    return float(20.0 * np.log10(4.0 * np.pi * d / lam))

"""Significant-building identification along a receiver route.

Two passes: candidate selection by side of the propagation line (with NLOS
links split at the breakpoint into TX-bp and bp-RX sub-segments, the latter
contributing left-side buildings only) and the blocked-by matrices of the
visibility filter, both once over a batch of route positions, then, per
position, near-to-far visibility filtering where a building is kept only if
none of its roof-ring vertex-to-projection segments is blocked by an
already accepted building.

Points (TX, RX, breakpoint, sub-segment ends) are ``(3,)`` float64 arrays.
All functions are pure over the immutable map; route positions are
independent of each other.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateGeometryError, NumericalDomainError
from .geometry import EPS_LEN, line_2d, ranges, row_dot, side_2d

EPS_TIE = 1e-9     # perpendicular-distance tie threshold, m
CULL_MARGIN = 1.0  # candidate cull margin beyond the corridor, m


@dataclass(frozen=True, eq=False)
class LinkClassification:
    los: bool
    breakpoint: np.ndarray = None
    blocking_building: int = None

    def __post_init__(self):
        if self.los and self.breakpoint is not None:
            raise ValueError("LOS link cannot carry a breakpoint")
        if not self.los and (self.breakpoint is None or self.blocking_building is None):
            raise ValueError("NLOS link requires breakpoint and blocking building")


@dataclass(eq=False)
class SubSegment:
    """One propagation sub-segment a->b and the buildings flanking it.

    ``corner`` maps each candidate building id to its roof corner nearest
    the sub-segment line: ``(distance, roof-table row, unclamped line
    parameter)``, the row indexing the map's ``roof_vertex``/``roof_xy``.
    ``near`` lists the candidates left then right, each by distance, then
    id; ``blocked`` (K, K) is True at [i, j < i] when a face of ``near[j]``
    blocks a roof-ring vertex-to-projection segment of ``near[i]``.
    """

    a: np.ndarray
    b: np.ndarray
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    corner: dict = field(default_factory=dict)
    near: list = field(default_factory=list)
    blocked: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), bool))


@dataclass
class VisibilitySet:
    """Per-receiver-position identification result."""

    classification: LinkClassification
    sides: list       # list[SubSegment], the candidates
    visible: list     # list[SubSegment], parallel to ``sides`` (same near, blocked)

    def flat_sides(self):
        return _flatten(self.sides)

    def flat_visible(self):
        return _flatten(self.visible)


def _flatten(segs):
    """Left and right building ids over all sub-segments, first occurrence kept."""
    left, right = [], []
    for seg in segs:
        left += [b for b in seg.left if b not in left]
        right += [b for b in seg.right if b not in right]
    return {"left": left, "right": right}


# -- LOS / breakpoint ------------------------------------------------------


def classify_link(tx, rx, gmap):
    """LOS/NLOS classification of the TX-RX segments against every face.

    ``rx`` is a (P, 3) route, for a list of P ``LinkClassification``, or one
    (3,) point, for one.  One occlusion query over the whole map classifies
    every link: its nearest hit triangle (of equally near ones, the lowest
    id) names the blocking building and anchors the breakpoint.
    """
    route = np.asarray(rx, dtype=np.float64).reshape(-1, 3)
    _t, tris = gmap.first_hit(np.broadcast_to(tx, route.shape), route)
    out = [LinkClassification(True) if tri < 0 else LinkClassification(
        False, breakpoint=compute_breakpoint(tx, r, tri, gmap),
        blocking_building=int(gmap.ids[gmap.tri_building[tri]]))
        for r, tri in zip(route, tris.tolist())]
    return out if np.ndim(rx) == 2 else out[0]


def compute_breakpoint(tx, rx, tri, gmap):
    """Diffraction corner of the building owning triangle ``tri``, the first
    face the TX-RX segment hits.

    Among the building's roof-ring corners on the RX side of that face (the
    closed half-space), takes those within ``EPS_TIE`` of the smallest
    horizontal distance to the TX-RX line and picks the left-side one, then
    the lower vertex index.  Each corner is measured against the nearest,
    so of a chain of near-ties spanning more than ``EPS_TIE`` the far end is
    out.  The corner is returned at the height of the TX-RX line at that
    horizontal location.  A TX-RX line with no horizontal length has no
    breakpoint.
    """
    blocking_id = int(gmap.ids[gmap.tri_building[tri]])
    v0, v1, v2 = gmap.triangle(tri)
    # np.cross written out by component: the same bits, without its
    # per-call axis handling, which cost more than the rest of this function
    (ax, ay, az), (bx, by, bz) = (v1 - v0).tolist(), (v2 - v0).tolist()
    nrm = np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
    offset = nrm @ v0
    rx_sign = np.sign(rx @ nrm - offset)

    ring = gmap.top_vertices(blocking_id)
    corners = gmap.vertices[ring]
    ok = (rx_sign == 0) | (np.sign(row_dot(corners, nrm) - offset) != -rx_sign)
    if not ok.any():
        raise DegenerateGeometryError(
            f"building {blocking_id} has no roof corner on the RX side of the hit face")
    tline, cross, dist = line_2d(corners, tx, rx)
    if not np.isfinite(tline).all():
        raise DegenerateGeometryError(
            "the TX-RX line has no horizontal length; no breakpoint")
    near = np.flatnonzero(ok & (dist <= dist[ok].min() + EPS_TIE))
    k = near[np.lexsort((ring[near], -side_2d(cross[near])))[0]]
    z = tx[2] + tline[k] * (rx[2] - tx[2])
    return np.array([corners[k, 0], corners[k, 1], z])


# -- Candidate selection (initial identification) --------------------------


def initial_identification(tx, route, gmap, corridor_width=100.0):
    """Algorithm-1 pass over route points: LOS/NLOS split and side candidates.

    ``route`` is a sequence of RX points, such as a ``Route``'s ``xyz``.  One
    LOS query classifies every point; one pass over the map's roof-vertex
    table then finds the buildings beside every sub-segment.  A vertex
    counts when it projects inside the sub-segment and lies within
    ``corridor_width`` of its line; each building goes to the side most of
    its counted vertices lie on (ties left), and the bp-RX sub-segment keeps
    the left side only.  The same pass records each candidate's roof corner
    nearest the line, and one occlusion query fills every sub-segment's
    blocked-by matrix.  Returns a list of ``(LinkClassification,
    [SubSegment, ...])``.
    """
    route = np.asarray(route, dtype=np.float64).reshape(-1, 3)
    if len(route) == 0:
        raise ValueError("route must contain at least one point")
    if corridor_width <= 0.0:
        raise ValueError("corridor_width must be positive")
    classes = classify_link(tx, route, gmap)
    ends = [[(tx, r)] if cls.los else [(tx, cls.breakpoint), (cls.breakpoint, r)]
            for cls, r in zip(classes, route)]
    pairs = [ab for segs in ends for ab in segs]
    left_only = np.array([k == 1 for segs in ends for k in range(len(segs))])
    a, b = (np.array([ab[k] for ab in pairs]) for k in (0, 1))
    # Only a building with a roof vertex in the sub-segments' joint xy
    # bounding box, widened by the corridor, can flank one.  The margin
    # keeps every vertex whose rounded t and dist could pass at the
    # corridor's edge; all rows of those buildings are kept, since a
    # candidate's nearest corner may lie outside the box.
    reach = corridor_width + CULL_MARGIN
    xy = np.concatenate([a, b])[:, :2]
    near = ((gmap.roof_xy >= xy.min(axis=0) - reach)
            & (gmap.roof_xy <= xy.max(axis=0) + reach)).all(axis=1)
    rows = np.flatnonzero(np.isin(gmap.roof_owner, gmap.roof_owner[near]))
    owner = gmap.roof_owner[rows]
    # (SS, R): every sub-segment's line against every kept row
    t, cross, dist = line_2d(gmap.roof_xy[rows], a.T[:, :, None], b.T[:, :, None])
    kept = (t >= 0.0) & (t <= 1.0) & (dist <= corridor_width)
    ss, col = np.nonzero(kept)
    shape = (len(pairs), len(gmap.ids))
    key = ss * shape[1] + owner[col]
    flanking = np.bincount(key, minlength=np.prod(shape)).reshape(shape) > 0
    votes = np.bincount(key, side_2d(cross[kept]),
                        minlength=np.prod(shape)).reshape(shape)
    left = flanking & (votes >= 0)
    right = flanking & (votes < 0) & ~left_only[:, None]
    # first row of each (sub-segment, candidate) after a stable sort by
    # distance: rings ascend, so a tie goes to the lower vertex id
    ss, col = np.nonzero((left | right)[:, owner])
    order = np.lexsort((dist[ss, col], owner[col], ss))
    ss, col = ss[order], col[order]
    first = np.diff(ss * shape[1] + owner[col], prepend=-1) != 0
    ss, col = ss[first], col[first]
    corners = list(zip(gmap.ids[owner[col]].tolist(), zip(
        dist[ss, col].tolist(), rows[col].tolist(), t[ss, col].tolist())))
    # the visiting order: sub-segment, side (left first), distance, id
    edge = np.searchsorted(ss, np.arange(len(pairs) + 1))
    near = owner[col][np.lexsort((gmap.ids[owner[col]], dist[ss, col],
                                  right[ss, owner[col]], ss))]
    del t, cross, dist, kept, votes   # not held through the query
    blocked = _blocked_by_block(near, ss, edge, a, b, gmap)
    near, edge = gmap.ids[near].tolist(), edge.tolist()
    subs = iter([SubSegment(sa, sb, gmap.ids[left[i]].tolist(),
                            gmap.ids[right[i]].tolist(),
                            dict(corners[edge[i]:edge[i + 1]]),
                            near[edge[i]:edge[i + 1]], blocked[i])
                 for i, (sa, sb) in enumerate(pairs)])
    return [(cls, [next(subs) for _ in segs]) for cls, segs in zip(classes, ends)]


def _blocked_by_block(pos, ss, edge, a, b, gmap):
    """Each sub-segment a->b's blocked-by matrix, from one ``pair_hits``
    query of every candidate (``pos``, building positions in visiting order
    per sub-segment ``ss``, starting at ``edge``) against the earlier
    candidates of its sub-segment, the only entries the scan reads."""
    k = np.arange(len(ss)) - edge[ss]          # place in its sub-segment
    # each candidate's roof-table rows: the table ascends by building
    lo = np.searchsorted(gmap.roof_owner, pos)
    size = np.searchsorted(gmap.roof_owner, pos, side="right") - lo
    verts = gmap.vertices[gmap.roof_vertex[ranges(lo, size)]]
    line_a, line_d = (np.repeat(x[ss], size, axis=0) for x in (a, b - a))
    t = row_dot(verts - line_a, line_d) / row_dot(line_d, line_d)
    i = np.repeat(np.arange(len(ss)), k)
    j = np.arange(len(i)) - np.repeat(np.cumsum(k) - k, k) + edge[ss[i]]
    hits = gmap.pair_hits(verts, line_a + t[:, None] * line_d,
                          np.concatenate(([0], np.cumsum(size))), i, pos[j])
    n = np.diff(edge)
    base = np.cumsum(n * n) - n * n
    flat = np.zeros(int((n * n).sum()), dtype=bool)
    flat[(base[ss[i]] + k[i] * n[ss[i]] + k[j])[hits]] = True
    return [flat[o:o + m * m].reshape(m, m)
            for o, m in zip(base.tolist(), n.tolist())]


# -- Visibility filtering --------------------------------------------------


def visible_identification(segs, cls, gmap):
    """Algorithm-2 pass: near-to-far visibility filtering of the candidates.

    Within a sub-segment, buildings are visited in ``near`` order and kept
    only if no previously accepted building blocks one of their roof-ring
    vertex-to-projection segments, as read from the record's blocked-by
    matrix.  Sub-segments are filtered independently; ``gmap`` is unused.
    """
    visible = []
    for sub in segs:
        if np.linalg.norm(sub.b - sub.a) <= EPS_LEN:
            raise NumericalDomainError("degenerate segment: endpoints coincide")
        accepted = []
        for i, row in enumerate(sub.blocked.tolist()):
            if not any(row[j] for j in accepted):
                accepted.append(i)
        visible.append(replace(
            sub, left=[sub.near[i] for i in accepted if i < len(sub.left)],
            right=[sub.near[i] for i in accepted if i >= len(sub.left)]))
    return VisibilitySet(cls, list(segs), visible)


def identify_position(tx, r, gmap, corridor_width=100.0):
    """Convenience wrapper: both passes for one receiver position."""
    (cls, segs), = initial_identification(tx, [r], gmap, corridor_width)
    return visible_identification(segs, cls, gmap)

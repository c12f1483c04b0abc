"""Significant-building identification along a receiver route.

Two passes: candidate selection by side of the propagation line (with NLOS
links split at the breakpoint into TX-bp and bp-RX sub-segments, the latter
contributing left-side buildings only) and the blocked-by flags of the
visibility filter, both once over a batch of route positions, then, per
position, near-to-far visibility filtering where a building is kept only if
none of its roof-ring vertex-to-projection segments is blocked by an
already accepted building.  The flags stay as the occlusion query lays
them out, each candidate against those visited before it.

Points (TX, RX, breakpoint, sub-segment ends) are ``(3,)`` float64 arrays.
All functions are pure over the immutable map; route positions are
independent of each other.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateGeometryError, NumericalDomainError
from .geometry import (EPS_LEN, first_per_group, line_2d, offsets, row_dot,
                       side_2d, sliced)

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
    id; ``blocked`` holds K(K - 1)/2 flags, candidate after candidate: flag
    i(i - 1)/2 + j, j < i, is True when a face of ``near[j]`` blocks a
    roof-ring vertex-to-projection segment of ``near[i]``.
    """

    a: np.ndarray
    b: np.ndarray
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    corner: dict = field(default_factory=dict)
    near: list = field(default_factory=list)
    blocked: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))


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


def classify_link(tx, route, gmap):
    """LOS/NLOS classification of the TX-RX segments of a (P, 3) route
    against every face: a list of P ``LinkClassification``.

    One occlusion query over the whole map classifies every link: its
    nearest hit triangle (of equally near ones, the lowest id) names the
    blocking building.  One array pass over the NLOS links then places each
    breakpoint, a diffraction corner of that building: among its roof-ring
    corners on the RX side of the hit face (the closed half-space; RX is in
    its plane only by rounding on a near-grazing hit, as a link meets a
    plane through RX only at RX, outside the open segment), those within
    ``EPS_TIE`` of the least horizontal distance to the TX-RX line, the
    left-side one, then the lower vertex index.  Each corner is measured
    against the nearest, so of a chain of near-ties spanning more than
    ``EPS_TIE`` the far end is out.  The corner is placed at the height of
    the TX-RX line there.  A link with no such corner, or whose TX-RX line
    has no horizontal length, has no breakpoint: the first one raises.
    """
    route = np.asarray(route, dtype=np.float64)
    if route.ndim != 2 or route.shape[1] != 3:
        raise ValueError("route must be a (P, 3) array of points")
    _t, tris = gmap.first_hit(np.broadcast_to(tx, route.shape), route)
    tri, rx = tris[tris >= 0], route[tris >= 0]
    pos = gmap.tri_building[tri]
    v0, v1, v2 = gmap.triangle(tri)
    nrm = np.cross(v1 - v0, v2 - v0)
    offset = row_dot(nrm, v0)
    rx_sign = np.sign(row_dot(rx, nrm) - offset)
    # each NLOS link's rows: its blocking building's roof corners
    rows, size = gmap.roof_rows(pos)
    group, at = np.repeat(np.arange(len(tri)), size), offsets(size)[:-1]
    ring = gmap.roof_vertex[rows]
    corners = gmap.vertices.take(ring, axis=0)
    ok = ((rx_sign[group] == 0) | (np.sign(row_dot(corners, nrm[group])
                                           - offset[group]) != -rx_sign[group]))
    tline, cross, dist = line_2d(corners, tx, rx.take(group, axis=0).T)
    no_corner = ~np.logical_or.reduceat(ok, at)
    bad = np.flatnonzero(no_corner | ~np.logical_and.reduceat(np.isfinite(tline), at))
    if len(bad):
        raise DegenerateGeometryError(
            f"building {gmap.ids[pos[bad[0]]]} has no roof corner on the RX "
            "side of the hit face" if no_corner[bad[0]] else
            "the TX-RX line has no horizontal length; no breakpoint")
    least = np.minimum.reduceat(np.where(ok, dist, np.inf), at)
    near = np.flatnonzero(ok & (dist <= least[group] + EPS_TIE))
    k = near[first_per_group(group[near], ring[near], -side_2d(cross[near]))]
    z = tx[2] + tline[k] * (rx[:, 2] - tx[2])
    bps, bids = iter(np.column_stack((corners[k, :2], z))), iter(gmap.ids[pos].tolist())
    return [LinkClassification(True) if t < 0 else
            LinkClassification(False, next(bps), next(bids)) for t in tris.tolist()]


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
    nearest the line, and one occlusion query gives every sub-segment's
    blocked-by flags.  Returns a list of ``(LinkClassification,
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
    ss, pos, votes, dist, row, t = _flanking(a, b, gmap, corridor_width)
    right = votes < 0
    cand = np.flatnonzero(~right | ~left_only[ss])
    ss, pos, right, dist = ss[cand], pos[cand], right[cand], dist[cand]
    # the visiting order: sub-segment, side (left first), distance, id
    edge = np.searchsorted(ss, np.arange(len(pairs) + 1))
    near = pos[np.lexsort((gmap.ids[pos], dist, right, ss))]
    blocked = _blocked_by_block(near, ss, edge, a, b, gmap)
    bid = gmap.ids[pos].tolist()
    corners = list(zip(bid, zip(dist.tolist(), row[cand].tolist(),
                                t[cand].tolist())))
    near, edge, right = gmap.ids[near].tolist(), edge.tolist(), right.tolist()
    subs = iter([SubSegment(
        sa, sb, [c for c, r in zip(bid[lo:hi], right[lo:hi]) if not r],
        [c for c, r in zip(bid[lo:hi], right[lo:hi]) if r],
        dict(corners[lo:hi]), near[lo:hi], blocked[i])
        for i, ((sa, sb), lo, hi) in enumerate(zip(pairs, edge, edge[1:]))])
    return [(cls, [next(subs) for _ in segs]) for cls, segs in zip(classes, ends)]


def _flanking(a, b, gmap, corridor_width):
    """Each (sub-segment, building position) pair, ascending, where a roof
    vertex of the building counts for the sub-segment a->b: ``(ss, pos,
    votes, dist, row, t)``, with the sum of the sides (``side_2d``) of its
    counted vertices and the building's roof corner nearest the line (the
    first row by distance: as rings ascend, a tie goes to the lower id).

    Only a building whose box meets a sub-segment's xy box, widened by the
    corridor, can have a vertex that counts; the margin keeps every vertex
    whose rounded t and dist could pass at the corridor's edge.  Row r pairs
    sub-segment r // m with building ``near[r % m]``; a ``sliced`` pass culls
    the rows and keeps each flanking row's keys with its votes and corner."""
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)     # (3, SS)
    lo = np.minimum(a, b)[:2] - (corridor_width + CULL_MARGIN)
    hi = np.maximum(a, b)[:2] + (corridor_width + CULL_MARGIN)
    near = np.flatnonzero(((gmap.box_lo[:2] <= hi.max(axis=1)[:, None])
                           & (gmap.box_hi[:2] >= lo.min(axis=1)[:, None])).all(axis=0))
    m = max(len(near), 1)
    def scan(r):    # the flanking rows of r, with their keys, votes and corners
        ss, pos = np.divmod(r, m)
        pos = near.take(pos)    # take: faster than indexing
        box = ((gmap.box_lo[:2].take(pos, axis=1) <= hi.take(ss, axis=1))
               & (gmap.box_hi[:2].take(pos, axis=1) >= lo.take(ss, axis=1))).all(axis=0)
        ss, pos = ss[box], pos[box]
        row, size = gmap.roof_rows(pos)
        group = np.repeat(np.arange(len(pos)), size)
        t, cross, dist = line_2d(gmap.roof_xy.take(row, axis=0),
                                 a.take(ss[group], axis=1), b.take(ss[group], axis=1))
        ok = (t >= 0.0) & (t <= 1.0) & (dist <= corridor_width)
        votes = np.bincount(group[ok], side_2d(cross[ok]), minlength=len(pos))
        flank = np.bincount(group[ok], minlength=len(pos)) > 0
        first = first_per_group(group, dist)[flank]
        return (ss[flank], pos[flank], votes[flank], dist[first], row[first],
                t[first])
    return sliced(a.shape[1] * len(near), scan)


def _blocked_by_block(pos, ss, edge, a, b, gmap):
    """Each sub-segment a->b's blocked-by flags, from one ``pair_hits``
    query of every candidate (``pos``, building positions in visiting order
    per sub-segment ``ss``, starting at ``edge``) against the earlier
    candidates of its sub-segment, the only pairs the scan reads: a view
    of the flags as the query lays them out, candidate after candidate."""
    k = np.arange(len(ss)) - edge[ss]          # place in its sub-segment
    # each candidate's roof-table rows: the table ascends by building
    rows, size = gmap.roof_rows(pos)
    verts = gmap.vertices.take(gmap.roof_vertex[rows], axis=0)     # take: faster
    line_a, line_d = (np.repeat(x.take(ss, axis=0), size, axis=0) for x in (a, b - a))
    t = row_dot(verts - line_a, line_d) / row_dot(line_d, line_d)
    line_d *= t[:, None]
    line_d += line_a            # the projections, in place
    del line_a, t
    # candidate i against the k[i] candidates before it on its sub-segment
    hit = gmap.pair_hits(verts, line_d, offsets(size), edge[ss], k, pos)
    at = offsets(k)[edge].tolist()
    return [hit[lo:hi] for lo, hi in zip(at, at[1:])]


# -- Visibility filtering --------------------------------------------------


def visible_identification(segs, cls, gmap):
    """Algorithm-2 pass: near-to-far visibility filtering of the candidates.

    Within a sub-segment, buildings are visited in ``near`` order and kept
    only if no previously accepted building blocks one of their roof-ring
    vertex-to-projection segments, as read from the record's blocked-by
    flags.  Sub-segments are filtered independently; ``gmap`` is unused.
    """
    visible = []
    for sub in segs:
        if np.linalg.norm(sub.b - sub.a) <= EPS_LEN:
            raise NumericalDomainError("degenerate segment: endpoints coincide")
        accepted, at, flags = [], 0, sub.blocked.tolist()
        for i in range(len(sub.near)):      # candidate i's flags start at at
            if not any(flags[at + j] for j in accepted):
                accepted.append(i)
            at += i
        visible.append(replace(
            sub, left=[sub.near[i] for i in accepted if i < len(sub.left)],
            right=[sub.near[i] for i in accepted if i >= len(sub.left)]))
    return VisibilitySet(cls, list(segs), visible)


def identify_position(tx, r, gmap, corridor_width=100.0):
    """Convenience wrapper: both passes for one receiver position."""
    (cls, segs), = initial_identification(tx, [r], gmap, corridor_width)
    return visible_identification(segs, cls, gmap)

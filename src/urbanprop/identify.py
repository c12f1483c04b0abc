"""Significant-building identification along a receiver route.

Two passes per receiver position: candidate selection by side of the
propagation line (with NLOS links split at the breakpoint into TX-bp and
bp-RX sub-segments, the latter contributing left-side buildings only), then
near-to-far visibility filtering where a building is kept only if none of
its roof-ring vertex-to-projection segments is blocked by an already
accepted building.

All functions are pure over the immutable map; route positions are
independent of each other.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError
from .geometry import (EPS_HIT, Point3, Segment3, block_nearest, line_2d,
                       side_2d)
from . import kernels

EPS_TIE = 1e-9     # perpendicular-distance tie threshold, m


@dataclass(frozen=True)
class LinkClassification:
    los: bool
    breakpoint: Point3 = None
    blocking_building: int = None

    def __post_init__(self):
        if self.los and self.breakpoint is not None:
            raise ValueError("LOS link cannot carry a breakpoint")
        if not self.los and (self.breakpoint is None or self.blocking_building is None):
            raise ValueError("NLOS link requires breakpoint and blocking building")


@dataclass
class SubSegmentSides:
    """Candidate buildings flanking one propagation sub-segment."""

    a: Point3
    b: Point3
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    left_only: bool = False   # bp-RX sub-segment considers the left side only


@dataclass
class VisibleSegment:
    a: Point3
    b: Point3
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)


@dataclass
class VisibilitySet:
    """Per-receiver-position identification result."""

    rx_index: int
    classification: LinkClassification
    sides: list       # list[SubSegmentSides]
    visible: list     # list[VisibleSegment], parallel to ``sides``

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
    """LOS/NLOS classification of the TX-RX segment against every face."""
    blocked, face_idx, _hit = block_nearest(tx, rx, gmap)
    if not blocked:
        return LinkClassification(True)
    bid = gmap.faces[face_idx].building_id
    bp = compute_breakpoint(tx, rx, bid, gmap)
    return LinkClassification(False, breakpoint=bp, blocking_building=bid)


def compute_breakpoint(tx, rx, blocking_id, gmap):
    """Diffraction corner of the first obstructing building.

    Among the building's roof-ring corners on the RX side of the first face
    hit, picks the one closest (horizontally) to the TX-RX line; ties go to
    the left-side corner, then the lower vertex index.  The corner is
    returned at the height of the TX-RX line at that horizontal location.
    """
    a, b = tx.as_array(), rx.as_array()
    tris = gmap.candidate_triangles(a, b, [blocking_id])
    v0, v1, v2 = gmap.tri_v0[tris], gmap.tri_v1[tris], gmap.tri_v2[tris]
    _t, idx = kernels.first_hit(a, b, v0, v1, v2, EPS_HIT)
    if idx < 0:
        raise DegenerateGeometryError(
            f"building {blocking_id} does not block the TX-RX segment")
    nrm = np.cross(v1[idx] - v0[idx], v2[idx] - v0[idx])
    offset = nrm @ v0[idx]
    rx_sign = np.sign(rx.as_array() @ nrm - offset)

    ring = gmap.top_vertices(blocking_id)
    corners = gmap.vertices[ring]
    tline, cross, dist = line_2d(corners, tx, rx)
    left = side_2d(cross)
    best = None
    for k, vid in enumerate(ring):
        side_of_face = np.sign(corners[k] @ nrm - offset)
        # closed half-space: corners lying exactly on the hit plane qualify
        if rx_sign != 0 and side_of_face == -rx_sign:
            continue
        # sort key: distance, then right-before-left inverted (left wins), then index
        key = (dist[k], -left[k], int(vid))
        if best is None or _tie_lt(key, best[0]):
            best = (key, k)
    if best is None:
        raise DegenerateGeometryError(
            f"building {blocking_id} has no roof corner on the RX side of the hit face")
    k = best[1]
    c = corners[k]
    z = tx.z + tline[k] * (rx.z - tx.z)
    return Point3(float(c[0]), float(c[1]), float(z))


def _tie_lt(ka, kb):
    # lexicographic with a tolerance on the leading distance component
    if ka[0] < kb[0] - EPS_TIE:
        return True
    if ka[0] > kb[0] + EPS_TIE:
        return False
    return ka[1:] < kb[1:]


# -- Candidate selection (initial identification) --------------------------


def _segment_candidates(a, b, gmap, corridor_width, left_only=False):
    """Buildings with a roof-ring vertex beside the sub-segment a->b.

    A vertex counts when it projects inside the sub-segment and lies within
    ``corridor_width`` of its line; each building goes to the side most of
    its counted vertices lie on (ties left).  One pass over the map's
    roof-vertex table.
    """
    sub = SubSegmentSides(a, b, left_only=left_only)
    t, cross, dist = line_2d(gmap.roof_xy, a, b)
    kept = (t >= 0.0) & (t <= 1.0) & (dist <= corridor_width)
    owner = gmap.roof_owner[kept]
    n_buildings = len(gmap.buildings)
    flanking = np.bincount(owner, minlength=n_buildings) > 0
    votes = np.bincount(owner, side_2d(cross[kept]), minlength=n_buildings)
    sub.left = gmap.ids[flanking & (votes >= 0)].tolist()
    if not left_only:
        sub.right = gmap.ids[flanking & (votes < 0)].tolist()
    return sub


def initial_identification(tx, route, gmap, corridor_width=100.0):
    """Algorithm-1 pass: per route point, LOS/NLOS split and side candidates.

    Returns a list of ``(LinkClassification, [SubSegmentSides, ...])``.
    """
    if not route:
        raise ValueError("route must contain at least one point")
    if corridor_width <= 0.0:
        raise ValueError("corridor_width must be positive")
    out = []
    for r in route:
        cls = classify_link(tx, r, gmap)
        if cls.los:
            segs = [_segment_candidates(tx, r, gmap, corridor_width)]
        else:
            bp = cls.breakpoint
            segs = [
                _segment_candidates(tx, bp, gmap, corridor_width),
                _segment_candidates(bp, r, gmap, corridor_width, left_only=True),
            ]
        out.append((cls, segs))
    return out


# -- Visibility filtering --------------------------------------------------


def _building_line_distance(bid, gmap, a, b):
    return line_2d(gmap.vertices[gmap.top_vertices(bid)], a, b)[2].min()


def visible_identification(segs, tx, rx, cls, gmap, rx_index=0):
    """Algorithm-2 pass: near-to-far visibility filtering of the candidates.

    Within a sub-segment, buildings are visited per side in ascending
    perpendicular distance to the sub-segment line (ties by id) and kept
    only if no roof-ring vertex-to-projection segment is blocked by a
    previously accepted building.  Sub-segments are filtered independently.
    """
    visible = []
    for sub in segs:
        vseg = VisibleSegment(sub.a, sub.b)
        line_a, line_d = sub.a.as_array(), Segment3(sub.a, sub.b).direction()
        accepted = []
        for side_name in ("left", "right"):
            cand = getattr(sub, side_name)
            ordered = sorted(
                cand,
                key=lambda bid: (_building_line_distance(bid, gmap, sub.a, sub.b),
                                 bid))
            for bid in ordered:
                occluders = [x for x in accepted if x != bid]
                if _is_visible(bid, line_a, line_d, gmap, occluders):
                    getattr(vseg, side_name).append(bid)
                    accepted.append(bid)
        visible.append(vseg)
    return VisibilitySet(rx_index, cls, list(segs), visible)


def _is_visible(bid, line_a, line_d, gmap, occluders):
    """True when no roof-ring vertex-to-projection segment of ``bid`` onto
    the line ``line_a + t line_d`` is blocked by an occluder; one kernel call
    tests every segment."""
    if not occluders:
        return True
    verts = gmap.vertices[gmap.top_vertices(bid)]
    t = (verts - line_a) @ line_d / (line_d @ line_d)
    proj = line_a + t[:, None] * line_d
    tris = gmap.candidate_triangles(verts, proj, occluders)
    return not kernels.any_hit(verts, proj, gmap.tri_v0[tris],
                               gmap.tri_v1[tris], gmap.tri_v2[tris], EPS_HIT)


def identify_position(tx, r, gmap, corridor_width=100.0, rx_index=0):
    """Convenience wrapper: both passes for one receiver position."""
    (cls, segs), = initial_identification(tx, [r], gmap, corridor_width)
    return visible_identification(segs, tx, r, cls, gmap, rx_index=rx_index)

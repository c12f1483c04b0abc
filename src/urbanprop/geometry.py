"""3D environment model and the exact geometric predicates under it.

The map is an immutable vertex/face/building structure loaded from JSON.
Faces are simple planar polygons, fan-triangulated once at load time into a
triangle soup that all occlusion predicates run against (see ``kernels``).
All predicates are pure functions, safe to call in parallel.

Coordinates are meters in a right-handed local planar frame (x east,
y north, z up).  Geographic input must be pre-projected; the loader accepts
an optional declared origin for provenance only.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import MapValidationError, NumericalDomainError
from . import kernels

# Tolerances.
EPS_PLANE = 1e-6   # face planarity, meters
EPS_HIT = 1e-9     # endpoint exclusion for occlusion, meters
EPS_SIDE = 1e-9    # collinearity threshold for the side test, m^2
EPS_LEN = 1e-9     # minimal segment length, meters
EPS_TOP = 0.5      # roof-ring height band, meters
BOX_PAD = 1e-6     # culling-box padding, meters; keeps the cull conservative


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.isfinite(self.z)):
            raise NumericalDomainError(f"non-finite coordinate in {self!r}")

    def as_array(self):
        return np.array([self.x, self.y, self.z], dtype=np.float64)

    @classmethod
    def from_array(cls, arr):
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class Segment3:
    a: Point3
    b: Point3

    def __post_init__(self):
        if np.linalg.norm(self.b.as_array() - self.a.as_array()) <= EPS_LEN:
            raise NumericalDomainError("degenerate segment: endpoints coincide")

    def direction(self):
        return self.b.as_array() - self.a.as_array()


@dataclass(frozen=True)
class Face:
    building_id: int
    vertex_ids: tuple


@dataclass(frozen=True)
class Building:
    id: int
    name: str
    face_indices: tuple
    vertex_indices: tuple


@dataclass
class GeometryMap:
    """Immutable 3D environment: vertices, faces and building groups.

    Construction validates the map and derives, with array operations:
    ``tri_v0/v1/v2``, the fan-triangulated faces, with ``tri_face`` (face
    index) and ``tri_building`` (building position in ``buildings``);
    ``face_normal`` (F, 3), each face's unit normal from its leading
    vertices (NaN for a degenerate triangle); ``box_lo``/``box_hi`` (3, B),
    the padded building boxes occlusion tests cull against; ``ids``, the
    building ids; and the roof-vertex table: ``roof_vertex`` (ring vertex
    ids within ``EPS_TOP`` of each building's top, ascending per building),
    ``roof_xy`` and ``roof_owner`` (building position).
    """

    vertices: np.ndarray                    # (N, 3) float64
    faces: list                             # list[Face]
    buildings: list                         # list[Building]
    origin: tuple = None                    # provenance only, never used

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        if self.vertices.size and not np.isfinite(self.vertices).all():
            raise MapValidationError("non-finite vertex coordinate")
        self.ids = np.array([b.id for b in self.buildings], dtype=np.int64)
        if len(np.unique(self.ids)) != len(self.ids):
            raise MapValidationError("duplicate building id")
        self._position = {b.id: i for i, b in enumerate(self.buildings)}
        self._load_faces()
        self._load_buildings()

    # -- construction ------------------------------------------------------

    def _load_faces(self):
        """Validate the faces, then store their normals and triangles."""
        n = len(self.vertices)
        flat, owner, starts, sizes, bad_vertex = _ragged(
            [f.vertex_ids for f in self.faces], n)
        face_bid = np.array([f.building_id for f in self.faces], dtype=np.int64)
        _raise_first_failure(
            (sizes < 3, lambda i: f"face {i} has fewer than 3 vertices"),
            (bad_vertex, lambda i: f"face {i} references vertex "
             f"{_outside(self.faces[i].vertex_ids, n)} of a {n}-vertex map"),
            (~np.isin(face_bid, self.ids), lambda i: f"face {i} references "
             f"unknown building {self.faces[i].building_id}"))

        v = self.vertices
        p0 = v[flat[starts]]
        nrm = np.cross(v[flat[starts + 1]] - p0, v[flat[starts + 2]] - p0)
        # Row dot products through matmul sum like the 1-D np.linalg.norm,
        # so each normal equals the one computed face by face, bit for bit.
        norm = np.sqrt(_row_dot(nrm, nrm))
        with np.errstate(divide="ignore", invalid="ignore"):
            self.face_normal = nrm / norm[:, None]
            dist = np.abs(_row_dot(v[flat] - p0[owner], self.face_normal[owner]))
        self.face_normal.flags.writeable = False
        worst = np.zeros(len(sizes))
        np.fmax.at(worst, owner, dist)      # skips the NaN of a degenerate face
        polygon = sizes > 3        # a triangle is planar by construction
        _raise_first_failure(
            (polygon & (norm == 0.0),
             lambda i: f"face {i} has collinear leading vertices"),
            (polygon & (worst > EPS_PLANE),
             lambda i: f"face {i} is non-planar by {worst[i]:.2e} m"))

        # fan triangulation: triangle k of a face is (v[0], v[k + 1], v[k + 2])
        fans = sizes - 2
        self.tri_face = np.repeat(np.arange(len(sizes)), fans)
        first = starts[self.tri_face]
        k = np.arange(len(self.tri_face)) - np.repeat(np.cumsum(fans) - fans, fans)
        self.tri_v0 = v[flat[first]]
        self.tri_v1 = v[flat[first + k + 1]]
        self.tri_v2 = v[flat[first + k + 2]]
        order = np.argsort(self.ids)
        face_pos = order[np.searchsorted(self.ids, face_bid, sorter=order)]
        self.tri_building = face_pos[self.tri_face]

    def _load_buildings(self):
        """Validate the buildings, then store their boxes and roof rings."""
        n = len(self.vertices)
        vids, owner, starts, counts, bad_vertex = _ragged(
            [b.vertex_indices for b in self.buildings], n)
        no_faces = np.array([not b.face_indices for b in self.buildings], dtype=bool)
        b = self.buildings
        _raise_first_failure(
            (no_faces, lambda i: f"building {b[i].id} has no faces"),
            (bad_vertex, lambda i: f"building {b[i].id} references vertex "
             f"{_outside(b[i].vertex_indices, n)} out of range"))

        pts = self.vertices[vids]
        hi = np.maximum.reduceat(pts, starts)
        self.box_lo = np.ascontiguousarray(
            np.minimum.reduceat(pts, starts).T - BOX_PAD)
        self.box_hi = np.ascontiguousarray(hi.T + BOX_PAD)
        is_top = pts[:, 2] >= np.repeat(hi[:, 2], counts) - EPS_TOP
        ring = np.flatnonzero(is_top)
        ring = ring[np.lexsort((vids[ring], owner[ring]))]
        self.roof_vertex = vids[ring]
        self.roof_vertex.flags.writeable = False
        self.roof_xy = pts[ring, :2]
        self.roof_owner = owner[ring]
        self._ring_edge = np.concatenate(
            ([0], np.cumsum(np.bincount(self.roof_owner, minlength=len(counts)))))

    # -- accessors ---------------------------------------------------------

    def _pos(self, building_id):
        try:
            return self._position[building_id]
        except KeyError:
            raise MapValidationError(f"unknown building id {building_id}") from None

    def building(self, building_id):
        return self.buildings[self._pos(building_id)]

    def building_ids(self):
        return self.ids.tolist()

    def top_vertices(self, building_id):
        """Indices of the building's roof-ring vertices, ascending (a read-only
        view into ``roof_vertex``).

        A vertex is top-level when its height is within ``EPS_TOP`` of the
        building's maximum height.
        """
        pos = self._pos(building_id)
        return self.roof_vertex[self._ring_edge[pos]:self._ring_edge[pos + 1]]

    def candidate_triangles(self, a, b, building_ids=None):
        """Sorted ids of the triangles whose building box a segment meets.

        ``a``/``b`` are (3,) or (S, 3) segment endpoints.  A building is kept
        when the closed parameter range [0, 1] of any segment overlaps its
        padded box (slab test, vectorized over segments and boxes), so no
        triangle an open segment can hit is dropped.  ``building_ids=None``
        considers every building.
        """
        pos = slice(None) if building_ids is None else np.array(
            [self._position[bid] for bid in building_ids], dtype=np.int64)
        a = np.asarray(a, dtype=np.float64).reshape(-1, 3, 1)
        # An axis with d == 0 gives t = -inf/+inf inside/outside the slab.  It
        # gives NaN, which culls the box, only for a segment in the plane of a
        # padded face: BOX_PAD away from the building, so it cannot hit it.
        with np.errstate(all="ignore"):
            inv = 1.0 / (np.asarray(b, dtype=np.float64).reshape(-1, 3, 1) - a)
            t_lo = (self.box_lo[:, pos] - a) * inv
            t_hi = (self.box_hi[:, pos] - a) * inv
        enter = np.minimum(t_lo, t_hi).max(axis=1)
        leave = np.maximum(t_lo, t_hi).min(axis=1)
        met = np.maximum(enter, 0.0) <= np.minimum(leave, 1.0)
        keep = np.zeros(len(self.buildings), dtype=bool)
        keep[pos] = met.any(axis=0)
        return np.flatnonzero(keep[self.tri_building])


def _ragged(groups, n):
    """Flat int64 ids of ``groups`` (a list of id sequences), the group of
    each id, each group's start and size, and which groups hold an id
    outside [0, n)."""
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    flat = np.fromiter(chain.from_iterable(groups), dtype=np.int64,
                       count=int(sizes.sum()))
    owner = np.repeat(np.arange(len(groups)), sizes)
    bad = np.zeros(len(groups), dtype=bool)
    bad[owner[(flat < 0) | (flat >= n)]] = True
    return flat, owner, np.cumsum(sizes) - sizes, sizes, bad


def _raise_first_failure(*checks):
    """Raise for the first item that fails any check, with the message of the
    first check it fails.  A check is ``(failed, message)``: a boolean array
    over the items and a function of the item's index."""
    failed = np.flatnonzero(np.logical_or.reduce([f for f, _msg in checks]))
    if len(failed):
        i = int(failed[0])
        raise MapValidationError(next(msg(i) for f, msg in checks if f[i]))


def _outside(ids, n):
    return next(v for v in ids if not 0 <= v < n)


def _row_dot(x, y):
    """Dot product of each row of ``x`` with the same row of ``y``."""
    return (x[:, None, :] @ y[:, :, None]).reshape(-1)


# -- loading ---------------------------------------------------------------


def load_map(path):
    """Load and validate a geometry map from its JSON file.

    Schema: ``{"vertices": [[x,y,z], ...], "faces": [{"building": id,
    "v": [i, ...]}, ...], "buildings": [{"id": id, "name": str?}, ...]}``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise MapValidationError(f"cannot read map file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MapValidationError(f"malformed JSON in {path}: {exc}") from exc
    return map_from_dict(raw)


def map_from_dict(raw):
    for key in ("vertices", "faces", "buildings"):
        if key not in raw:
            raise MapValidationError(f"map is missing the '{key}' array")
    vertices = np.asarray(raw["vertices"], dtype=np.float64)
    if vertices.size == 0:
        vertices = np.empty((0, 3))
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MapValidationError("'vertices' must be an array of [x, y, z]")

    faces = []
    for fi, f in enumerate(raw["faces"]):
        try:
            faces.append(Face(int(f["building"]), tuple(int(v) for v in f["v"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise MapValidationError(f"bad face entry at index {fi}: {exc}") from exc

    face_of_building = {}
    for fi, f in enumerate(faces):
        face_of_building.setdefault(f.building_id, []).append(fi)

    buildings = []
    for bi, b in enumerate(raw["buildings"]):
        try:
            bid = int(b["id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MapValidationError(f"bad building entry at index {bi}: {exc}") from exc
        f_idx = tuple(face_of_building.get(bid, ()))
        v_idx = tuple(sorted({v for fi in f_idx for v in faces[fi].vertex_ids}))
        buildings.append(Building(bid, str(b.get("name", "")), f_idx, v_idx))

    origin = tuple(raw["origin"]) if "origin" in raw else None
    return GeometryMap(vertices, faces, buildings, origin=origin)


# -- predicates ------------------------------------------------------------


def f_proj(p, seg):
    """Orthogonal projection of ``p`` onto the infinite line through ``seg``.

    Returns ``(point, t)`` where ``t`` is the unclamped line parameter
    (0 at ``seg.a``, 1 at ``seg.b``).
    """
    a = seg.a.as_array()
    d = seg.direction()
    t = float((p.as_array() - a) @ d / (d @ d))
    return Point3.from_array(a + t * d), t


def line_2d(pts, a, b):
    """Where points lie relative to the horizontal line through a->b.

    ``pts`` is (N, 2) or (N, 3); heights are ignored.  Returns arrays
    ``(t, cross, dist)``: the unclamped line parameter (0 at ``a``, 1 at
    ``b``), the z-component of the 2D cross product (positive on the left)
    and the perpendicular distance.  A line with no horizontal length gives
    NaN ``t`` and ``dist``, without a warning, so no point lies on it.
    """
    ax, ay = a.x, a.y
    dx, dy = b.x - ax, b.y - ay
    px, py = pts[:, 0], pts[:, 1]
    cross = dx * (py - ay) - dy * (px - ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        dist = np.abs(cross) / np.hypot(dx, dy)
    return t, cross, dist


def side_2d(cross):
    """Sides from ``line_2d`` cross terms: +1 left, -1 right, 0 within ``EPS_SIDE``."""
    return np.where(np.abs(cross) <= EPS_SIDE, 0, np.sign(cross)).astype(np.int64)


def f_side(p, seg):
    """Side of ``p`` relative to a->b on the xy-plane: +1 left, -1 right, 0 collinear.

    Heights are ignored; the test is the z-component of the 2D cross product.
    """
    _t, cross, _dist = line_2d(np.array([[p.x, p.y]]), seg.a, seg.b)
    return int(side_2d(cross)[0])


def segment_face_intersect(seg, face_index, gmap):
    """Nearest-to-``a`` intersection of the open segment with one face, or None."""
    mask = gmap.tri_face == face_index
    t, idx = kernels.first_hit(seg.a.as_array(), seg.b.as_array(),
                              gmap.tri_v0[mask], gmap.tri_v1[mask],
                              gmap.tri_v2[mask], EPS_HIT)
    if idx < 0:
        return None
    a = seg.a.as_array()
    return Point3.from_array(a + t * seg.direction())


def f_block(a, b, gmap, building_ids=None):
    """1 iff any face of the selected buildings blocks the open segment a-b.

    ``building_ids=None`` tests against every building in the map.
    """
    a, b = a.as_array(), b.as_array()
    idx = gmap.candidate_triangles(a, b, building_ids)
    return int(kernels.any_hit(a, b, gmap.tri_v0[idx], gmap.tri_v1[idx],
                               gmap.tri_v2[idx], EPS_HIT))


def block_nearest(a, b, gmap):
    """All-buildings occlusion test used for LOS classification.

    Returns ``(blocked, face_index, hit_point)`` with the nearest blocking
    face; ``(False, None, None)`` when the segment is clear.
    """
    a, b = a.as_array(), b.as_array()
    idx = gmap.candidate_triangles(a, b)
    t, i = kernels.first_hit(a, b, gmap.tri_v0[idx], gmap.tri_v1[idx],
                             gmap.tri_v2[idx], EPS_HIT)
    if i < 0:
        return False, None, None
    return True, int(gmap.tri_face[idx[i]]), Point3.from_array(a + t * (b - a))

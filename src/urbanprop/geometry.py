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
from dataclasses import dataclass, field

import numpy as np

from .errors import MapValidationError, NumericalDomainError
from . import kernels

# Default tolerances, overridable per call / per load.
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

    The triangle soup (``tri_v0/v1/v2``) is derived at construction by fan
    triangulation of every face; ``tri_face`` maps each triangle back to its
    face index and ``tri_building`` to its building's position in
    ``buildings``.  Per building, the load also stores the padded bounding
    box that occlusion tests cull against (``box_lo``/``box_hi``, shape
    (3, B): one row per axis, one column per building in ``buildings``
    order) and the roof-ring vertex ids for ``EPS_TOP``.
    """

    vertices: np.ndarray                    # (N, 3) float64
    faces: list                             # list[Face]
    buildings: list                         # list[Building]
    origin: tuple = None                    # provenance only, never used
    eps_plane: float = EPS_PLANE

    tri_v0: np.ndarray = field(init=False, repr=False)
    tri_v1: np.ndarray = field(init=False, repr=False)
    tri_v2: np.ndarray = field(init=False, repr=False)
    tri_face: np.ndarray = field(init=False, repr=False)
    tri_building: np.ndarray = field(init=False, repr=False)
    box_lo: np.ndarray = field(init=False, repr=False)
    box_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        if self.vertices.size and not np.isfinite(self.vertices).all():
            raise MapValidationError("non-finite vertex coordinate")
        self._validate()
        self._triangulate()
        self._by_id = {b.id: b for b in self.buildings}
        self._position = {b.id: i for i, b in enumerate(self.buildings)}
        self._index_buildings()

    # -- construction ------------------------------------------------------

    def _validate(self):
        n = len(self.vertices)
        ids = {b.id for b in self.buildings}
        if len(ids) != len(self.buildings):
            raise MapValidationError("duplicate building id")
        for fi, f in enumerate(self.faces):
            if len(f.vertex_ids) < 3:
                raise MapValidationError(f"face {fi} has fewer than 3 vertices")
            for vid in f.vertex_ids:
                if not 0 <= vid < n:
                    raise MapValidationError(
                        f"face {fi} references vertex {vid} of a {n}-vertex map")
            if f.building_id not in ids:
                raise MapValidationError(
                    f"face {fi} references unknown building {f.building_id}")
            self._check_planar(fi, f)
        for b in self.buildings:
            if not b.face_indices:
                raise MapValidationError(f"building {b.id} has no faces")
            for vid in b.vertex_indices:
                if not 0 <= vid < n:
                    raise MapValidationError(
                        f"building {b.id} references vertex {vid} out of range")

    def _check_planar(self, fi, f):
        pts = self.vertices[list(f.vertex_ids)]
        if len(pts) == 3:
            return
        e1 = pts[1] - pts[0]
        e2 = pts[2] - pts[0]
        nrm = np.cross(e1, e2)
        norm = np.linalg.norm(nrm)
        if norm == 0.0:
            raise MapValidationError(f"face {fi} has collinear leading vertices")
        nrm /= norm
        dist = np.abs((pts - pts[0]) @ nrm)
        if dist.max() > self.eps_plane:
            raise MapValidationError(
                f"face {fi} is non-planar by {dist.max():.2e} m")

    def _triangulate(self):
        v0, v1, v2, tf = [], [], [], []
        for fi, f in enumerate(self.faces):
            ids = f.vertex_ids
            for k in range(1, len(ids) - 1):
                v0.append(self.vertices[ids[0]])
                v1.append(self.vertices[ids[k]])
                v2.append(self.vertices[ids[k + 1]])
                tf.append(fi)
        shape = (len(v0), 3)
        self.tri_v0 = np.array(v0, dtype=np.float64).reshape(shape)
        self.tri_v1 = np.array(v1, dtype=np.float64).reshape(shape)
        self.tri_v2 = np.array(v2, dtype=np.float64).reshape(shape)
        self.tri_face = np.array(tf, dtype=np.int64)

    def _index_buildings(self):
        """Triangle->building index, bounding boxes and roof rings, once."""
        face_pos = np.array([self._position[f.building_id] for f in self.faces],
                            dtype=np.int64)
        self.tri_building = face_pos[self.tri_face]
        counts = [len(b.vertex_indices) for b in self.buildings]
        if not counts:
            self.box_lo = self.box_hi = np.empty((3, 0))
            self._top = {}
            return
        ids = np.concatenate([b.vertex_indices for b in self.buildings])
        starts = np.cumsum([0] + counts[:-1])
        pts = self.vertices[ids]
        hi = np.maximum.reduceat(pts, starts)
        self.box_lo = np.ascontiguousarray(
            np.minimum.reduceat(pts, starts).T - BOX_PAD)
        self.box_hi = np.ascontiguousarray(hi.T + BOX_PAD)
        is_top = pts[:, 2] >= np.repeat(hi[:, 2], counts) - EPS_TOP
        ring_sizes = np.add.reduceat(is_top.astype(np.int64), starts)
        rings = np.split(ids[is_top], np.cumsum(ring_sizes)[:-1])
        for ring in rings:
            ring.flags.writeable = False
        self._top = {b.id: ring for b, ring in zip(self.buildings, rings)}

    # -- accessors ---------------------------------------------------------

    def building(self, building_id):
        try:
            return self._by_id[building_id]
        except KeyError:
            raise MapValidationError(f"unknown building id {building_id}") from None

    def building_ids(self):
        return [b.id for b in self.buildings]

    def top_vertices(self, building_id):
        """Indices of the building's roof-ring vertices (read-only array).

        A vertex is top-level when its height is within ``EPS_TOP`` of the
        building's maximum height.
        """
        try:
            return self._top[building_id]
        except KeyError:
            raise MapValidationError(f"unknown building id {building_id}") from None

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


# -- loading ---------------------------------------------------------------


def load_map(path, eps_plane=EPS_PLANE):
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
    return map_from_dict(raw, eps_plane=eps_plane)


def map_from_dict(raw, eps_plane=EPS_PLANE):
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
        if not f_idx:
            raise MapValidationError(f"building {bid} has no faces")
        v_idx = tuple(sorted({v for fi in f_idx for v in faces[fi].vertex_ids}))
        buildings.append(Building(bid, str(b.get("name", "")), f_idx, v_idx))

    origin = tuple(raw["origin"]) if "origin" in raw else None
    return GeometryMap(vertices, faces, buildings, origin=origin,
                       eps_plane=eps_plane)


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


def f_side(p, seg, eps_side=EPS_SIDE):
    """Side of ``p`` relative to a->b on the xy-plane: +1 left, -1 right, 0 collinear.

    Heights are ignored; the test is the z-component of the 2D cross product.
    """
    ax, ay = seg.a.x, seg.a.y
    cross = (seg.b.x - ax) * (p.y - ay) - (seg.b.y - ay) * (p.x - ax)
    if abs(cross) <= eps_side:
        return 0
    return 1 if cross > 0 else -1


def segment_face_intersect(seg, face_index, gmap, eps_hit=EPS_HIT):
    """Nearest-to-``a`` intersection of the open segment with one face, or None."""
    mask = gmap.tri_face == face_index
    t, idx = kernels.first_hit(seg.a.as_array(), seg.b.as_array(),
                              gmap.tri_v0[mask], gmap.tri_v1[mask],
                              gmap.tri_v2[mask], eps_hit)
    if idx < 0:
        return None
    a = seg.a.as_array()
    return Point3.from_array(a + t * seg.direction())


def f_block(a, b, gmap, building_ids=None, eps_hit=EPS_HIT):
    """1 iff any face of the selected buildings blocks the open segment a-b.

    ``building_ids=None`` tests against every building in the map.
    """
    a, b = a.as_array(), b.as_array()
    idx = gmap.candidate_triangles(a, b, building_ids)
    return int(kernels.any_hit(a, b, gmap.tri_v0[idx], gmap.tri_v1[idx],
                               gmap.tri_v2[idx], eps_hit))


def block_nearest(a, b, gmap, eps_hit=EPS_HIT):
    """All-buildings occlusion test used for LOS classification.

    Returns ``(blocked, face_index, hit_point)`` with the nearest blocking
    face; ``(False, None, None)`` when the segment is clear.
    """
    a, b = a.as_array(), b.as_array()
    idx = gmap.candidate_triangles(a, b)
    t, i = kernels.first_hit(a, b, gmap.tri_v0[idx], gmap.tri_v1[idx],
                             gmap.tri_v2[idx], eps_hit)
    if i < 0:
        return False, None, None
    return True, int(gmap.tri_face[idx[i]]), Point3.from_array(a + t * (b - a))

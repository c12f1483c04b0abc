"""3D environment model and the exact geometric predicates under it.

The parsed JSON map is converted once, then built by array passes into
immutable arrays.  Faces are simple planar polygons, fan-triangulated at
load into a triangle soup that the map's two occlusion queries run against
(see ``kernels``): the first face hit per segment (``first_hit``) and a
blocked flag per (segment group, building) pair (``pair_hits``); the
chain's ``f_block`` is a blocked flag per segment.  All run one pass that
culls and then tests (``GeometryMap._hits``); ``first_hit`` and
``f_block`` are one group of all their segments against every building.
The nearest-hit query tests every kept row; the flag queries test in two
rounds, each key's first kept row and then the rest of the keys still
unhit, so they stop at a key's first hit.  The map is the only code that
culls the soup, pairs segments with triangles and calls the kernel.  All
predicates are pure functions, safe to call in parallel.

Coordinates are meters in a right-handed local planar frame (x east,
y north, z up).  Geographic input must be pre-projected.  A point is a
``(3,)`` float64 array ``[x, y, z]``.
"""

import gc
import json
import numbers
import sys
from functools import reduce
from itertools import chain
from operator import iadd

import numpy as np

from .errors import MapValidationError
from . import kernels

# Tolerances.
EPS_PLANE = 1e-6   # face planarity, meters
EPS_HIT = 1e-9     # endpoint exclusion for occlusion, meters
EPS_SIDE = 1e-9    # collinearity threshold for the side test, m^2
EPS_LEN = 1e-9     # minimal segment length, meters
EPS_TOP = 0.5      # roof-ring height band, meters
BOX_PAD = 1e-6     # culling-box padding, meters; keeps the cull conservative
KERNEL_ROWS = 512  # rows per slice of a block pass (sliced): bounds its arrays


class GeometryMap:
    """Immutable 3D environment, held as arrays built once at load.

    ``GeometryMap(vertices, face_ids, face_sizes, face_building, ids)`` takes
    the (N, 3) vertices, all faces' vertex ids joined, each face's number of
    them and building id, and the building ids; it validates them and stores:
    ``tri_v0/v1/v2``, the fan-triangulated faces, with ``tri_building``
    (building position in ``ids``); ``face_normal`` (F, 3), each face's unit
    normal from its leading vertices (NaN for a degenerate triangle);
    ``box_lo``/``box_hi`` (3, B), the padded building boxes occlusion tests
    cull against, and each building's triangle ids; the roof-vertex table:
    ``roof_vertex`` (ring vertex ids within ``EPS_TOP`` of each building's
    top, ascending per building), ``roof_xy`` and ``roof_owner`` (building
    position); the ring walls at each roof-table row (``ring_dir``, rows by
    ``ring_wall_rows``) and each building's vertical faces
    (``wall_normal``/``wall_point``, rows by ``wall_rows``).  Its two
    occlusion queries (``first_hit``, ``pair_hits``) and ``f_block`` share
    one pass, ``_hits``: a box cull of (segment group, building) pairs, a
    slab cull of (segment, building) rows, then a test of the kept
    (segment, triangle) pairs, in one round or, for a flag, two, each in
    ``sliced`` passes of ``KERNEL_ROWS`` rows.
    """

    def __init__(self, vertices, face_ids, face_sizes, face_building, ids):
        self.vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(self.vertices).all():
            i = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))[0]
            raise MapValidationError(f"non-finite vertex coordinate at index {i}")
        self.ids = np.array(ids, dtype=np.int64)
        order = np.argsort(self.ids)
        if (np.diff(self.ids[order]) == 0).any():
            raise MapValidationError("duplicate building id")
        self._position = dict(zip(self.ids.tolist(), range(len(self.ids))))
        face_bid, flat, sizes = (np.fromiter(x, dtype=np.int64, count=len(x))
                                 for x in (face_building, face_ids, face_sizes))
        self._load_buildings(*self._load_faces(flat, sizes, face_bid, order))

    # -- construction ------------------------------------------------------

    def _load_faces(self, flat, sizes, face_bid, order):
        """Validate the faces; store their normals, triangles and vertical walls.
        Returns ``flat`` and each face's start, size and building position."""
        n = len(self.vertices)
        starts = np.cumsum(sizes) - sizes
        outside = np.flatnonzero((flat < 0) | (flat >= n))
        holder = np.searchsorted(starts, outside, side="right") - 1    # their faces
        rank = np.searchsorted(self.ids, face_bid, sorter=order)    # id's sort rank
        unknown = np.append(self.ids[order], 0)[rank] != face_bid
        unknown |= rank == len(order)
        _raise_first_failure(
            (sizes < 3, lambda i: f"face {i} has fewer than 3 vertices"),
            (np.bincount(holder, minlength=len(sizes)) > 0,
             lambda i: f"face {i} references vertex "
             f"{flat[outside[holder == i][0]]} of a {n}-vertex map"),
            (unknown, lambda i: f"face {i} references unknown building {face_bid[i]}"))

        # rows are gathered with take: the same copy as fancy indexing, faster
        p0, e1, e2 = self.vertices.take(flat.take(starts + [[0], [1], [2]]), axis=0)
        # finite coordinates can still overflow here: such a face is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            e1, e2 = e1 - p0, e2 - p0
            nrm = np.cross(e1, e2)
            # Row dot products through matmul sum like the 1-D np.linalg.norm,
            # so each normal equals the one computed face by face, bit for bit.
            norm = np.sqrt(row_dot(nrm, nrm))
        _raise_first_failure((~np.isfinite(norm), lambda i:
                              f"face {i} has a normal beyond the float range"))
        # fan triangulation: triangle k of a face is (v[0], v[k + 1], v[k + 2])
        fans = sizes - 2
        k1 = ranges(starts + 1, fans)      # the rows of the v[k + 1]
        self.tri_v0 = np.repeat(p0, fans, axis=0)
        self.tri_v1, self.tri_v2 = self.vertices.take(flat.take(k1 + [[0], [1]]), axis=0)

        # planarity at v[1] and each triangle's v[k + 2]: every vertex but v[0],
        # at distance 0 exactly (or NaN without a normal, which is never far)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.face_normal = nrm / norm[:, None]
            dist = np.abs(row_dot(self.tri_v2 - self.tri_v0,
                                  np.repeat(self.face_normal, fans, axis=0)))
            lead = np.abs(row_dot(e1, self.face_normal))
        self.face_normal.flags.writeable = False
        tri = np.cumsum(fans) - fans    # each face's first triangle
        far = lead > EPS_PLANE          # at v[1], then at each triangle's v[k + 2]
        far[np.searchsorted(tri, np.flatnonzero(dist > EPS_PLANE), "right") - 1] = True
        polygon = sizes > 3        # a triangle is planar by construction
        _raise_first_failure(
            (polygon & (norm == 0.0),
             lambda i: f"face {i} has collinear leading vertices"),
            (polygon & far, lambda i: "face %d is non-planar by %.2e m" % (
                i, np.fmax.reduce(dist[tri[i]:tri[i] + fans[i]], initial=lead[i]))))

        face_pos = order[rank]
        self.tri_building = np.repeat(face_pos, fans)
        self._tri_by_building = np.argsort(self.tri_building, kind="stable")
        self._tri_edge = _edges(self.tri_building, len(self.ids))
        self._tri_count = np.diff(self._tri_edge)

        # vertical faces per building, ascending face index; a degenerate
        # face's NaN normal is not vertical
        vertical = np.flatnonzero(np.abs(self.face_normal[:, 2]) < 0.1)
        vertical = vertical[np.argsort(face_pos[vertical], kind="stable")]
        self.wall_normal = self.face_normal[vertical]
        self.wall_point = p0.take(vertical, axis=0)
        self._wall_edge = _edges(face_pos[vertical], len(self.ids))
        return flat, starts, sizes, face_pos

    def _load_buildings(self, flat, starts, sizes, face_pos):
        """Validate the buildings, then store their boxes, roof and ring walls."""
        _raise_first_failure((np.bincount(face_pos, minlength=len(self.ids)) == 0,
                              lambda i: f"building {self.ids[i]} has no faces"))

        # each building's vertices, as sorted unique (position, vertex) keys
        n = len(self.vertices)
        key = np.repeat(face_pos * n, sizes) + flat     # at each face-vertex row
        here = np.argsort(key, kind="stable")   # the rows by key, in face order
        pair = key.take(here)
        pair = pair[np.diff(pair, prepend=-1) != 0]
        pair_b, pair_v = np.divmod(pair, n)
        counts = np.bincount(pair_b, minlength=len(self.ids))
        pts = self.vertices.T.take(pair_v, axis=1)    # (3, P): its rows reduce fast
        lo, hi = (f.reduceat(pts, np.cumsum(counts) - counts, axis=1)
                  for f in (np.minimum, np.maximum))
        self.box_lo, self.box_hi = lo - BOX_PAD, hi + BOX_PAD
        top = hi[2] - EPS_TOP
        ring = np.flatnonzero(pts[2] >= np.repeat(top, counts))
        roof_key = pair[ring]
        self.roof_vertex = pair_v[ring]
        self.roof_vertex.flags.writeable = False
        self.roof_xy = self.vertices[:, :2].take(self.roof_vertex, axis=0)
        self.roof_owner = pair_b[ring]
        self._ring_edge = _edges(self.roof_owner, len(self.ids))
        del pair, pair_b, pair_v, pts   # the build's peak is faulted in on each load

        # Ring walls: at each roof row of a face, the unit directions to the
        # face's previous and then next vertex on the same roof ring, by roof-table
        # row and then face order, duplicates kept: the order decides ties in link.
        roof = self.vertices[:, 2].take(flat) >= np.repeat(top.take(face_pos), sizes)
        here = here[roof.take(here)]            # the roof rows, by key
        nb = np.arange(len(flat))[:, None] + [-1, 1]    # previous, next row
        nb[starts, 0], nb[starts + sizes - 1, 1] = starts + sizes - 1, starts
        nb = nb.take(here, axis=0).ravel()          # at each roof row, in turn
        wall = np.flatnonzero(roof.take(nb))
        here, nb = here.take(wall >> 1), nb.take(wall)
        xy = self.vertices[:, :2]
        # finite coordinates can still overflow here: such a face is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            d = xy.take(flat.take(nb), axis=0) - xy.take(flat.take(here), axis=0)
            norm = np.hypot(d[:, 0], d[:, 1])
        holder = np.searchsorted(starts, here[~np.isfinite(norm)], "right") - 1
        _raise_first_failure((np.bincount(holder, minlength=len(sizes)) > 0, lambda i:
                              f"face {i} has a ring wall beyond the float range"))
        wall = np.flatnonzero(norm > 1e-9)
        self.ring_dir = d.take(wall, axis=0)
        self.ring_dir /= norm.take(wall)[:, None]
        self._ring_dir_edge = np.append(
            np.searchsorted(key.take(here.take(wall)), roof_key), len(wall))

    # -- accessors ---------------------------------------------------------

    def _pos(self, building_id):
        try:
            return self._position[building_id]
        except KeyError:
            raise MapValidationError(f"unknown building id {building_id}") from None

    def roof_rows(self, pos):
        """The roof-table rows of the buildings at the positions ``pos`` (an
        int array), joined, and the number of each."""
        size = self._ring_edge[pos + 1] - self._ring_edge[pos]
        return ranges(self._ring_edge[pos], size), size

    def ring_wall_rows(self, rows):
        """The ``ring_dir`` rows of the ring walls at each roof-table row of
        the int array ``rows``, joined, and the number at each."""
        size = self._ring_dir_edge[rows + 1] - self._ring_dir_edge[rows]
        return ranges(self._ring_dir_edge[rows], size), size

    def wall_rows(self, bids):
        """The ``wall_normal``/``wall_point`` rows of the vertical faces of the
        building ids ``bids``, joined, and the number of each."""
        pos = np.array([self._pos(bid) for bid in bids], dtype=np.int64)
        size = self._wall_edge[pos + 1] - self._wall_edge[pos]
        return ranges(self._wall_edge[pos], size), size

    def triangle(self, tri):
        """The three vertices of triangle ``tri`` of the soup."""
        return (self.tri_v0.take(tri, axis=0), self.tri_v1.take(tri, axis=0),
                self.tri_v2.take(tri, axis=0))

    def _hits(self, a, b, edge, first, count, pos, flag=None):
        """``(pair, segment, triangle, t)`` of the hits of the (segment group,
        building) pairs, group by group: pair k < ``count[g]`` of group g,
        the non-empty rows ``edge[g]:edge[g + 1]`` of the (S, 3) a->b, is
        the building at position ``pos[first[g] + k]`` (all int arrays).
        Three ``sliced`` passes, each keeping its survivors' keys: a pair is
        kept if its group's box, padded by ``BOX_PAD``, meets the building's;
        a (segment, building) row of a kept pair if the segment's closed
        range [0, 1] meets the padded box (so no triangle an open segment
        can hit is culled); a kept row is one kernel pair per triangle of
        the building, ascending, and every kernel call of a round of tests
        but its last is full.  Without ``flag`` one round tests every kept
        row.  ``flag``, a key's place in the tuple (0 pair, 1 segment), asks
        only whether each key is hit: round 1 tests each key's first kept
        row, round 2 the other kept rows of the keys still unhit, and only
        some of the hits are returned."""
        # BOX_PAD keeps the cull looser than the slab test, whose rounding
        # can admit a box a segment end only touches to within an ulp
        lo = np.minimum.reduceat(np.minimum(a, b), edge[:-1]).T - BOX_PAD
        hi = np.maximum.reduceat(np.maximum(a, b), edge[:-1]).T + BOX_PAD
        at = offsets(count)
        def boxes(r):   # the pairs r whose boxes meet, with their keys
            g, k = ranges_at(at, r)
            p = pos[first[g] + k]
            keep = ((self.box_lo.take(p, axis=1) <= hi.take(g, axis=1))
                    & (self.box_hi.take(p, axis=1) >= lo.take(g, axis=1))).all(axis=0)
            return r[keep], g[keep], p[keep]
        pair, g, p = sliced(at[-1], boxes)
        seg_at = offsets(edge[g + 1] - edge[g])
        def slab(r):    # the rows r whose segment meets the box, with their keys
            q, k = ranges_at(seg_at, r)
            seg, p_q = edge[g.take(q)] + k, p.take(q)
            a_seg = a.take(seg, axis=0).T      # take: faster than indexing
            inv = 1.0 / (b.take(seg, axis=0).T - a_seg)
            t_lo = (self.box_lo.take(p_q, axis=1) - a_seg) * inv
            t_hi = (self.box_hi.take(p_q, axis=1) - a_seg) * inv
            keep = (np.maximum(np.minimum(t_lo, t_hi).max(axis=0), 0.0)
                    <= np.minimum(np.maximum(t_lo, t_hi).min(axis=0), 1.0))
            return pair.take(q[keep]), seg[keep], p_q[keep]
        # d == 0 on an axis gives t = -inf/+inf inside/outside the slab, or NaN
        # (culled) in the plane of a padded face, too far away to hit it.
        with np.errstate(all="ignore"):
            kept = sliced(seg_at[-1], slab)
        def test(rows):     # the hits of the kernel pairs of the kept rows[rows]
            pair, seg, p = (x[rows] for x in kept)
            at = offsets(self._tri_count[p])
            def run(r):
                q, k = ranges_at(at, r)
                tri = self._tri_by_building[self._tri_edge[p.take(q)] + k]
                s = seg.take(q)
                t = kernels.segment_triangles(a.take(s, axis=0), b.take(s, axis=0),
                                              *self.triangle(tri), EPS_HIT)
                hit = np.flatnonzero(t < np.inf)
                return pair.take(q[hit]), s[hit], tri[hit], t[hit]
            return sliced(at[-1], run, (np.empty(0, np.int64),) * 3 + (np.empty(0),))
        if flag is None:
            return test(slice(None))
        key = kept[flag]
        lead = np.zeros(len(key), dtype=bool)     # the first kept row of each key
        lead[np.unique(key, return_index=True)[1]] = True
        hits = test(lead)
        return tuple(map(np.concatenate,
                         zip(hits, test(~lead & ~np.isin(key, hits[flag])))))

    def _whole(self, a, b, flag=None):
        """``_hits`` of the (S, 3) segments a->b as one group against every
        building, so they pair with the buildings whose boxes meet their
        joint bounding box."""
        edge = np.unique([0, len(a)])       # no group when there is no segment
        n = len(edge) - 1
        return self._hits(a, b, edge, np.zeros(n, np.int64),
                          np.full(n, len(self.ids)), np.arange(len(self.ids)), flag)

    def first_hit(self, a, b):
        """Nearest hit of each open segment a->b ((S, 3) rows; (3,)
        endpoints are one row) on the map's faces: ``(t, triangle id)``
        arrays of (S,), ``(inf, -1)`` where nothing is hit; of equally near
        hits, the lowest triangle id wins.  Every kept row of ``_whole``'s
        one group is tested."""
        a, b = (np.asarray(x, dtype=np.float64).reshape(-1, 3) for x in (a, b))
        _pair, seg, tri, t = self._whole(a, b)
        first = first_per_group(seg, tri, t)
        t_min, tri_min = np.full(len(a), np.inf), np.full(len(a), -1)
        t_min[seg[first]], tri_min[seg[first]] = t[first], tri[first]
        return t_min, tri_min

    def pair_hits(self, a, b, edge, first, count, pos):
        """Booleans, group by group: True where a face of the building at
        position ``pos[first[g] + k]``, k < ``count[g]``, blocks an open
        segment of group g, the non-empty rows ``edge[g]:edge[g + 1]`` of the
        (S, 3) a->b (all int arrays): ``_hits``' flags by pair."""
        hit = np.zeros(np.sum(count), dtype=bool)
        hit[self._hits(a, b, edge, first, count, pos, flag=0)[0]] = True
        return hit


def sliced(n, fn, empty=None):
    """``fn`` over the int rows ``0..n - 1``, ``KERNEL_ROWS`` at a time, its
    tuples of arrays joined.  With no rows, ``empty`` if given (``fn`` is
    not called), else ``fn`` of zero rows, so the arrays keep their dtypes."""
    if n == 0 and empty is not None:
        return empty
    return tuple(map(np.concatenate, zip(*[fn(np.arange(i, min(i + KERNEL_ROWS, n)))
                                           for i in range(0, max(n, 1), KERNEL_ROWS)])))


def ranges(lo, size):
    """The index ranges ``lo[i]:lo[i] + size[i]`` of int arrays, joined."""
    return np.repeat(lo - np.cumsum(size) + size, size) + np.arange(size.sum())


def first_per_group(group, *keys):
    """The first row of each group after a stable sort by ``keys``, the last
    one first, as ``np.lexsort`` takes them."""
    order = np.lexsort((*keys, group))
    return order[np.diff(group[order], prepend=-1) != 0]


def offsets(size):
    """Start offsets (n + 1) of n joined ranges of the sizes ``size``."""
    return np.concatenate(([0], np.cumsum(size)))


def ranges_at(at, r):
    """``(q, k)``: row r of joined ranges is row k of range q, which holds
    the rows ``at[q]:at[q + 1]`` (``at`` from ``offsets``)."""
    q = np.searchsorted(at, r, side="right") - 1
    return q, r - at[q]


def _edges(owner, n):
    """Start offsets (n + 1) of the groups of a sorted group-index array."""
    return offsets(np.bincount(owner, minlength=n))


def _raise_first_failure(*checks):
    """Raise for the first item that fails any check, with the message of the
    first check it fails.  A check is ``(failed, message)``: a boolean array
    over the items and a function of the item's index."""
    failed = np.flatnonzero(np.logical_or.reduce([f for f, _msg in checks]))
    if len(failed):
        i = int(failed[0])
        raise MapValidationError(next(msg(i) for f, msg in checks if f[i]))


def row_dot(x, y):
    """Row-wise dot product over the last axis, bit for bit a 1-D ``x @ y``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


# -- loading ---------------------------------------------------------------


def load_map(path):
    """Load and validate a geometry map from its JSON file.

    Schema: ``{"vertices": [[x,y,z], ...], "faces": [{"building": id,
    "v": [i, ...]}, ...], "buildings": [{"id": id}, ...]}``.
    """
    enabled = gc.isenabled()
    gc.disable()    # until the parsed document is gone: a JSON tree has no cycles
    try:            # the document lives in map_from_dict's frame only
        return map_from_dict(_parse(path))
    finally:
        if enabled:
            gc.enable()


def _parse(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MapValidationError(f"cannot read map file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or too deep
        raise MapValidationError(f"malformed JSON in {path}: {exc}") from exc


def map_from_dict(raw):
    """Check the entries of a parsed map JSON document and build the map.

    Coordinates must be real numbers, vertex and building ids integral
    ones; keys outside the schema, such as a declared origin, are ignored.
    Coordinates and face vertex ids are each joined once and checked by one
    pass over their types; only a document with a bad entry or an integral
    float id is walked entry by entry (``_entries``), naming the first bad one.
    """
    if not isinstance(raw, dict):
        raise MapValidationError("map must be a JSON object")
    for key in ("vertices", "faces", "buildings"):
        if not isinstance(raw.get(key), list):
            raise MapValidationError(f"map has no '{key}' array")
    coords = raw["vertices"]
    try:
        flat = reduce(iadd, coords, [])
    except TypeError as exc:
        raise MapValidationError(
            f"'vertices' must be an array of [x, y, z]: {exc}") from exc
    # one type pass over the coordinates: np.array converts bools, strs, nulls
    bad = {t for t in set(map(type, flat))
           if t is bool or not issubclass(t, numbers.Real)}
    if bad:
        i, x = next((i, x) for i, v in enumerate(coords) for x in v if type(x) in bad)
        raise MapValidationError(f"bad vertex entry at index {i}: {x!r} is not a number")
    if set(map(len, coords)) - {3}:
        raise MapValidationError("'vertices' must be an array of [x, y, z]")
    try:
        flat = np.fromiter(flat, dtype=np.float64, count=len(flat))
    except OverflowError:   # a JSON integer beyond the float range
        i = next(k for k, x in enumerate(flat) if abs(x) > sys.float_info.max) // 3
        raise MapValidationError(f"bad vertex entry at index {i}: too large") from None

    faces, buildings = raw["faces"], raw["buildings"]
    try:
        face_vertices = [f["v"] for f in faces]
        face_building = [f["building"] for f in faces]
        ids = [b["id"] for b in buildings]
        # one type pass over all ids: int only, not a bool, float or str (a bad "v")
        face_ids = reduce(iadd, face_vertices, [])
        checked = set(map(type, chain(face_ids, face_building, ids))) <= {int}
    except (KeyError, TypeError, ValueError):
        checked = False
    if not checked:
        face_vertices, face_building, ids = _entries(faces, buildings)
        face_ids = reduce(iadd, face_vertices, [])
    try:
        return GeometryMap(flat, face_ids, [*map(len, face_vertices)],
                           face_building, ids)
    except OverflowError as exc:
        raise MapValidationError(f"vertex or building id beyond 64 bits: {exc}") from exc


def _entries(faces, buildings):
    """Face vertex ids, face building ids and building ids, entry by entry:
    integral floats become ints, and the first bad entry is named."""
    face_vertices, face_building = [], []
    for fi, f in enumerate(faces):
        try:
            face_vertices.append([_integral(v) for v in f["v"]])
            face_building.append(_integral(f["building"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MapValidationError(f"bad face entry at index {fi}: {exc}") from exc
    ids = []
    for bi, b in enumerate(buildings):
        try:
            ids.append(_integral(b["id"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MapValidationError(f"bad building entry at index {bi}: {exc}") from exc
    return face_vertices, face_building, ids


def _integral(x):
    """An integer-valued JSON number as an int; ValueError for anything else."""
    if type(x) is int or (type(x) is float and x.is_integer()):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


# -- predicates ------------------------------------------------------------


def line_2d(pts, a, b):
    """Where points lie relative to the horizontal line through a->b.

    ``pts`` is (N, 2) or (N, 3).  ``a``/``b`` are two points, one line for
    every point, or (3, N) stacks of ends, one line per point (column k
    for point k); heights are ignored.  Each entry is computed alone, so
    it has the bits of the one-line call.  Returns (N,) arrays ``(t,
    cross, dist)``: the unclamped line parameter (0 at ``a``, 1 at ``b``),
    the z-component of the 2D cross product (positive on the left) and the
    perpendicular distance.  A line with no horizontal length gives NaN
    ``t`` and ``dist``, without a warning, so no point lies on it.
    """
    ax, ay = a[0], a[1]
    dx, dy = b[0] - ax, b[1] - ay
    px, py = pts[:, 0], pts[:, 1]
    cross = dx * (py - ay) - dy * (px - ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        dist = np.abs(cross) / np.hypot(dx, dy)
    return t, cross, dist


def side_2d(cross):
    """Sides from ``line_2d`` cross terms: +1 left, -1 right, 0 within ``EPS_SIDE``."""
    return np.where(np.abs(cross) <= EPS_SIDE, 0, np.sign(cross)).astype(np.int64)


def f_block(a, b, gmap):
    """1 iff a face of the map blocks the open segment a-b, per row of (S, 3)
    endpoints ((3,) endpoints are one row): ``first_hit``'s one group with
    ``_hits``' flags by segment, as ints; the name is the benchmark's hook."""
    a, b = (np.asarray(x, dtype=np.float64).reshape(-1, 3) for x in (a, b))
    hit = np.zeros(len(a), dtype=np.int64)
    hit[gmap._whole(a, b, flag=1)[1]] = 1
    return hit

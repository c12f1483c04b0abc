"""Geometry model and predicate tests, including the brute-force occlusion
oracle on random box scenes."""

import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (RING_OVERFLOW_MAP, UNIT_CUBE, build_map, build_map_dict,
                      grid_module, roof_ring)
from identity import polygon_city
from oracles import segment_blocked_by_boxes, segment_blocked_by_triangles
from urbanprop import geometry
from urbanprop.errors import MapValidationError, NumericalDomainError
from urbanprop.geometry import (f_block, line_2d, load_map, map_from_dict,
                                side_2d, sliced)
from urbanprop.identify import identify_position

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
MISSING = object()      # an entry key to delete


def pt(x, y, z=0.0):
    return np.array([x, y, z], dtype=np.float64)


def _rotated_boxes():
    """Map dict of 12 boxes turned by different angles, so no wall normal is
    axis-aligned; building ids are not in map order."""
    boxes = [(bid, (50.0 * bid, 3.0 * bid, 50.0 * bid + 30.0 + bid,
                    20.0 + 2.0 * bid, 15.0)) for bid in range(12)]
    raw = build_map_dict(boxes[7:] + boxes[:7])
    for k in range(0, len(raw["vertices"]), 8):
        c, s = np.cos(0.1 + 0.37 * k), np.sin(0.1 + 0.37 * k)
        raw["vertices"][k:k + 8] = [[c * x - s * y, s * x + c * y, z]
                                    for x, y, z in raw["vertices"][k:k + 8]]
    return raw


def _l_prism():
    """One L-shaped building, its roof split into two quads that share an
    edge, so roof corners repeat across faces."""
    xy = [(0, 0), (20, 0), (20, 8), (8, 8), (8, 20), (0, 20)]
    verts = [[x, y, z] for z in (0.0, 12.0) for x, y in xy]
    walls = [[k, (k + 1) % 6, (k + 1) % 6 + 6, k + 6] for k in range(6)]
    roof = [[6, 7, 8, 9], [6, 9, 10, 11]]
    faces = walls + roof + [[3, 2, 1, 0, 5, 4]]
    return {"vertices": verts, "faces": [{"building": 4, "v": f} for f in faces],
            "buildings": [{"id": 4}]}


def _shared_wall_pair():
    """A 20 m building (id 1) and a 10 m one (id 0) on either side of the wall
    x = 10.  Both use the wall's bottom corners and the low roof's corners on
    it (ids 10 and 13); the tall one's upper wall leans in to a narrower
    roof, so its roof corners 5 and 6 sit 2 m across from 10 and 13, which
    are roof vertices of the low building only."""
    verts = [[0, 0, 0], [10, 0, 0], [10, 10, 0], [0, 10, 0],
             [0, 0, 20], [8, 0, 20], [8, 10, 20], [0, 10, 20],
             [20, 0, 0], [20, 10, 0],
             [10, 0, 10], [20, 0, 10], [20, 10, 10], [10, 10, 10]]
    tall = [[0, 1, 10, 5, 4], [1, 2, 13, 10], [10, 13, 6, 5], [2, 3, 7, 6, 13],
            [3, 0, 4, 7], [4, 5, 6, 7], [3, 2, 1, 0]]
    low = [[1, 8, 11, 10], [8, 9, 12, 11], [9, 2, 13, 12], [2, 1, 10, 13],
           [10, 11, 12, 13], [2, 9, 8, 1]]
    faces = [{"building": 1, "v": f} for f in tall]
    faces += [{"building": 0, "v": f} for f in low]
    return {"vertices": verts, "faces": faces,
            "buildings": [{"id": 1}, {"id": 0}]}


def _box_grid(seed, n=10):
    """Map dict of an n x n grid of 30 m boxes on a 50 m pitch, heights
    drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return build_map_dict([
        (j * n + i, (50.0 * i + 10.0, 50.0 * j + 10.0, 50.0 * i + 40.0,
                     50.0 * j + 40.0, round(rng.uniform(10.0, 40.0), 3)))
        for j in range(n) for i in range(n)])


def _array_digest(gmap):
    """sha256 over the name, dtype, shape and bytes of every array the map
    holds, in name order."""
    h = hashlib.sha256()
    for name, value in sorted(vars(gmap).items()):
        if isinstance(value, np.ndarray):
            h.update(f"{name} {value.dtype.str} {value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


# the benchmark's seed-21 n = 10 city (perfbench/scene.py), with ids as
# written and as integral floats, which load entry by entry
BENCH_CITY10 = "e20c875fcc198b329e031b62c438abbbf016937f425ccc91f4e1782a3979ab3d"


def _float_ids(raw):
    """The map dict with every vertex and building id an integral float."""
    for f in raw["faces"]:
        f["v"] = [float(v) for v in f["v"]]
        f["building"] = float(f["building"])
    for b in raw["buildings"]:
        b["id"] = float(b["id"])
    return raw


def _ring_neighbors_loop(raw, gmap, bid, vid):
    """Ring-wall directions at a corner, walked face by face as
    ``link._ring_neighbors`` did before the map held them as a table."""
    top = set(int(v) for v in roof_ring(gmap, bid))
    here = gmap.vertices[vid][:2]
    dirs = []
    for f in raw["faces"]:
        if f["building"] != bid:
            continue
        ids = f["v"]
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


def _vertical_faces_loop(raw, gmap, bid):
    """(unit normal, first vertex) of each vertical face, as
    ``link._vertical_faces`` walked them before."""
    out = []
    for fi, f in enumerate(raw["faces"]):
        if f["building"] != bid:
            continue
        nrm = gmap.face_normal[fi]
        if abs(nrm[2]) < 0.1:
            out.append((nrm, gmap.vertices[f["v"][0]]))
    return out


def _bits(rows, width):
    return np.array(rows, dtype=np.float64).reshape(-1, width).tobytes()


# -- loading / validation ----------------------------------------------------


class TestMapLoading:
    def test_unit_cube(self, unit_cube_map):
        assert len(unit_cube_map.ids) == 1
        assert len(unit_cube_map.face_normal) == 6
        assert unit_cube_map.vertices.shape == (8, 3)

    def test_dangling_vertex_reference(self):
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0))])
        raw["faces"][0]["v"] = [0, 1, 99]
        with pytest.raises(MapValidationError,
                           match="^face 0 references vertex 99 of a 8-vertex map$"):
            map_from_dict(raw)

    # each message of the loader, whole; ``path`` is the keys down to the
    # entry that is set to ``value`` (or deleted)
    @pytest.mark.parametrize("path, value, message", [
        (("faces", 2, "v"), [0, 1], "face 2 has fewer than 3 vertices"),
        (("buildings", 1, "id"), 0, "duplicate building id"),
        (("faces", 3, "building"), 9, "face 3 references unknown building 9"),
        (("vertices", 3), [0.0, 1.0], "'vertices' must be an array of [x, y, z]"),
        (("vertices", 3), 5,
         "'vertices' must be an array of [x, y, z]: 'int' object is not iterable"),
        (("faces",), MISSING, "map has no 'faces' array")])
    def test_loader_message(self, path, value, message):
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0)),
                              (1, (3.0, 0.0, 4.0, 1.0, 2.0))])
        *down, last = path
        holder = raw
        for key in down:
            holder = holder[key]
        if value is MISSING:
            del holder[last]
        else:
            holder[last] = value
        with pytest.raises(MapValidationError, match=f"^{re.escape(message)}$"):
            map_from_dict(raw)

    def test_load_map_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [1,', encoding="utf-8")
        with pytest.raises(MapValidationError, match=re.escape(
                f"malformed JSON in {bad}: Expecting value: line 1 column 17 "
                f"(char 16)") + "$"):
            load_map(bad)
        missing = tmp_path / "missing.json"
        with pytest.raises(MapValidationError, match="^" + re.escape(
                f"cannot read map file {missing}: [Errno 2] No such file or "
                f"directory: '{missing}'") + "$"):
            load_map(missing)

    def test_empty_map_is_valid(self, empty_map):
        assert empty_map.ids.tolist() == []
        assert empty_map.tri_v0.shape == (0, 3)

    def test_non_planar_face_rejected(self):
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0))])
        raw["vertices"][0][2] += 1e-3
        with pytest.raises(MapValidationError, match="non-planar"):
            map_from_dict(raw)

    def test_building_without_faces_rejected(self):
        raw = {"vertices": [[0, 0, 0]], "faces": [], "buildings": [{"id": 5}]}
        with pytest.raises(MapValidationError, match="building 5"):
            map_from_dict(raw)

    def test_roof_rows_are_roof_ring(self, unit_cube_map):
        rows, size = unit_cube_map.roof_rows(np.array([0]))
        assert size.tolist() == [4]
        assert unit_cube_map.roof_vertex[rows].tolist() == [4, 5, 6, 7]

    # the first two used to load truncated, the face as (0, 1, 5, 4) and the
    # building as 0; the third raised OverflowError.  The rest sit at a late
    # index (an entry is ``name`` for index 0, or ``(name, index)``), so the
    # bulk check must hand them to the entry loop that names them.
    @pytest.mark.parametrize("entry, field, value, message", [
        ("faces", "v", [0, 1.9, 5, 4],
         "bad face entry at index 0: 1.9 is not an integer"),
        ("buildings", "id", 0.6,
         "bad building entry at index 0: 0.6 is not an integer"),
        ("buildings", "id", 2 ** 64,
         "vertex or building id beyond 64 bits: .*"),
        (("faces", 7), "v", [True, 1, 5, 4],
         "bad face entry at index 7: True is not an integer"),
        (("faces", 7), "building", False,
         "bad face entry at index 7: False is not an integer"),
        (("buildings", 1), "id", True,
         "bad building entry at index 1: True is not an integer"),
        (("faces", 7), "building", "1",
         "bad face entry at index 7: '1' is not an integer"),
        (("buildings", 1), "id", "1",
         "bad building entry at index 1: '1' is not an integer"),
        (("faces", 7), "v", MISSING, "bad face entry at index 7: 'v'"),
        (("buildings", 1), "id", MISSING,
         "bad building entry at index 1: 'id'"),
        (("faces", 7), "v", 6,
         "bad face entry at index 7: 'int' object is not iterable"),
        (("faces", 7), "v", "0154",
         "bad face entry at index 7: '0' is not an integer"),
        (("faces", 7), "v", [0, 1, 5, 4.5],
         "bad face entry at index 7: 4.5 is not an integer"),
        (("buildings", 1), "id", 2 ** 64,
         "vertex or building id beyond 64 bits: .*")])
    def test_non_integral_id_rejected(self, entry, field, value, message):
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0)),
                              (1, (3.0, 0.0, 4.0, 1.0, 2.0))])
        name, index = (entry, 0) if isinstance(entry, str) else entry
        if value is MISSING:
            del raw[name][index][field]
        else:
            raw[name][index][field] = value
        with pytest.raises(MapValidationError, match=f"^{message}$"):
            map_from_dict(raw)

    # np.array converts the first three to numbers; each used to load, or
    # fail without naming the vertex.  An integer beyond the float range
    # raised a bare OverflowError.
    @pytest.mark.parametrize("index, value, message", [
        (0, ["0", False, "0e0"], "bad vertex entry at index 0: '0' is not a number"),
        (5, [1.0, True, 0.0], "bad vertex entry at index 5: True is not a number"),
        (3, [0.0, None, 1.0], "bad vertex entry at index 3: None is not a number"),
        (6, [float("inf"), 0.0, 0.0], "non-finite vertex coordinate at index 6"),
        (2, [10 ** 400, 0.0, 0.0], "bad vertex entry at index 2: too large"),
        (7, [0.0, 1.0, -2 * 10 ** 308], "bad vertex entry at index 7: too large")])
    def test_non_numeric_coordinate_rejected(self, index, value, message):
        raw = build_map_dict(UNIT_CUBE)
        raw["vertices"][index] = value
        with pytest.raises(MapValidationError, match=f"^{message}$"):
            map_from_dict(raw)

    def test_integral_float_ids_load(self):
        raw = build_map_dict(UNIT_CUBE)
        raw["faces"][0]["v"] = [float(v) for v in raw["faces"][0]["v"]]
        raw["buildings"][0]["id"] = 0.0
        assert map_from_dict(raw).ids.tolist() == [0]

    def test_first_bad_face_is_named(self):
        # faces 0-11 are two valid boxes; only face 13 is non-planar
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0)),
                              (1, (3.0, 0.0, 4.0, 1.0, 2.0))])
        n = len(raw["vertices"])
        raw["vertices"] += [[0.0, 5.0, 0.0], [1.0, 5.0, 0.0], [1.0, 6.0, 0.0],
                            [0.0, 6.0, 0.5]]
        raw["faces"] += [{"building": 1, "v": [n, n + 1, n + 2]},
                         {"building": 1, "v": [n, n + 1, n + 2, n + 3]}]
        with pytest.raises(MapValidationError,
                           match=r"^face 13 is non-planar by 5\.00e-01 m$"):
            map_from_dict(raw)

    def test_collinear_leading_vertices_rejected(self):
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0))])
        n = len(raw["vertices"])
        raw["vertices"] += [[0.0, 5.0, 0.0], [1.0, 5.0, 0.0], [2.0, 5.0, 0.0],
                            [2.0, 6.0, 0.0]]
        raw["faces"].append({"building": 0, "v": [n, n + 1, n + 2, n + 3]})
        with pytest.raises(MapValidationError,
                           match=r"^face 6 has collinear leading vertices$"):
            map_from_dict(raw)

    def test_face_normal_beyond_float_range_rejected(self):
        # finite corners whose normals overflow: 4 NaN walls were stored
        with pytest.raises(MapValidationError,
                           match="^face 0 has a normal beyond the float range$"):
            map_from_dict(build_map_dict([(0, (0, 0, 1e300, 1e300, 1e300))]))

    def test_ring_wall_beyond_float_range_rejected(self):
        # a finite, planar face whose roof-ring wall overflows: it loaded
        # with a NaN ring_dir row and an overflow warning
        with pytest.raises(MapValidationError, match="^face 0 has a ring wall "
                           "beyond the float range$"):
            map_from_dict(RING_OVERFLOW_MAP)

    def test_load_time_topology_matches_per_face_and_per_building(self):
        raw = _rotated_boxes()
        gmap = map_from_dict(raw)
        for fi, f in enumerate(raw["faces"]):
            pts = gmap.vertices[f["v"]]
            nrm = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            assert np.array_equal(gmap.face_normal[fi],
                                  nrm / np.linalg.norm(nrm))
        assert gmap.ids.tolist() == [7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6]
        for pos in range(len(gmap.ids)):
            ring = gmap.roof_vertex[gmap.roof_rows(np.array([pos]))[0]]
            assert ring.tolist() == sorted(ring.tolist())
            assert np.array_equal(gmap.roof_vertex[gmap.roof_owner == pos], ring)
            assert np.array_equal(gmap.roof_xy[gmap.roof_owner == pos],
                                  gmap.vertices[ring, :2])

    @pytest.mark.parametrize("make", [_rotated_boxes, _l_prism,
                                      _shared_wall_pair])
    def test_wall_tables_match_face_walks(self, make):
        # same directions and normals bit for bit and in the same order; the
        # ring-wall order decides the screen wall's ties in link.chain_table
        raw = make()
        gmap = map_from_dict(raw)
        n_walls = n_rows = 0
        for pos, bid in enumerate(gmap.ids.tolist()):
            for row in np.flatnonzero(gmap.roof_owner == pos):
                walls = gmap.ring_dir[gmap.ring_wall_rows(np.array([row]))[0]]
                assert walls.shape[1] == 2
                assert walls.tobytes() == _bits(_ring_neighbors_loop(
                    raw, gmap, bid, gmap.roof_vertex[row]), 2)
                n_walls += len(walls)
                n_rows += 1
            w = gmap.wall_rows([bid])[0]
            normals, points = gmap.wall_normal[w], gmap.wall_point[w]
            loop = _vertical_faces_loop(raw, gmap, bid)
            assert normals.tobytes() == _bits([n for n, _p in loop], 3)
            assert points.tobytes() == _bits([p for _n, p in loop], 3)
        assert n_walls > 0 and n_rows == len(gmap.roof_vertex)

    # Digests of every array the loader builds: a faster way to build the
    # map must reproduce them bit for bit.
    @pytest.mark.parametrize("make, digest", [
        (lambda: _box_grid(7),
         "5d3d2c3a361c1654338d618c47214b3cae2547ca1e72509a550e2f824304f2f3"),
        (_rotated_boxes,
         "e73162150767ab483eaa63736cb418c331498ae144c29cb8026a6fbf4a5f2d5e"),
        (_l_prism,
         "2a028ebb1b31fff5e6ec18b46891960479aacd055c67c54403602237ab8bfaa8"),
        (_shared_wall_pair,
         "7a39ce0cfebba2033ca823aaa40e1a3bed54bec6a796b20c1edd915876d8c30a"),
        (lambda: polygon_city(0),
         "7534e4715ff38c7774f222ff97ab087fae8f7f62b241ccd67b63ab6201537215"),
        (lambda: grid_module().city_map(10, 21), BENCH_CITY10),
        (lambda: _float_ids(grid_module().city_map(10, 21)), BENCH_CITY10),
        (lambda: grid_module().city_map(20, 21),
         "a40bb6c0ae7ba248413a3d2d33465106629ae882d1d36c52345fd3de2fb01e6e"),
        (lambda: grid_module().city_map(40, 21),
         "7b58eef250ecf8b08bcc756ae2bf3af77c7f56fad30fcc6d8ab396559a791455")],
        ids=["grid10", "rotated", "l_prism", "shared_wall", "polygons6",
             "bench_city10", "bench_city10_float_ids", "bench_city20",
             "bench_city40"])
    def test_arrays_are_pinned(self, make, digest):
        assert _array_digest(map_from_dict(make())) == digest


# -- side test ---------------------------------------------------------------


def f_side(p, a, b):
    """Side of ``p`` relative to the horizontal line a->b, by the rule the
    candidate pass applies to the roof table."""
    return int(side_2d(line_2d(p[None, :], a, b)[1])[0])


class TestSide:
    def test_left(self):
        assert f_side(pt(0.5, 1), pt(0, 0), pt(1, 0)) == 1

    def test_right_ignores_height(self):
        assert f_side(pt(0.5, -1, 5), pt(0, 0), pt(1, 0)) == -1

    def test_collinear(self):
        assert f_side(pt(2, 0), pt(0, 0), pt(1, 0)) == 0

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=100)
    def test_antisymmetry(self, px, py, ax, ay, bx, by):
        if (ax - bx) ** 2 + (ay - by) ** 2 < 1e-6:
            return
        s = f_side(pt(px, py), pt(ax, ay), pt(bx, by))
        if s != 0:
            assert f_side(pt(px, py), pt(bx, by), pt(ax, ay)) == -s

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=5),
           finite, finite, finite, finite)
    @settings(max_examples=100)
    def test_line_2d_equals_scalar_formulas(self, pts, ax, ay, bx, by):
        # the per-point expressions the vectorized helper must reproduce, bit
        # for bit; a line with no horizontal length gives NaN t and dist
        t, cross, dist = line_2d(np.array(pts), pt(ax, ay), pt(bx, by))
        dx, dy = bx - ax, by - ay
        with np.errstate(all="ignore"):
            for k, (px, py) in enumerate(pts):
                px, py = np.float64(px), np.float64(py)
                c = dx * (py - ay) - dy * (px - ax)
                np.testing.assert_equal(
                    (t[k], cross[k], dist[k]),
                    (((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy),
                     c, abs(c) / np.hypot(dx, dy)))
        # (3, N) stacks, one line per point (here the line and its reverse
        # in turn), as the candidate pass passes them: each point has the
        # bits of its own one-line call
        flip = np.arange(len(pts)) % 2 == 1
        a, b = pt(ax, ay)[:, None], pt(bx, by)[:, None]
        la, lb = np.where(flip, b, a), np.where(flip, a, b)
        stack = line_2d(np.array(pts), la, lb)
        for k in range(len(pts)):
            one = line_2d(np.array(pts[k:k + 1]), la[:, k], lb[:, k])
            for x, y in zip(stack, one):
                assert x[k:k + 1].tobytes() == y.tobytes()


# -- occlusion ---------------------------------------------------------------


class TestOcclusion:
    def test_segment_through_cube(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 0.5), pt(2, 0.5, 0.5), unit_cube_map)[0] == 1

    def test_segment_above_roof(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 1.5), pt(2, 0.5, 1.5), unit_cube_map)[0] == 0

    def test_grazing_roof_misses(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 1.001), pt(2, 0.5, 1.001),
                       unit_cube_map)[0] == 0

    def test_endpoint_on_face_not_blocked(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 0.5), pt(0.0, 0.5, 0.5), unit_cube_map)[0] == 0

    def test_symmetry(self, canyon_map):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.uniform(-10, 140, 3)
            b = rng.uniform(-10, 140, 3)
            if np.linalg.norm(a - b) < 1e-3:
                continue
            assert f_block(a, b, canyon_map)[0] == f_block(b, a, canyon_map)[0]

    @pytest.mark.parametrize("query", [
        lambda m: m.wall_rows([7]),
    ], ids=["wall_rows"])
    def test_unknown_building_id(self, unit_cube_map, query):
        with pytest.raises(MapValidationError, match="unknown building id 7"):
            query(unit_cube_map)


@pytest.mark.parametrize("given_empty", [False, True])
@pytest.mark.parametrize("n", [0, 4, 5])
def test_sliced_joins_to_one_call(monkeypatch, n, given_empty):
    """``sliced`` runs a function over the rows ``0..n - 1`` in slices of
    ``KERNEL_ROWS`` (4 here) and joins its arrays to those of one call over
    every row, dtypes included; with no rows and ``empty`` given, it returns
    ``empty`` and never calls the function."""
    def fn(r):      # row by row: filtered ints, floats and booleans
        return r[r % 3 != 0], 0.5 * r, r % 2 == 0

    monkeypatch.setattr(geometry, "KERNEL_ROWS", 4)
    slices = []
    empty = (np.empty(0, np.int64), np.empty(0), np.empty(0, bool))
    got = sliced(n, lambda r: slices.append(r.tolist()) or fn(r),
                 empty if given_empty else None)
    want = fn(np.arange(n))
    assert [x.dtype for x in got] == [x.dtype for x in want]
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    assert slices == ([] if n == 0 and given_empty else
                      {0: [[]], 4: [[0, 1, 2, 3]], 5: [[0, 1, 2, 3], [4]]}[n])


def _random_boxes(rng, max_boxes=10):
    boxes = []
    for bid in range(int(rng.integers(1, max_boxes + 1))):
        x0, y0 = rng.uniform(-60, 60, 2)
        w, d = rng.uniform(2, 30, 2)
        h = rng.uniform(2, 25)
        boxes.append((bid, (x0, y0, x0 + w, y0 + d, h)))
    return boxes


class TestOcclusionOracle:
    def test_agreement_on_random_scenes(self):
        """f_block vs an independent brute-force intersection oracle.

        10^4 random segments across random scenes of up to 10 boxes; grazing
        segments (slab margin under 1e-6) are excluded as degenerate.
        """
        rng = np.random.default_rng(2024)
        n_checked = 0
        for _scene in range(25):
            boxes = _random_boxes(rng)
            gmap = build_map(boxes)
            tris = (gmap.tri_v0, gmap.tri_v1, gmap.tri_v2)
            slabs = [(np.array([b[0], b[1], 0.0]), np.array([b[2], b[3], b[4]]))
                     for _bid, b in boxes]
            a = rng.uniform(-80, 80, (400, 3))
            b = rng.uniform(-80, 80, (400, 3))
            a[:, 2] = rng.uniform(0.1, 30, 400)
            b[:, 2] = rng.uniform(0.1, 30, 400)
            for i in range(400):
                if np.linalg.norm(a[i] - b[i]) < 1e-2:
                    continue
                blocked, _idx, _t, degen = segment_blocked_by_boxes(
                    a[i], b[i], slabs)
                if degen:
                    continue
                tri_blocked = segment_blocked_by_triangles(a[i], b[i], *tris)
                got = f_block(a[i], b[i], gmap)[0]
                assert got == int(blocked) == int(tri_blocked)
                n_checked += 1
        assert n_checked >= 8000


class TestValidation:
    def test_degenerate_segment(self):
        with pytest.raises(NumericalDomainError,
                           match="degenerate segment: endpoints coincide"):
            identify_position(pt(1, 1, 1), pt(1, 1, 1), build_map(UNIT_CUBE))

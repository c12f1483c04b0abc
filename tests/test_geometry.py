"""Geometry model and predicate tests, including the brute-force occlusion
oracle on random box scenes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_map, build_map_dict
from oracles import segment_blocked_by_boxes, segment_blocked_by_triangles
from urbanprop.errors import MapValidationError, NumericalDomainError
from urbanprop.geometry import (Point3, Segment3, f_block, f_proj, f_side,
                                line_2d, map_from_dict, segment_face_intersect)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def pt(x, y, z=0.0):
    return Point3(float(x), float(y), float(z))


# -- loading / validation ----------------------------------------------------


class TestMapLoading:
    def test_unit_cube(self, unit_cube_map):
        assert len(unit_cube_map.buildings) == 1
        assert len(unit_cube_map.faces) == 6
        assert unit_cube_map.vertices.shape == (8, 3)

    def test_dangling_vertex_reference(self):
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0))])
        raw["faces"][0]["v"] = [0, 1, 99]
        with pytest.raises(MapValidationError, match="face 0"):
            map_from_dict(raw)

    def test_empty_map_is_valid(self, empty_map):
        assert empty_map.buildings == []
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

    def test_top_vertices_are_roof_ring(self, unit_cube_map):
        ids = unit_cube_map.top_vertices(0)
        assert sorted(ids.tolist()) == [4, 5, 6, 7]

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

    def test_load_time_topology_matches_per_face_and_per_building(self):
        # boxes turned by different angles, so no wall normal is axis-aligned
        boxes = [(bid, (50.0 * bid, 3.0 * bid, 50.0 * bid + 30.0 + bid,
                        20.0 + 2.0 * bid, 15.0)) for bid in range(12)]
        raw = build_map_dict(boxes[7:] + boxes[:7])
        for k in range(0, len(raw["vertices"]), 8):
            c, s = np.cos(0.1 + 0.37 * k), np.sin(0.1 + 0.37 * k)
            raw["vertices"][k:k + 8] = [[c * x - s * y, s * x + c * y, z]
                                        for x, y, z in raw["vertices"][k:k + 8]]
        gmap = map_from_dict(raw)
        for fi, f in enumerate(gmap.faces):
            pts = gmap.vertices[list(f.vertex_ids)]
            nrm = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            assert np.array_equal(gmap.face_normal[fi],
                                  nrm / np.linalg.norm(nrm))
        assert gmap.ids.tolist() == gmap.building_ids() == [7, 8, 9, 10, 11,
                                                            0, 1, 2, 3, 4, 5, 6]
        for pos, bid in enumerate(gmap.building_ids()):
            ring = gmap.top_vertices(bid)
            assert ring.tolist() == sorted(ring.tolist())
            assert np.array_equal(gmap.roof_vertex[gmap.roof_owner == pos], ring)
            assert np.array_equal(gmap.roof_xy[gmap.roof_owner == pos],
                                  gmap.vertices[ring, :2])


# -- projection --------------------------------------------------------------


class TestProjection:
    def test_midpoint(self):
        p, t = f_proj(pt(1, 1), Segment3(pt(0, 0), pt(2, 0)))
        assert (p.x, p.y, p.z) == (1.0, 0.0, 0.0)
        assert t == 0.5

    def test_endpoint_identity(self):
        p, t = f_proj(pt(0, 0), Segment3(pt(0, 0), pt(1, 1)))
        assert (p.x, p.y, p.z) == (0.0, 0.0, 0.0)
        assert t == 0.0

    def test_unclamped_parameter(self):
        p, t = f_proj(pt(3, 4), Segment3(pt(0, 0), pt(1, 0)))
        assert (p.x, p.y) == (3.0, 0.0)
        assert t == 3.0

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=100)
    def test_idempotent_and_orthogonal(self, px, py, pz, bx, by, bz):
        if abs(bx) + abs(by) + abs(bz) < 1e-6:
            return
        seg = Segment3(pt(0, 0, 0), Point3(bx, by, bz))
        p = Point3(px, py, pz)
        q, _ = f_proj(p, seg)
        q2, _ = f_proj(q, seg)
        assert np.linalg.norm(q2.as_array() - q.as_array()) < 1e-9
        resid = p.as_array() - q.as_array()
        assert abs(resid @ seg.direction()) < 1e-6


# -- side test ---------------------------------------------------------------


class TestSide:
    def test_left(self):
        assert f_side(pt(0.5, 1), Segment3(pt(0, 0), pt(1, 0))) == 1

    def test_right_ignores_height(self):
        assert f_side(pt(0.5, -1, 5), Segment3(pt(0, 0), pt(1, 0))) == -1

    def test_collinear(self):
        assert f_side(pt(2, 0), Segment3(pt(0, 0), pt(1, 0))) == 0

    @given(finite, finite, finite, finite, finite, finite)
    @settings(max_examples=100)
    def test_antisymmetry(self, px, py, ax, ay, bx, by):
        if (ax - bx) ** 2 + (ay - by) ** 2 < 1e-6:
            return
        fwd = Segment3(pt(ax, ay), pt(bx, by))
        rev = Segment3(pt(bx, by), pt(ax, ay))
        s = f_side(pt(px, py), fwd)
        if s != 0:
            assert f_side(pt(px, py), rev) == -s

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


# -- occlusion ---------------------------------------------------------------


class TestOcclusion:
    def test_segment_through_cube(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 0.5), pt(2, 0.5, 0.5), unit_cube_map) == 1

    def test_segment_above_roof(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 1.5), pt(2, 0.5, 1.5), unit_cube_map) == 0

    def test_face_intersect_point(self, unit_cube_map):
        # face 3 is the x = 0 wall of the conftest box builder
        seg = Segment3(pt(-1, 0.5, 0.5), pt(2, 0.5, 0.5))
        hit = segment_face_intersect(seg, 3, unit_cube_map)
        assert hit is not None
        assert np.allclose([hit.x, hit.y, hit.z], [0.0, 0.5, 0.5])

    def test_grazing_roof_misses(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 1.001), pt(2, 0.5, 1.001), unit_cube_map) == 0

    def test_endpoint_on_face_not_blocked(self, unit_cube_map):
        assert f_block(pt(-1, 0.5, 0.5), pt(0.0, 0.5, 0.5), unit_cube_map) == 0

    def test_symmetry(self, canyon_map):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = Point3(*rng.uniform(-10, 140, 3))
            b = Point3(*rng.uniform(-10, 140, 3))
            if np.linalg.norm(a.as_array() - b.as_array()) < 1e-3:
                continue
            assert f_block(a, b, canyon_map) == f_block(b, a, canyon_map)

    def test_building_subset(self, canyon_map):
        a, b = pt(0, 22, 2), pt(140, 22, 2)   # down the left building row
        assert f_block(a, b, canyon_map, building_ids=[0]) == 1
        assert f_block(a, b, canyon_map, building_ids=[3, 4]) == 0


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
            tris = list(zip(gmap.tri_v0, gmap.tri_v1, gmap.tri_v2))
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
                tri_blocked = segment_blocked_by_triangles(a[i], b[i], tris)
                got = f_block(Point3(*a[i]), Point3(*b[i]), gmap)
                assert got == int(blocked) == int(tri_blocked)
                n_checked += 1
        assert n_checked >= 8000


class TestValidation:
    def test_degenerate_segment(self):
        with pytest.raises(NumericalDomainError):
            Segment3(pt(1, 1, 1), pt(1, 1, 1))

    def test_non_finite_point(self):
        with pytest.raises(NumericalDomainError):
            Point3(np.nan, 0.0, 0.0)

"""Building-identification tests: LOS/NLOS classification, breakpoint rules,
candidate sides and visibility filtering, checked against an independent
brute-force oracle on randomized box scenes."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (CORNER_BOXES, build_map, build_map_dict, canyon_route,
                      corner_route, roof_ring)
from identity import prism
from oracles import OracleScene, oracle_identify
from test_geometry import _rotated_boxes
from test_kernels import box_scenes, dense
from urbanprop import kernels
from urbanprop.errors import DegenerateGeometryError, NumericalDomainError
from urbanprop.geometry import EPS_HIT, line_2d, map_from_dict, side_2d
from urbanprop.identify import (EPS_TIE, LinkClassification, VisibilitySet,
                                classify_link, identify_position,
                                initial_identification, visible_identification)
from urbanprop.link import chain_table


def pt(x, y, z=2.0):
    return np.array([x, y, z], dtype=np.float64)


def classify_one(tx, rx, gmap):
    """``classify_link`` of the one-position route ``[rx]``."""
    cls, = classify_link(tx, np.array([rx]), gmap)
    return cls


# -- LOS / NLOS classification ----------------------------------------------


class TestClassifyLink:
    def test_empty_map_is_los(self, empty_map):
        cls = classify_one(pt(0, 0), pt(100, 50), empty_map)
        assert cls.los and cls.breakpoint is None

    def test_cube_on_segment_blocks(self, unit_cube_map):
        cls = classify_one(pt(-2, 0.5, 0.5), pt(3, 0.5, 0.5), unit_cube_map)
        assert not cls.los
        assert cls.blocking_building == 0
        assert cls.breakpoint is not None

    def test_offset_cube_does_not_block(self, unit_cube_map):
        cls = classify_one(pt(-2, 3, 0.5), pt(3, 3, 0.5), unit_cube_map)
        assert cls.los

    def test_invariant_enforced(self):
        from urbanprop.identify import LinkClassification
        with pytest.raises(ValueError):
            LinkClassification(True, breakpoint=pt(0, 0))
        with pytest.raises(ValueError):
            LinkClassification(False)


class TestBreakpoint:
    def test_corner_scene_picks_nearest_corner(self, corner_map, tx):
        # around the corner: building 0 blocks; of its roof corners on the
        # RX side of the hit wall, (20, 8) lies closest to the TX-RX line
        rx = pt(59.0, 14.0)
        cls = classify_one(tx, rx, corner_map)
        assert not cls.los and cls.blocking_building == 0
        bp = cls.breakpoint
        assert (bp[0], bp[1]) == (20.0, 8.0)
        assert bp[2] == pytest.approx(2.0)

    def test_single_corner_cube(self):
        # one cube at a street corner: the exhaustive check over its four
        # roof corners selects the corner facing the street intersection
        gmap = build_map([(0, (60.0, 10.0, 90.0, 40.0, 12.0))])
        tx, rx = pt(0.0, 0.0), pt(80.0, 45.0)
        cls = classify_one(tx, rx, gmap)
        assert not cls.los
        dists = {(cx, cy): abs(80.0 * cy - 45.0 * cx) / np.hypot(80.0, 45.0)
                 for cx in (60.0, 90.0) for cy in (10.0, 40.0)}
        best = min(dists, key=dists.get)
        assert tuple(cls.breakpoint[:2]) == best == (60.0, 40.0)

    def test_breakpoint_height_follows_line(self, corner_map):
        tx = pt(0.0, 0.0)
        rx = pt(59.0, 14.0, 10.0)
        cls = classify_one(tx, rx, corner_map)
        bp = cls.breakpoint
        # height is taken on the TX-RX line at the corner's projected position
        t = (bp[0] * rx[0] + bp[1] * rx[1]) / (rx[0] ** 2 + rx[1] ** 2)
        assert bp[2] == pytest.approx(2.0 + (10.0 - 2.0) * t, abs=1e-9)

    def test_symmetric_slab_tie_rule(self):
        # slab centred on the line: front/back corners on each side tie in
        # distance; left side wins, then the lower vertex index
        gmap = build_map([(0, (10.0, -5.0, 20.0, 5.0, 8.0))])
        tx, rx = pt(0.0, 0.0), pt(30.0, 0.0)
        bp = classify_one(tx, rx, gmap).breakpoint
        # left (+y) corners are vertex ids 6 (20,5) and 7 (10,5); id 6 wins
        assert (bp[0], bp[1]) == (20.0, 5.0)

    def test_vertical_link_has_no_breakpoint(self):
        # the roof blocks a TX-RX line with no horizontal length; the
        # breakpoint height came out NaN and failed as a bare domain error
        gmap = build_map([(0, (0.0, 0.0, 10.0, 10.0, 10.0))])
        with pytest.raises(DegenerateGeometryError,
                           match="^the TX-RX line has no horizontal length"):
            classify_one(pt(5, 5, 20), pt(5, 5, 5), gmap)

    def test_no_corner_on_rx_side_is_checked_first(self):
        # building 0 is a low wall across the line plus a tall tower behind
        # the TX, so its roof ring is the tower's top only and lies on the
        # TX side of every wall face; a vertical link through the wall's
        # roof also has no horizontal length, and the corner error wins
        raw = build_map_dict([(0, (10.0, -10.0, 12.0, 10.0, 5.0)),
                              (1, (-5.0, 20.0, -3.0, 22.0, 30.0))])
        raw["faces"] = [{**f, "building": 0} for f in raw["faces"]]
        raw["buildings"] = [{"id": 0}]
        gmap = map_from_dict(raw)
        for tx, rx in ((pt(0.0, 0.0), pt(20.0, 0.0)),
                       (pt(11.0, 0.0, 20.0), pt(11.0, 0.0, 1.0))):
            with pytest.raises(DegenerateGeometryError, match="^building 0 has "
                               "no roof corner on the RX side of the hit face$"):
                classify_one(tx, rx, gmap)

    def test_chained_near_ties_keep_the_lower_id(self):
        # three right-side corners 0.6e-9 m apart: (16, -5 - 0.6e-9) and
        # (20, -5) lie within EPS_TIE of the nearest, (12, -5 - 1.2e-9) does
        # not; the lower vertex id wins among the two.  A corner-by-corner
        # scan with a tolerance comparator picked (20, -5).
        xy = [(12.0, -5.0 - 1.2e-9), (16.0, -5.0 - 0.6e-9), (20.0, -5.0),
              (20.0, 8.0), (10.0, 8.0), (10.0, -5.0 - 1.2e-9)]
        verts, faces = prism(0, xy, 20.0, 0)
        for f in faces[6:]:
            # roof and floor listed from vertex 3: the leading three of
            # the nearly collinear run would fail the planarity check
            f["v"] = f["v"][3:] + f["v"][:3]
        gmap = map_from_dict({"vertices": verts, "faces": faces,
                              "buildings": [{"id": 0}]})
        bp = classify_one(pt(0.0, 0.0), pt(40.0, 0.0), gmap).breakpoint
        assert bp.tolist() == [16.0, -5.0 - 0.6e-9, 2.0]
        assert _scan_breakpoint(pt(0.0, 0.0), pt(40.0, 0.0),
                                gmap.first_hit(pt(0.0, 0.0), pt(40.0, 0.0))[1][0],
                                gmap)[0].tolist() == [20.0, -5.0, 2.0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_corner_scan(self, data):
        """Bit for bit the per-corner scan wherever the eligible corners
        within 2 EPS_TIE of each other tie to 1e-12 m, the only places the
        scan's comparator is transitive."""
        gmap = map_from_dict(data.draw(prism_cities()))
        coord = st.one_of(st.integers(-25, 25).map(float),
                          st.floats(-25.0, 25.0))
        for _ in range(4):
            pos = data.draw(st.integers(0, len(gmap.ids) - 1))
            lo, hi = gmap.box_lo[:, pos], gmap.box_hi[:, pos]
            aim = np.array([data.draw(st.floats(a, b)) for a, b in zip(lo, hi)])
            tx = np.array([data.draw(coord), data.draw(coord),
                           data.draw(st.floats(0.5, 20.0))])
            if data.draw(st.booleans()):
                # a line parallel to the x axis at an integer y through the
                # box: equidistant corners on unturned footprints
                tx[1] = aim[1] = data.draw(st.integers(
                    int(np.ceil(lo[1])), int(np.floor(hi[1]))))
            rx = aim + data.draw(st.floats(0.1, 2.0)) * (aim - tx)
            tri = gmap.first_hit(tx, rx)[1][0]
            if tri < 0:
                continue
            want, dist = _scan_breakpoint(tx, rx, tri, gmap)
            gap = np.abs(dist[:, None] - dist)
            if ((gap <= 2.0 * EPS_TIE) & (gap > 1e-12)).any():
                continue
            got = _outcome(classify_one, tx, rx, gmap)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.breakpoint.tobytes() == want.tobytes()


def _scan_breakpoint(tx, rx, tri, gmap):
    """The breakpoint of a link whose first hit face is triangle ``tri``,
    as the corner-by-corner scan it once was, with a tolerance comparator on
    distance, then (-side, vertex id): the breakpoint or the error message,
    and the eligible corners' distances."""
    blocking_id = int(gmap.ids[gmap.tri_building[tri]])
    v0, v1, v2 = gmap.triangle(tri)
    nrm = np.cross(v1 - v0, v2 - v0)
    offset = nrm @ v0
    rx_sign = np.sign(rx @ nrm - offset)
    ring = roof_ring(gmap, blocking_id)
    corners = gmap.vertices[ring]
    tline, cross, dist = line_2d(corners, tx, rx)
    left = side_2d(cross)
    best, eligible = None, []
    for k, vid in enumerate(ring):
        if rx_sign != 0 and np.sign(corners[k] @ nrm - offset) == -rx_sign:
            continue
        eligible.append(dist[k])
        key = (dist[k], -left[k], int(vid))
        if best is None or _tie_lt(key, best[0]):
            best = (key, k)
    if best is None:
        return (f"building {blocking_id} has no roof corner on the RX side "
                f"of the hit face"), np.array(eligible)
    k = best[1]
    z = tx[2] + tline[k] * (rx[2] - tx[2])
    if not np.isfinite(z):
        return ("the TX-RX line has no horizontal length; no breakpoint",
                np.array(eligible))
    return np.array([corners[k, 0], corners[k, 1], z]), np.array(eligible)


def _tie_lt(ka, kb):
    # lexicographic with a tolerance on the leading distance component
    if ka[0] < kb[0] - EPS_TIE:
        return True
    if ka[0] > kb[0] + EPS_TIE:
        return False
    return ka[1:] < kb[1:]


@st.composite
def prism_cities(draw):
    """Map dict of 1-5 prisms on integer footprints (boxes, boxes with a
    collinear vertex mid-edge, hexagons, L-shapes), integer heights, the
    whole city turned by 0 or a random angle; equal distances abound."""
    verts, faces = [], []
    n = draw(st.integers(1, 5))
    for bid in range(n):
        x0, y0 = draw(st.integers(-20, 15)), draw(st.integers(-20, 15))
        x1, y1 = x0 + draw(st.integers(3, 10)), y0 + draw(st.integers(3, 10))
        kind = draw(st.sampled_from(["box", "mid-edge", "hexagon", "L"]))
        if kind == "box":
            xy = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        elif kind == "mid-edge":
            xy = [(x0, y0), (x1, y0), (x1, y1),
                  (draw(st.integers(x0 + 1, x1 - 1)), y1), (x0, y1)]
        elif kind == "hexagon":
            ym = draw(st.integers(y0 + 1, y1 - 1))
            xy = [(x0 + 1, y0), (x1 - 1, y0), (x1, ym), (x1 - 1, y1),
                  (x0 + 1, y1), (x0, ym)]
        else:
            a = draw(st.integers(1, min(x1 - x0, y1 - y0) - 1))
            xy = [(x0, y0), (x1, y0), (x1, y0 + a), (x0 + a, y0 + a),
                  (x0 + a, y1), (x0, y1)]
        v, f = prism(bid, [(float(x), float(y)) for x, y in xy],
                     float(draw(st.integers(1, 15))), len(verts))
        verts += v
        faces += f
    turn = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * np.pi)))
    c, s = np.cos(turn), np.sin(turn)
    verts = [[c * x - s * y, s * x + c * y, z] for x, y, z in verts]
    return {"vertices": verts, "faces": faces,
            "buildings": [{"id": bid} for bid in range(n)]}


def _two_query_classification(tx, rx, gmap):
    """``(blocking building, breakpoint)`` as LOS classification once found
    them, with two occlusion queries: the building owning the nearest hit
    face of the whole map, then the nearest hit face of that building
    alone, which anchors the corner-by-corner scan (a breakpoint or an error
    message); ``(None, None)`` for a clear link.  On box scenes no three
    eligible corners chain near-ties, so the scan's comparator is exact."""
    tri = gmap.first_hit(tx, rx)[1][0]
    if tri < 0:
        return None, None
    bid = int(gmap.ids[gmap.tri_building[tri]])
    tris = np.flatnonzero(gmap.tri_building == gmap.tri_building[tri])
    t = kernels.segment_triangles(tx, rx, *gmap.triangle(tris), EPS_HIT)
    tri = int(tris[np.argmin(t)])     # the lowest id of equally near hits
    return bid, _scan_breakpoint(tx, rx, tri, gmap)[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateGeometryError as exc:
        return str(exc)


def _assert_single_query_agrees(tx, rx, gmap):
    """``classify_link``'s one whole-map query names the same building and
    anchors the same breakpoint, bit for bit, as the two-query version.
    Returns True for a blocked link."""
    bid, bp = _two_query_classification(tx, rx, gmap)
    got = _outcome(classify_one, tx, rx, gmap)
    if bid is None:
        assert got.los
        return False
    if isinstance(bp, str):
        assert got == bp
        return True
    assert not got.los and got.blocking_building == bid
    assert got.breakpoint.tobytes() == bp.tobytes()
    return True


class TestSingleLosQuery:
    @pytest.mark.parametrize("scene", ["canyon", "corner"])
    def test_fixture_routes(self, scene, canyon_map, corner_map, tx):
        gmap, route = {"canyon": (canyon_map, canyon_route()),
                       "corner": (corner_map, corner_route())}[scene]
        blocked = sum(_assert_single_query_agrees(tx, rx, gmap)
                      for rx in route)
        if scene == "corner":
            assert blocked >= 3

    @settings(max_examples=200, deadline=None)
    @given(box_scenes(), st.data())
    def test_random_box_cities(self, boxes, data):
        """Each RX lies beyond a point of a building's box, seen from the TX,
        so most links are blocked."""
        gmap = build_map(boxes)
        coord = st.one_of(st.integers(-25, 25).map(float),
                          st.floats(-25.0, 25.0))
        for _ in range(4):
            tx = np.array([data.draw(coord), data.draw(coord),
                           data.draw(st.floats(0.5, 20.0))])
            _bid, (x0, y0, x1, y1, h) = data.draw(st.sampled_from(boxes))
            aim = np.array([data.draw(st.floats(x0, x1)),
                            data.draw(st.floats(y0, y1)),
                            data.draw(st.floats(0.0, h))])
            rx = aim + data.draw(st.floats(0.1, 2.0)) * (aim - tx)
            _assert_single_query_agrees(tx, rx, gmap)


# -- candidate sides ---------------------------------------------------------


class TestInitialIdentification:
    def test_canyon_flanks(self, canyon_map, tx):
        (cls, segs), = initial_identification(tx, [pt(95, 0)], canyon_map)
        assert cls.los
        assert segs[0].left == [0, 1]
        assert segs[0].right == [3]

    def test_far_building_excluded_by_corridor(self, tx):
        gmap = build_map([(0, (40.0, 300.0, 60.0, 320.0, 10.0))])
        (cls, segs), = initial_identification(tx, [pt(100, 0)], gmap,
                                              corridor_width=100.0)
        assert cls.los and segs[0].left == [] and segs[0].right == []

    def test_projection_window_excludes_behind(self, canyon_map, tx):
        # receiver before the first block: no roof vertex projects into [0,1]
        (_cls, segs), = initial_identification(tx, [pt(15, 0)], canyon_map)
        assert segs[0].left == [] and segs[0].right == []

    def test_corner_nlos_split(self, corner_map, tx):
        route = [pt(59.0, 30.0)]
        (cls, segs), = initial_identification(tx, route, corner_map)
        assert not cls.los
        assert len(segs) == 2
        assert segs[1].right == []
        # TX-bp runs down street A: building 0 left, building 1 right
        assert segs[0].left == [0] and segs[0].right == [1]
        # bp-RX runs up street B: left side is the west row
        assert 0 in segs[1].left

    def test_empty_route_rejected(self, canyon_map, tx):
        with pytest.raises(ValueError, match="route"):
            initial_identification(tx, [], canyon_map)

    def test_bad_corridor_rejected(self, canyon_map, tx):
        with pytest.raises(ValueError, match="corridor"):
            initial_identification(tx, [pt(5, 0)], canyon_map,
                                   corridor_width=0.0)


# -- visibility filtering ----------------------------------------------------


class TestVisibleIdentification:
    def test_both_flanks_visible(self, canyon_map, tx):
        vis = identify_position(tx, pt(95, 0), canyon_map)
        flat = vis.flat_visible()
        assert flat["left"] == [0, 1] and flat["right"] == [3]

    def test_shadowed_building_excluded(self, tx):
        # two boxes stacked in depth on the left; the nearer one is taller
        # and spans the farther one's extent, so the far box is occluded
        gmap = build_map([
            (0, (30.0, 10.0, 70.0, 20.0, 30.0)),
            (1, (35.0, 30.0, 65.0, 40.0, 10.0)),
        ])
        vis = identify_position(tx, pt(100, 0), gmap)
        flat = vis.flat_visible()
        assert flat["left"] == [0]
        assert 1 in vis.flat_sides()["left"]

    def test_visible_subset_of_sides(self, corner_map, tx):
        for rx in corner_route():
            vis = identify_position(tx, rx, corner_map)
            sides, seen = vis.flat_sides(), vis.flat_visible()
            assert set(seen["left"]) <= set(sides["left"])
            assert set(seen["right"]) <= set(sides["right"])

    def test_near_to_far_order(self, tx):
        gmap = build_map([
            (0, (30.0, 40.0, 70.0, 50.0, 10.0)),   # farther from the line
            (1, (30.0, 10.0, 70.0, 20.0, 3.0)),    # nearer, low: no occlusion
        ])
        vis = identify_position(tx, pt(100, 0), gmap)
        assert vis.flat_visible()["left"] == [1, 0]

    def test_determinism(self, corner_map, tx):
        a = identify_position(tx, pt(59, 30), corner_map)
        b = identify_position(tx, pt(59, 30), corner_map)
        assert a.flat_sides() == b.flat_sides()
        assert a.flat_visible() == b.flat_visible()

    def test_empty_map_position(self, empty_map, tx):
        vis = identify_position(tx, pt(50, 0), empty_map)
        assert vis.classification.los
        assert vis.flat_visible() == {"left": [], "right": []}


class TestLayeringSoundness:
    def test_invisible_buildings_are_inert(self, tx):
        """Deleting any building outside the visible set never changes it."""
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            boxes = []
            for bid in range(n):
                x0, y0 = rng.uniform(-60, 60, 2)
                w, d = rng.uniform(4, 30, 2)
                boxes.append((bid, (round(x0, 1), round(y0, 1),
                                    round(x0 + w, 1), round(y0 + d, 1),
                                    float(round(rng.uniform(3, 20), 1)))))
            gmap = build_map(boxes)
            rx = pt(rng.uniform(-70, 70), rng.uniform(-70, 70))
            try:
                vis = identify_position(tx, rx, gmap)
            except DegenerateGeometryError:
                continue
            flat = vis.flat_visible()
            visible = set(flat["left"]) | set(flat["right"])
            cls = vis.classification
            keep = visible | ({cls.blocking_building} if not cls.los else set())
            for bid in sorted(set(b for b, _ in boxes) - keep):
                sub = build_map([bx for bx in boxes if bx[0] != bid])
                flat2 = identify_position(tx, rx, sub).flat_visible()
                assert flat2 == flat, f"removing inert building {bid} changed the set"


class TestPerPositionIndependence:
    def test_batch_equals_single(self, corner_map, tx):
        route = corner_route()
        batch = initial_identification(tx, route, corner_map)
        # a (P, 3) array, as a Route holds the positions, reads the same
        as_array = initial_identification(tx, np.array(route), corner_map)
        assert ([(c.los, [(s.left, s.right) for s in segs]) for c, segs in as_array]
                == [(c.los, [(s.left, s.right) for s in segs]) for c, segs in batch])
        for r, (cls, segs) in zip(route, batch):
            (cls1, segs1), = initial_identification(tx, [r], corner_map)
            assert cls1.los == cls.los
            assert [s.left for s in segs1] == [s.left for s in segs]
            assert [s.right for s in segs1] == [s.right for s in segs]


# -- route identification against the per-position passes ------------------


def _segment_candidates(a, b, gmap, corridor_width, left_only=False):
    """Candidate selection as it was: one pass over the whole roof-vertex
    table per sub-segment."""
    t, cross, dist = line_2d(gmap.roof_xy, a, b)
    owner = gmap.roof_owner
    kept = (t >= 0.0) & (t <= 1.0) & (dist <= corridor_width)
    n_buildings = len(gmap.ids)
    flanking = np.bincount(owner[kept], minlength=n_buildings) > 0
    votes = np.bincount(owner[kept], side_2d(cross[kept]), minlength=n_buildings)
    left = flanking & (votes >= 0)
    right = flanking & (votes < 0) & (not left_only)
    rows = np.flatnonzero((left | right)[owner])
    rows = rows[np.lexsort((dist[rows], owner[rows]))]
    rows = rows[np.diff(owner[rows], prepend=-1) != 0]
    corner = dict(zip(gmap.ids[owner[rows]].tolist(), zip(
        dist[rows].tolist(), rows.tolist(), t[rows].tolist())))
    return gmap.ids[left].tolist(), gmap.ids[right].tolist(), corner


def _per_position_identification(tx, route, gmap, corridor_width):
    """``initial_identification`` as it was, position by position, each a
    one-position route: each
    position's classification and its sub-segments' ``(a, b, left, right,
    corner)``, or the message of the first ``DegenerateGeometryError``."""
    out = []
    for r in route:
        cls = _outcome(classify_one, tx, r, gmap)
        if isinstance(cls, str):
            return cls
        ends = ([(tx, r, False)] if cls.los else
                [(tx, cls.breakpoint, False), (cls.breakpoint, r, True)])
        out.append((cls, [(a, b, *_segment_candidates(a, b, gmap, corridor_width,
                                                      left_only))
                          for a, b, left_only in ends]))
    return out


def _bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def _assert_route_identification(tx, route, gmap, corridor_width=100.0):
    """One ``initial_identification`` over the route equals the per-position
    passes: classifications, breakpoint and end bits, side lists and corner
    records, key order included.  Returns the number of NLOS positions."""
    want = _per_position_identification(tx, route, gmap, corridor_width)
    got = _outcome(initial_identification, tx, np.array(route), gmap,
                   corridor_width)
    if isinstance(want, str):
        assert got == want
        return 0
    assert len(got) == len(want)
    for (cls, segs), (cls0, segs0) in zip(got, want):
        assert (cls.los, cls.blocking_building, _bits(cls.breakpoint)) == (
            cls0.los, cls0.blocking_building, _bits(cls0.breakpoint))
        assert len(segs) == len(segs0)
        for sub, (a, b, left, right, corner) in zip(segs, segs0):
            assert (_bits(sub.a), _bits(sub.b)) == (_bits(a), _bits(b))
            assert (sub.left, sub.right) == (left, right)
            assert [(k, _bits(v[0]), v[1], _bits(v[2]))
                    for k, v in sub.corner.items()] == [
                (k, _bits(v[0]), v[1], _bits(v[2])) for k, v in corner.items()]
    return sum(not cls.los for cls, _segs in got)


class TestRouteIdentification:
    @pytest.mark.parametrize("scene", ["canyon", "corner", "rotated", "grid"])
    def test_fixture_routes(self, scene, canyon_map, corner_map, tx):
        gmap, tx, route = _fixture_scene(scene, canyon_map, corner_map, tx)
        nlos = _assert_route_identification(tx, route, gmap)
        if scene in ("corner", "grid"):
            assert nlos >= 3

    def test_route_rows_equal_one_position_routes(self, corner_map, tx):
        """Each row of a route's classification is that of its position
        alone, and a (3,) point is no route."""
        route = np.array(corner_route())
        batch = classify_link(tx, route, corner_map)
        assert isinstance(batch, list) and len(batch) == len(route)
        for rx, cls in zip(route, batch):
            one = classify_one(tx, rx, corner_map)
            assert (one.los, one.blocking_building, _bits(one.breakpoint)) == (
                cls.los, cls.blocking_building, _bits(cls.breakpoint))
        for bad in (route[0], route[:, :2], route[None]):
            with pytest.raises(ValueError, match=r"\(P, 3\)"):
                classify_link(tx, bad, corner_map)

    @settings(max_examples=150, deadline=None)
    @given(box_scenes(), st.data())
    def test_random_box_cities(self, boxes, data):
        """Routes of 1-6 RX aimed through the boxes, so most links are
        blocked, at a corridor width from 1 to 100 m."""
        gmap = build_map(boxes)
        coord = st.one_of(st.integers(-25, 25).map(float),
                          st.floats(-25.0, 25.0))
        tx = np.array([data.draw(coord), data.draw(coord),
                       data.draw(st.floats(0.5, 20.0))])
        route = []
        for _ in range(data.draw(st.integers(1, 6))):
            _bid, (x0, y0, x1, y1, h) = data.draw(st.sampled_from(boxes))
            aim = np.array([data.draw(st.floats(x0, x1)),
                            data.draw(st.floats(y0, y1)),
                            data.draw(st.floats(0.0, h))])
            route.append(aim + data.draw(st.floats(0.1, 2.0)) * (aim - tx))
        width = data.draw(st.one_of(st.integers(1, 100).map(float),
                                    st.floats(1.0, 100.0)))
        _assert_route_identification(tx, route, gmap, width)

    @pytest.mark.parametrize("width", [10.0, 25.0])
    def test_vertices_on_the_corridor_edge(self, width):
        """Roof vertices at exactly ``dist == corridor_width`` and at the
        line parameters t = 0 and t = 1 count; so a cull that trims the
        corridor by any amount drops them."""
        tx, rx = pt(0.0, 0.0), pt(100.0, 0.0)
        boxes = [(0, (-20.0, width, 0.0, width + 10.0, 10.0)),     # t = 0
                 (1, (100.0, -width - 10.0, 120.0, -width, 10.0)),  # t = 1
                 (2, (40.0, width, 60.0, width + 10.0, 10.0)),
                 (3, (40.0, -width - 10.0, 60.0, -width, 10.0)),
                 (4, (-30.0, -width - 5.0, -20.0, -width, 10.0)),   # t < 0
                 (5, (70.0, 3.0, 72.0, 8.0, 20.0))]     # blocks (100, 8)
        gmap = build_map(boxes)
        route = [rx, pt(48.0, 0.0), pt(100.0, 8.0), pt(100.0, -3.0)]
        assert _assert_route_identification(tx, route, gmap, width) == 1
        (_cls, (sub,)), (_cls, (near,)) = initial_identification(
            tx, route[:2], gmap, width)
        assert sub.left == [0, 2, 5] and sub.right == [1, 3]
        assert near.left == [0, 2] and near.right == [3]

    def test_nearest_corner_beyond_the_corridor_box(self, tx):
        """A candidate's nearest roof corner is searched over its whole ring,
        even where it lies far outside the sub-segment's corridor."""
        verts, faces = prism(0, [(95.0, 4.0), (400.0, 1.0), (400.0, 10.0),
                                 (95.0, 10.0)], 10.0, 0)
        gmap = map_from_dict({"vertices": verts, "faces": faces,
                              "buildings": [{"id": 0}]})
        _assert_route_identification(tx, [pt(100.0, 0.0)], gmap, 5.0)
        (_cls, (sub,)), = initial_identification(tx, [pt(100.0, 0.0)], gmap, 5.0)
        dist, row, _t = sub.corner[0]
        assert sub.left == [0] and dist == 1.0
        assert gmap.roof_xy[row].tolist() == [400.0, 1.0]

    def test_first_degenerate_position_reports(self):
        """A block reports the degenerate breakpoint of its first such
        position, as the per-position passes did."""
        gmap = build_map([(0, (0.0, 0.0, 10.0, 10.0, 10.0)),
                          (1, (20.0, 0.0, 30.0, 10.0, 10.0))])
        tx = pt(5.0, 5.0, 20.0)
        route = [pt(-5.0, 5.0), pt(5.0, 5.0, 5.0), pt(25.0, 5.0, 5.0)]
        with pytest.raises(DegenerateGeometryError, match="no horizontal"):
            initial_identification(tx, route, gmap)
        _assert_route_identification(tx, route, gmap)


# -- nearest-corner record ----------------------------------------------------


def _building_line_distance(bid, gmap, a, b):
    """Per-building distance the visibility sort once computed."""
    return line_2d(gmap.vertices[roof_ring(gmap, bid)], a, b)[2].min()


def _corner_for_line(gmap, bid, a, b):
    """Per-building corner the chain was once anchored at."""
    ring = roof_ring(gmap, bid)
    c = gmap.vertices[ring]
    t, _cross, dist = line_2d(c, a, b)
    k = np.argmin(dist)       # rings ascend, so a tie goes to the lower index
    tz = min(max(t[k], 0.0), 1.0)
    edge = np.array([c[k, 0], c[k, 1], a[2] + tz * (b[2] - a[2])])
    return int(ring[k]), t[k], edge


def _edge_points(gmap, tx, entries):
    """An iterator over the chain-table edge of each ``(sub, bid)``: the
    recorded corner of candidate ``bid`` of sub-segment ``sub`` at the
    height of its line, each the one stage of a chain."""
    vis = [VisibilitySet(None, [sub], [replace(sub, left=[bid], right=[])])
           for sub, bid in entries]
    rxs = np.array([sub.b for sub, _bid in entries]).reshape(-1, 3)
    return iter(chain_table(vis, tx, rxs, gmap).terminal["edge"])


# 4x4 grid of 30 m boxes on a 50 m pitch
GRID_BOXES = [(4 * i + j, (50.0 * i, 50.0 * j, 50.0 * i + 30.0,
                           50.0 * j + 30.0, 10.0 + 3.0 * ((i + j) % 4)))
              for i in range(4) for j in range(4)]


def _grid_scene():
    """The grid boxes; routes along the streets run parallel to the walls,
    so each building has equidistant corners."""
    route = ([pt(x, 40.0) for x in range(-20, 200, 15)]
             + [pt(140.0, y) for y in range(-20, 200, 15)])
    return build_map(GRID_BOXES), pt(-30.0, 40.0), route


def _rotated_scene():
    route = [pt(5.0 + r * np.cos(a), r * np.sin(a))
             for r in (150.0, 400.0) for a in np.linspace(0.0, 6.0, 12)]
    return map_from_dict(_rotated_boxes()), pt(5.0, -5.0), route


def _fixture_scene(scene, canyon_map, corner_map, tx):
    """``(map, tx, route)`` of a named fixture scene."""
    return {
        "canyon": lambda: (canyon_map, tx, canyon_route()),
        "corner": lambda: (corner_map, tx, corner_route()),
        "rotated": _rotated_scene,
        "grid": _grid_scene,
    }[scene]()


class TestCornerRecord:
    @pytest.mark.parametrize("scene", ["canyon", "corner", "rotated", "grid"])
    def test_record_matches_per_building_corner(self, scene, canyon_map,
                                                corner_map, tx):
        """Each candidate's recorded corner equals the per-building
        computation bit for bit, ties included."""
        gmap, tx, route = _fixture_scene(scene, canyon_map, corner_map, tx)
        checked = ties = 0
        idents = initial_identification(tx, route, gmap)
        edges = _edge_points(gmap, tx, [(sub, bid) for _cls, segs in idents
                                        for sub in segs
                                        for bid in sub.left + sub.right])
        for _cls, segs in idents:
            for sub in segs:
                assert sorted(sub.corner) == sorted(sub.left + sub.right)
                for bid in sub.left + sub.right:
                    dist, row, t = sub.corner[bid]
                    want_vid, want_t, edge = _corner_for_line(gmap, bid, sub.a, sub.b)
                    want_dist = _building_line_distance(bid, gmap, sub.a, sub.b)
                    assert np.float64(dist).tobytes() == want_dist.tobytes()
                    assert gmap.roof_vertex[row] == want_vid
                    assert np.float64(t).tobytes() == want_t.tobytes()
                    assert next(edges).tobytes() == edge.tobytes()
                    ring = gmap.vertices[roof_ring(gmap, bid)]
                    ties += (line_2d(ring, sub.a, sub.b)[2] == want_dist).sum() > 1
                    checked += 1
        assert checked >= 10
        if scene == "grid":
            assert ties >= 10


# -- one occlusion query per sub-segment ------------------------------------


def _is_visible(bid, line_a, line_d, gmap, occluders):
    """True when no roof-ring vertex-to-projection segment of ``bid`` onto
    the line ``line_a + t line_d`` is blocked by an occluder, by the dense
    kernel over the occluders' triangles."""
    if not occluders:
        return True
    verts = gmap.vertices[roof_ring(gmap, bid)]
    t = (verts - line_a) @ line_d / (line_d @ line_d)
    proj = line_a + t[:, None] * line_d
    pos = [gmap.ids.tolist().index(o) for o in occluders]
    tris = np.flatnonzero(np.isin(gmap.tri_building, pos))
    return not np.isfinite(dense(verts, proj, *gmap.triangle(tris))).any()


def _scan_per_building(sub, gmap):
    """Visible ``(left, right)`` of a sub-segment as the filter once found
    them: each candidate, near to far, tested alone against the buildings
    accepted before it."""
    line_d = sub.b - sub.a
    accepted, kept = [], {"left": [], "right": []}
    for side in ("left", "right"):
        for bid in sorted(getattr(sub, side),
                          key=lambda b: (sub.corner[b][0], b)):
            if _is_visible(bid, sub.a, line_d, gmap, accepted):
                kept[side].append(bid)
                accepted.append(bid)
    return kept["left"], kept["right"]


class TestVisibilityScan:
    @pytest.mark.parametrize("scene", ["canyon", "corner", "rotated", "grid"])
    def test_matches_per_building_scan(self, scene, canyon_map, corner_map,
                                       tx):
        """The blocked-by matrix scan keeps the same buildings, in the same
        order, as one occlusion test per candidate."""
        gmap, tx, route = _fixture_scene(scene, canyon_map, corner_map, tx)
        hidden = 0
        for cls, segs in initial_identification(tx, route, gmap):
            vis = visible_identification(segs, cls)
            for sub, vseg in zip(segs, vis.visible):
                assert (vseg.left, vseg.right) == _scan_per_building(sub, gmap)
                hidden += len(sub.left + sub.right) - len(vseg.left + vseg.right)
        if scene == "grid":
            assert hidden >= 10

    @pytest.mark.parametrize("scene", ["corner", "rotated", "grid"])
    def test_every_flag_matches_its_pair(self, scene, canyon_map, corner_map,
                                         tx):
        """Every blocked-by flag, the ones against candidates the scan
        rejected too, equals the dense test of its own pair: flag
        i(i - 1)/2 + j, j < i, is True when a face of ``near[j]`` blocks a
        roof-ring vertex-to-projection segment of ``near[i]``."""
        gmap, tx, route = _fixture_scene(scene, canyon_map, corner_map, tx)
        flags = unread = 0          # unread: True against a rejected building
        for cls, segs in initial_identification(tx, route, gmap):
            for sub, vis in zip(segs, visible_identification(segs, cls).visible):
                pairs = [(sub.near[i], sub.near[j])
                         for i in range(len(sub.near)) for j in range(i)]
                want = [not _is_visible(bid, sub.a, sub.b - sub.a, gmap, [by])
                        for bid, by in pairs]
                assert sub.blocked.ndim == 1
                assert sub.blocked.tolist() == want
                flags += len(want)
                unread += sum(w and by not in vis.left + vis.right
                              for w, (_bid, by) in zip(want, pairs))
        assert flags >= 30
        if scene != "rotated":
            assert unread >= 5


class TestBlockEqualsAlone:
    @pytest.mark.parametrize("width", [100.0, 10.0])
    @pytest.mark.parametrize("scene", ["corner", "rotated", "grid"])
    def test_block_of_16_matches_each_position_alone(self, scene, width,
                                                     canyon_map, corner_map,
                                                     tx):
        """Each position of a 16-position block keeps the visible buildings
        it keeps alone, sub-segment by sub-segment, and the block computes
        the blocked-by matrices of its own identification.  A block mixes
        LOS and NLOS positions; at 10 m, sub-segments with no and with one
        candidate occur."""
        gmap, tx, route = _fixture_scene(scene, canyon_map, corner_map, tx)
        sizes, mixed = set(), False
        for start in range(0, len(route), 16):
            block = route[start:start + 16]
            idents = initial_identification(tx, block, gmap, width)
            mixed |= len({cls.los for cls, _segs in idents}) == 2
            for rx, (cls, segs) in zip(block, idents):
                got = visible_identification(segs, cls)
                want = identify_position(tx, rx, gmap, width)
                assert got.flat_visible() == want.flat_visible()
                for sub, one, vis, vis_one in zip(segs, want.sides, got.visible,
                                                  want.visible):
                    assert sub.near == one.near
                    assert sub.blocked.tobytes() == one.blocked.tobytes()
                    assert (vis.left, vis.right) == (vis_one.left, vis_one.right)
                    sizes.add(min(len(sub.near), 2))
        assert mixed
        if width == 10.0:
            assert sizes == {0, 1, 2}

    @pytest.mark.parametrize("scene", ["corner", "rotated", "grid"])
    def test_receiver_at_the_transmitter_inside_a_block(self, scene,
                                                        canyon_map,
                                                        corner_map, tx):
        """rx == tx in the middle of a block gives a zero-length sub-segment:
        the block pass raises and warns nothing, the other positions keep
        their own result, and the filter still rejects that position."""
        gmap, tx, route = _fixture_scene(scene, canyon_map, corner_map, tx)
        block = route[:7] + [tx.copy()] + route[7:15]
        assert len(block) == min(16, len(route) + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idents = initial_identification(tx, block, gmap)
        for k, (rx, (cls, segs)) in enumerate(zip(block, idents)):
            if k == 7:
                assert cls.los and segs[0].near == []
                with pytest.raises(NumericalDomainError,
                                   match="degenerate segment: endpoints coincide"):
                    visible_identification(segs, cls)
                continue
            assert (visible_identification(segs, cls).flat_visible()
                    == identify_position(tx, rx, gmap).flat_visible())


# -- randomized oracle agreement ---------------------------------------------


def random_scene(rng, max_boxes=8):
    boxes = []
    for bid in range(int(rng.integers(1, max_boxes + 1))):
        x0, y0 = rng.uniform(-80, 80, 2)
        w, d = rng.uniform(5, 40, 2)
        h = rng.uniform(3, 30)
        boxes.append((bid, (round(x0, 1), round(y0, 1), round(x0 + w, 1),
                            round(y0 + d, 1), round(h, 1))))
    return boxes


class TestOracleAgreement:
    def test_random_scenes_match_oracle(self):
        """Exact set equality with the brute-force visibility oracle on
        randomized scenes, after excluding near-degenerate positions."""
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(200):
            boxes = random_scene(rng)
            gmap = build_map(boxes)
            scene = OracleScene(boxes)
            tx = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100),
                           rng.uniform(1, 3)])
            for _p in range(20):
                rx = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100),
                               rng.uniform(1, 3)])
                if np.linalg.norm(rx - tx) < 1.0:
                    continue
                rec, degen = oracle_identify(tx, rx, scene, 100.0)
                if degen:
                    continue
                vis = identify_position(tx, rx, gmap, 100.0)
                cls = vis.classification
                assert cls.los == rec["los"]
                if not cls.los:
                    assert np.allclose(cls.breakpoint, rec["bp"], atol=1e-9)
                assert vis.flat_sides() == rec["sides"]
                assert vis.flat_visible() == rec["visible"]
                checked += 1
        assert checked >= 1000

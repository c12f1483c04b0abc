"""The row-wise occlusion kernel and the map's per-segment pair path.

The map culls each segment against each building box, tests the surviving
(segment, triangle) pairs in kernel calls of at most ``KERNEL_ROWS`` pairs
and reduces the hits.  The cull may only drop pairs the kernel would miss,
so every reduction must equal the dense kernel, every segment against every
triangle of the soup, bit for bit.  Scenes use integer box coordinates so that segments can end
exactly on a face, lie in a face plane or in the plane of a padded box face,
or run parallel to an axis (where the slab test divides by zero).
"""

import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import build_map, build_map_dict
from oracles import segment_blocked_by_boxes, segment_blocked_by_triangles
from test_geometry import _random_boxes
from urbanprop import kernels
from urbanprop.geometry import BOX_PAD, EPS_HIT, f_block, map_from_dict


def _soup(gmap, idx=slice(None)):
    return gmap.tri_v0[idx], gmap.tri_v1[idx], gmap.tri_v2[idx]


def _listed(edge, group, pos):
    """``pair_hits``'s arguments for the segment groups at ``edge`` and the
    (group, building position) pairs ``group``/``pos``, by group."""
    count = np.bincount(group, minlength=len(edge) - 1)
    return edge, np.cumsum(count) - count, count, pos


def dense(a, b, v0, v1, v2):
    """(S, M) hit parameters of every segment against every triangle, one
    kernel row per (segment, triangle) pair."""
    seg, tri = np.indices((len(a), len(v0))).reshape(2, -1)
    return kernels.segment_triangles(a[seg], b[seg], v0[tri], v1[tri],
                                     v2[tri], EPS_HIT).reshape(len(a), -1)


class TestZeroLengthSegment:
    def test_hits_nothing_without_warning(self, unit_cube_map):
        soup = _soup(unit_cube_map)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in ([0.5, 0.5, 0.5], [0.0, 0.5, 0.5], [0.3, 0.2, 1.0],
                      [3.0, 3.0, 3.0]):
                a = np.array(p)
                assert np.all(np.isinf(
                    kernels.segment_triangles(a, a, *soup, EPS_HIT)))
                assert f_block(a, a, unit_cube_map)[0] == 0
                t, tri = unit_cube_map.first_hit(a, a)
                assert (t[0], tri[0]) == (np.inf, -1)


@st.composite
def box_scenes(draw):
    boxes = []
    for bid in range(draw(st.integers(1, 5))):
        x0, y0 = draw(st.integers(-20, 15)), draw(st.integers(-20, 15))
        w, d, h = (draw(st.integers(1, 10)), draw(st.integers(1, 10)),
                   draw(st.integers(1, 15)))
        boxes.append((bid, tuple(float(c) for c in
                                 (x0, y0, x0 + w, y0 + d, h))))
    return boxes


@st.composite
def segment_batches(draw, boxes):
    """1-6 segments whose coordinates are free, on a box face plane, on the
    plane of a padded box face, on a box's mid-plane (so ends fall inside
    boxes), or (for the end point) copied from the start point, so the
    segment runs parallel to that axis or has zero length."""
    lo = [[b[0] for _, b in boxes], [b[1] for _, b in boxes],
          [0.0] * len(boxes)]
    hi = [[b[2] for _, b in boxes], [b[3] for _, b in boxes],
          [b[4] for _, b in boxes]]
    planes = [sorted(set(lo[k]) | set(hi[k]) | {c - BOX_PAD for c in lo[k]}
                     | {c + BOX_PAD for c in hi[k]}
                     | {(x + y) / 2.0 for x, y in zip(lo[k], hi[k])})
              for k in range(3)]
    free = st.floats(-25.0, 25.0, allow_nan=False)

    def coord(axis):
        return draw(st.one_of(free, st.sampled_from(planes[axis])))

    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        p = [coord(k) for k in range(3)]
        if draw(st.integers(0, 7)) == 0:
            q = list(p)
        else:
            q = [p[k] if draw(st.booleans()) else coord(k) for k in range(3)]
        a.append(p)
        b.append(q)
    return np.array(a), np.array(b)


@st.composite
def scene_and_segments(draw):
    """A box city, a subset of its building ids and a segment batch.  The
    faces may be shuffled, so triangle ids interleave the buildings."""
    boxes = draw(box_scenes())
    raw = build_map_dict(boxes)
    if draw(st.booleans()):
        raw["faces"] = draw(st.permutations(raw["faces"]))
    ids = [bid for bid, _ in boxes]
    subset = draw(st.lists(st.sampled_from(ids), unique=True))
    return map_from_dict(raw), subset, draw(segment_batches(boxes))


def _nearest(row):
    """The dense reference of ``first_hit``: the nearest hit and the lowest
    triangle id of equally near ones, or ``(inf, -1)``."""
    i = int(np.argmin(row))
    return (row[i], i) if np.isfinite(row[i]) else (np.inf, -1)


class TestCullChangesNothing:
    @settings(max_examples=300, deadline=None)
    @given(scene_and_segments())
    def test_culled_equals_unculled(self, case):
        gmap, subset, (a, b) = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = dense(a, b, *_soup(gmap))
            # one segment broadcast against the soup gives the same bits
            for i in range(len(a)):
                for seg in (a[i], a[i:i + 1]):
                    assert (kernels.segment_triangles(
                        seg, b[i], *_soup(gmap), EPS_HIT).tobytes()
                        == full[i].tobytes())

            blocked = np.isfinite(full)
            owner = gmap.tri_building
            by_building = np.stack([blocked[:, owner == k].any(axis=1)
                                    for k in range(len(gmap.ids))], axis=1)
            assert np.array_equal(gmap.first_hit(a, b)[1] >= 0,
                                  by_building.any(axis=1))
            cols = [gmap.ids.tolist().index(x) for x in subset]
            # a pair list holds only the (segment, building) pairs it names,
            # one segment per group or the whole batch in one group
            mask = np.arange(len(a))[:, None] % 3 != np.arange(len(cols))
            seg, k = np.nonzero(mask)
            pos = np.array(cols, dtype=np.int64)[k]
            got = gmap.pair_hits(a, b,
                                 *_listed(np.arange(len(a) + 1), seg, pos))
            assert np.array_equal(got, by_building[seg, pos])
            one = gmap.pair_hits(a, b, *_listed(
                np.array([0, len(a)]), np.zeros(len(cols), dtype=np.int64),
                np.array(cols, dtype=np.int64)))
            assert np.array_equal(one, by_building[:, cols].any(axis=0))
            assert np.array_equal(f_block(a, b, gmap), blocked.any(axis=1))
            t, tri = gmap.first_hit(a, b)
            assert (t.dtype, tri.dtype, t.shape, tri.shape) == (
                np.float64, np.int64, (len(a),), (len(a),))
            for i in range(len(a)):
                one_t, one_tri = gmap.first_hit(a[i], b[i])
                assert (one_t[0], one_tri[0]) == _nearest(full[i])
                # the batch row holds the same bits as the one-row call
                assert t[i].tobytes() == one_t[0].tobytes()
                assert tri[i] == one_tri[0]
                assert f_block(a[i], b[i], gmap)[0] == blocked[i].any()

    @settings(max_examples=300, deadline=None)
    @given(scene_and_segments())
    def test_whole_map_cull_keeps_every_pair(self, case):
        """The whole-map nearest-hit query, one group of every segment
        culled by their joint bounding box, hands the kernel the same
        (segment, triangle) rows, and as many, as ``_hits`` with one group
        per segment against every building and no flag, which skips that
        cull.  The rows are compared as a sorted list: the whole-map query
        pairs them building by building.  The segment flags of ``f_block``,
        which share that grouping, are the pair flags of one group per
        segment, any over the buildings."""
        gmap, _subset, (a, b) = case
        rows = []
        kernel = kernels.segment_triangles

        def recording(*args):
            rows.extend(np.concatenate(args[:5], axis=1))
            return kernel(*args)

        n, m = len(a), len(gmap.ids)
        listed = _listed(np.arange(n + 1), np.repeat(np.arange(n), m),
                         np.tile(np.arange(m), n))
        with patch.object(kernels, "segment_triangles", recording):
            gmap.first_hit(a, b)
            whole, rows[:] = rows[:], []
            gmap._hits(a, b, *listed)
        assert len(rows) == len(whole)
        assert (sorted(x.tobytes() for x in whole)
                == sorted(x.tobytes() for x in rows))
        every = gmap.pair_hits(a, b, *listed)
        assert np.array_equal(every.reshape(n, m).any(axis=1),
                              f_block(a, b, gmap).astype(bool))

    def test_empty_batch(self, canyon_map):
        """Zero segments, as a one-stage chain's ``f_block`` passes, give
        empty results without a kernel call."""
        none = np.empty((0, 3))
        t, tri = canyon_map.first_hit(none, none)
        assert t.shape == tri.shape == (0,)
        assert (canyon_map.first_hit(none, none)[1] >= 0).shape == (0,)
        no_pair = np.empty(0, dtype=np.int64)
        assert canyon_map.pair_hits(none, none, *_listed(
            np.zeros(1, dtype=np.int64), no_pair, no_pair)).shape == (0,)
        assert f_block(none, none, canyon_map).shape == (0,)

    def test_tie_goes_to_lowest_id_across_interleaved_buildings(self):
        """Two boxes share the wall plane x = 1 and the segment crosses it
        on both fan diagonals, so four triangles of two buildings tie.  The
        second building's faces come first in the map, so its triangles
        have the lower ids although its pairs come later in the pair list."""
        raw = build_map_dict([(0, (0.0, 0.0, 1.0, 1.0, 1.0)),
                              (1, (1.0, 0.0, 2.0, 1.0, 1.0))])
        raw["faces"] = raw["faces"][6:] + raw["faces"][:6]
        gmap = map_from_dict(raw)
        a, b = np.array([[0.5, 0.5, 0.5]]), np.array([[1.5, 0.5, 0.5]])
        row = dense(a, b, *_soup(gmap))[0]
        assert (row == 0.5).sum() == 4
        t, tri = (x[0] for x in gmap.first_hit(a[0], b[0]))
        assert (t, tri) == _nearest(row)
        assert gmap.ids[gmap.tri_building[tri]] == 1
        # in a batch, behind a segment that hits nothing and one that hits
        # the first building only
        a3 = np.array([[5.0, 5.0, 5.0], [0.5, -1.0, 0.5], a[0]])
        b3 = np.array([[6.0, 6.0, 6.0], [0.5, 0.5, 0.5], b[0]])
        t3, tri3 = gmap.first_hit(a3, b3)
        assert (t3[0], tri3[0]) == (np.inf, -1)
        assert tri3[1] >= 0 and (t3[1], tri3[1]) == tuple(
            x[0] for x in gmap.first_hit(a3[1], b3[1]))
        assert (t3[2], tri3[2]) == (t, tri)


class TestFlagRounds:
    """The flag queries, ``pair_hits`` by pair and ``f_block`` by segment,
    test each key's first kept row, then the other kept rows of the keys
    that row left unhit; a flag must still be set exactly when any of the
    key's rows hits."""

    @settings(max_examples=300, deadline=None)
    @given(scene_and_segments(), st.data())
    def test_flags_equal_any_hit(self, case, data):
        """Both flags equal the any-hit of the unculled kernel over the
        whole triangle soup: ``pair_hits`` on the batch cut into groups of
        consecutive segments at random, each paired with a random list of
        buildings, and ``f_block`` per segment.  Two segments lead the
        batch to favour a second round: one inside building 0, whose slab
        test passes although it hits nothing, and one leaving building 0's
        west face, where the endpoint exclusion drops the row that comes
        first (building 0 has the lowest position)."""
        gmap, _subset, (a, b) = case
        v = np.concatenate(gmap.triangle(np.flatnonzero(gmap.tri_building == 0)))
        lo, hi = v.min(axis=0), v.max(axis=0)
        mid = (lo + hi) / 2.0
        a = np.concatenate(([mid, [lo[0], mid[1], mid[2]]], a))
        b = np.concatenate(([mid + (hi - lo) / 4.0, [-30.0, mid[1], mid[2]]], b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocked = np.isfinite(dense(a, b, *_soup(gmap)))
            cuts = data.draw(st.sets(st.integers(1, len(a) - 1)))
            edge = np.array([0, *sorted(cuts), len(a)])
            lists = [data.draw(st.lists(st.integers(0, len(gmap.ids) - 1),
                                        unique=True)) for _ in edge[1:]]
            group = np.repeat(np.arange(len(lists)), [*map(len, lists)])
            pos = np.array(sum(lists, []), dtype=np.int64)
            got = gmap.pair_hits(a, b, *_listed(edge, group, pos))
            want = [blocked[edge[g]:edge[g + 1], gmap.tri_building == p].any()
                    for g, p in zip(group.tolist(), pos.tolist())]
            assert got.tolist() == want
            assert f_block(a, b, gmap).tolist() == blocked.any(axis=1).tolist()

    def test_a_later_row_sets_the_flag(self, monkeypatch):
        """A key whose first kept row misses is flagged by a later one, in
        a second kernel call.  By pair: the first segment of the group lies
        inside the box, so its slab test passes but no face is hit, and the
        second crosses a wall.  By segment: the segment starts on a wall of
        building 0 (its lowest-position box, whose row comes first), which
        the endpoint exclusion does not count, and crosses building 1."""
        gmap = build_map([(0, (0.0, 0.0, 1.0, 1.0, 1.0)),
                          (1, (3.0, 0.0, 4.0, 1.0, 1.0))])
        calls = []
        kernel = kernels.segment_triangles

        def counting(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setattr(kernels, "segment_triangles", counting)
        a = np.array([[0.4, 0.5, 0.5], [0.5, -1.0, 0.5]])
        b = np.array([[0.6, 0.5, 0.5], [0.5, 2.0, 0.5]])
        one = np.zeros(1, dtype=np.int64)
        assert gmap.pair_hits(a, b, np.array([0, 2]), one, one + 1,
                              one).tolist() == [True]
        assert calls == [12, 12]
        calls.clear()
        a, b = np.array([[1.0, 0.5, 0.5]]), np.array([[5.0, 0.5, 0.5]])
        assert f_block(a, b, gmap).tolist() == [1]
        assert calls == [12, 12]
        assert gmap.first_hit(a, b)[0][0] == 0.5


def test_triangles_tested_counts_pairs(canyon_map, monkeypatch):
    """One kernel call per query; its rows are the (segment, triangle)
    pairs that survive the per-segment cull, not segments x triangles."""
    calls = []
    kernel = kernels.segment_triangles

    def counting(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(kernels, "segment_triangles", counting)
    # each segment crosses one box of the canyon: 12 triangles each
    a = np.array([[75.0, 0.0, 5.0], [35.0, 40.0, 5.0]])
    b = np.array([[75.0, -40.0, 5.0], [35.0, 0.0, 5.0]])
    assert f_block(a, b, canyon_map).tolist() == [1, 1]
    assert calls == [24]
    t, tri = build_map([]).first_hit(a[0], b[0])
    assert (t[0], tri[0]) == (np.inf, -1)
    assert calls == [24]


class TestPairHits:
    def test_matches_triangle_oracle(self):
        """Each (segment group, building) pair equals the independent
        triangle oracle over the group's segments and the building's
        triangles, with the coarse cull on.  Grazing segments (slab margin
        under 1e-6) are left out as degenerate."""
        rng = np.random.default_rng(5150)
        checked = culled = hit = 0
        for _scene in range(20):
            boxes = _random_boxes(rng)
            gmap = build_map(boxes)
            sizes = rng.integers(1, 6, 30)
            edge = np.concatenate(([0], np.cumsum(sizes)))
            a = rng.uniform(-80.0, 80.0, (edge[-1], 3))
            a[:, 2] = rng.uniform(0.1, 30.0, edge[-1])
            b = a + rng.uniform(-40.0, 40.0, a.shape)
            group = np.repeat(np.arange(len(sizes)), len(boxes))
            pos = np.tile(np.arange(len(boxes)), len(sizes))
            got = gmap.pair_hits(a, b, *_listed(edge, group, pos))
            for n, (g, p) in enumerate(zip(group.tolist(), pos.tolist())):
                tris = gmap.triangle(np.flatnonzero(gmap.tri_building == p))
                x0, y0, x1, y1, h = boxes[p][1]
                slab = (np.array([x0, y0, 0.0]), np.array([x1, y1, h]))
                segs = range(edge[g], edge[g + 1])
                if any(segment_blocked_by_boxes(a[s], b[s], [slab])[3]
                       for s in segs):
                    continue
                want = any(segment_blocked_by_triangles(a[s], b[s], *tris)
                           for s in segs)
                assert got[n] == want
                ends = np.concatenate([a[segs], b[segs]])
                culled += bool((ends.min(axis=0) > slab[1]).any()
                               or (ends.max(axis=0) < slab[0]).any())
                checked += 1
                hit += want
        assert checked >= 2000 and culled >= 500 and hit >= 50


"""The batched occlusion kernel and the bounding-box cull in front of it.

The cull may only drop triangles the kernel would miss, so culled queries
must reproduce the unculled kernel over the whole soup bit for bit; and a
batched call must equal its single-segment calls stacked.  Scenes use
integer box coordinates so that segments can end exactly on a face, lie in
a face plane, or run parallel to an axis (where the slab test divides by
zero).
"""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import build_map
from urbanprop import kernels
from urbanprop.geometry import EPS_HIT, f_block


def _soup(gmap, idx=slice(None)):
    return gmap.tri_v0[idx], gmap.tri_v1[idx], gmap.tri_v2[idx]


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
                assert not unit_cube_map.any_hit(a, a)
                assert f_block(a, a, unit_cube_map) == 0
                assert unit_cube_map.first_hit(a, a) == (np.inf, -1)


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
    """1-6 segments whose coordinates are free, on a box face plane, or
    (for the end point) copied from the start point, so the segment runs
    parallel to that axis."""
    planes = [sorted({b[0] for _, b in boxes} | {b[2] for _, b in boxes}),
              sorted({b[1] for _, b in boxes} | {b[3] for _, b in boxes}),
              sorted({0.0} | {b[4] for _, b in boxes})]
    free = st.floats(-25.0, 25.0, allow_nan=False)

    def coord(axis):
        return draw(st.one_of(free, st.sampled_from(planes[axis])))

    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        p = [coord(k) for k in range(3)]
        q = [p[k] if draw(st.booleans()) else coord(k) for k in range(3)]
        a.append(p)
        b.append(q)
    return np.array(a), np.array(b)


@st.composite
def scene_and_segments(draw):
    boxes = draw(box_scenes())
    ids = [bid for bid, _ in boxes]
    subset = draw(st.lists(st.sampled_from(ids), unique=True))
    return boxes, subset, draw(segment_batches(boxes))


class TestCullChangesNothing:
    @settings(max_examples=300, deadline=None)
    @given(scene_and_segments())
    def test_culled_equals_unculled(self, case):
        boxes, subset, (a, b) = case
        gmap = build_map(boxes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = kernels.segment_triangles(a, b, *_soup(gmap), EPS_HIT)
            stacked = np.stack([
                kernels.segment_triangles(a[i], b[i], *_soup(gmap), EPS_HIT)
                for i in range(len(a))])
            assert np.array_equal(full, stacked)

            batch_idx = gmap.candidate_triangles(a, b)
            assert np.all(np.isinf(np.delete(full, batch_idx, axis=1)))
            assert gmap.any_hit(a, b) is bool(np.isfinite(full).any())
            in_subset = np.isin(gmap.tri_building,
                                [gmap.ids.tolist().index(x) for x in subset])
            for i in range(len(a)):
                idx = gmap.candidate_triangles(a[i], b[i])
                assert np.all(np.diff(idx) > 0)
                assert np.all(np.isin(idx, batch_idx))
                culled = kernels.segment_triangles(a[i], b[i],
                                                   *_soup(gmap, idx), EPS_HIT)
                assert np.array_equal(culled, full[i, idx])
                assert np.all(np.isinf(np.delete(full[i], idx)))

                # unculled reference: the nearest hit over the whole soup,
                # the lowest triangle id of equally near ones
                i_full = int(np.argmin(full[i]))
                t_full = full[i, i_full]
                if not np.isfinite(t_full):
                    t_full, i_full = np.inf, -1
                assert gmap.first_hit(a[i], b[i]) == (t_full, i_full)
                blocked = bool(np.isfinite(full[i]).any())
                assert gmap.any_hit(a[i], b[i]) is blocked
                assert f_block(a[i], b[i], gmap) == blocked

                sub_idx = gmap.candidate_triangles(a[i], b[i], subset)
                assert np.all(in_subset[sub_idx])
                sub_full = np.where(in_subset, full[i], np.inf)
                assert np.all(np.isinf(np.delete(sub_full, sub_idx)))
                assert gmap.any_hit(a[i], b[i], subset) == np.isfinite(
                    sub_full).any()

"""Route evaluation through the worker pool against the serial path."""

import concurrent.futures
import dataclasses
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (CORNER_BOXES, TX, Scene, build_map, build_map_dict,
                      grid_scene, moved, predict_one, set_usable_cpus)
from test_identify import _grid_scene, pt
from urbanprop import geometry, identify, kernels, link, pipeline
from urbanprop.config import Route, ScenarioConfig
from urbanprop.errors import NumericalDomainError, RouteError
from urbanprop.geometry import GeometryMap, map_from_dict
from urbanprop.identify import identify_position
from urbanprop.link import chain_table
from urbanprop.pipeline import (BLOCK, POOL_BLOCKS, RouteResult, _concat,
                                pool_width, predict_route)


def corner_street_route(n):
    """``n`` points up street B of the corner scene, LOS then NLOS."""
    y = np.linspace(0.0, 60.0, n)
    return Route(np.arange(n, dtype=np.float64),
                 np.stack([np.full(n, 59.0), y, np.full(n, 2.0)], axis=1))


def fine_grid_scene():
    """``_grid_scene`` with each of its two streets sampled at ``BLOCK`` + 1
    points over the same span, so that its route is longer than two
    blocks."""
    gmap, tx, _route = _grid_scene()
    s = np.linspace(-20.0, 190.0, BLOCK + 1)
    return gmap, tx, [pt(x, 40.0) for x in s] + [pt(140.0, y) for y in s]


# The pool's layout cases run in blocks of at most 3: the rules they check
# do not depend on the block size, and their routes stay short.
LAYOUT_BLOCK = 3
# (positions, workers, widths of the pools started) at POOL_BLOCKS = 3: the
# blocks are the pool's tasks and each worker needs POOL_BLOCKS of them, so
# routes of 4 and 5 blocks (11 and 15 positions) run in this process at any
# worker count, 6 blocks (17) start a pool of 2 at 2 or 3 workers, and 13
# blocks (37) one of 4.
POOL_CASES = [(11, 1, []), (11, 2, []), (2, 3, []), (15, 2, []), (17, 2, [2]),
              (17, 3, [2]), (37, 4, [4])]


@pytest.mark.parametrize("n, workers, widths", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in POOL_CASES])
def test_pool_matches_serial(cfg, corner_map, pool_widths, monkeypatch, n,
                             workers, widths):
    """Every column matches the serial route in dtype, shape and bytes
    (object columns by value)."""
    monkeypatch.setattr(pipeline, "BLOCK", LAYOUT_BLOCK)
    route = corner_street_route(n)
    serial = predict_route(cfg, corner_map, route)
    pooled = predict_route(cfg, corner_map, route, workers=workers)
    assert pool_widths == widths
    assert len(serial.los) == n
    assert_same_columns(pooled, serial)


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["affinity", "cpu_count"])
def test_pool_width_bounded_by_usable_cpus(monkeypatch, affinity):
    """The width is at most one per ``POOL_BLOCKS`` blocks and one per CPU
    this process may run on: its affinity set, or the machine's CPU count
    where the platform has no affinity call; the bound that cut it is
    named.  A pool starts from ``2 * POOL_BLOCKS`` blocks."""
    if affinity:
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool_width(8, 10 * BLOCK) == (
        2, "one per CPU this process may run on")
    assert pool_width(2, 10 * BLOCK) == (2, None)
    per_blocks = f"one per {POOL_BLOCKS} blocks of {BLOCK} positions"
    assert pool_width(8, BLOCK) == (1, per_blocks)
    # 2 * POOL_BLOCKS - 1 blocks, then 2 * POOL_BLOCKS
    assert pool_width(2, (2 * POOL_BLOCKS - 1) * BLOCK) == (1, per_blocks)
    assert pool_width(2, (2 * POOL_BLOCKS - 1) * BLOCK + 1) == (2, None)


def assert_same_columns(got, want):
    for f in dataclasses.fields(RouteResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name


def test_integer_cap_gives_float_path_loss(corner_map):
    """A route whose rows are all capped at an integer ``pl_cap_db`` still
    has float64 path-loss columns."""
    cfg = ScenarioConfig(tx=TX, pl_cap_db=50)
    res = predict_route(cfg, corner_map, corner_street_route(5))
    for col in (res.pl_model_db, res.pl_simplified_db):
        assert col.dtype == np.float64
        assert col.tolist() == [50.0] * 5


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_route_rejected_before_any_pool(cfg, corner_map, monkeypatch,
                                             workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(RouteError, match="at least one point"):
        predict_route(cfg, corner_map, Route(np.empty(0), np.empty((0, 3))),
                      workers=workers)


def test_map_pickled_at_most_once_per_worker(cfg, monkeypatch, pool_widths):
    gmap = build_map(CORNER_BOXES)
    pickles = []

    def counting_getstate(self):
        pickles.append(1)
        return self.__dict__

    monkeypatch.setattr(GeometryMap, "__getstate__", counting_getstate,
                        raising=False)
    # seventeen block tasks of at most 16 positions on a pool of two:
    # shipping the map with each task would pickle it seventeen times
    monkeypatch.setattr(pipeline, "BLOCK", 16)
    predict_route(cfg, gmap, corner_street_route(4 * BLOCK + 1), workers=2)
    assert pool_widths == [2]
    assert len(pickles) <= 2


def test_kernel_calls_do_not_grow_with_candidates(monkeypatch):
    """At most five kernel calls per lone position, however many
    candidates: one for the LOS query, and at most one per round (two) for
    each of the flag queries, the visibility filter's and the chain's; over
    a route, one LOS query per block of positions."""
    gmap, tx, route = fine_grid_scene()
    cfg = ScenarioConfig(tx=tx)
    calls = []
    kernel = kernels.segment_triangles
    classify = identify.classify_link
    in_classify = []

    def counting(*args):
        calls.append(bool(in_classify))
        return kernel(*args)

    def classifying(*args):
        in_classify.append(1)
        try:
            return classify(*args)
        finally:
            in_classify.pop()

    monkeypatch.setattr(kernels, "segment_triangles", counting)
    monkeypatch.setattr(identify, "classify_link", classifying)
    most = 0
    for rx in route:
        calls.clear()
        res = predict_one(cfg, gmap, rx)
        assert len(calls) <= 5
        sides = res.sides[0]
        most = max(most, len(sides["left"] + sides["right"]))
    assert most >= 8
    # A block's LOS query tests more pairs than one kernel call takes, so
    # the slices are widened to the most pairs a LOS query of the whole
    # route can test: each query is then one kernel call.
    monkeypatch.setattr(geometry, "KERNEL_ROWS",
                        len(route) * len(gmap.tri_building))
    calls.clear()
    res = predict_route(cfg, gmap, Route(np.arange(len(route), dtype=np.float64),
                                         np.array(route)))
    assert len(route) > 2 * BLOCK and (~res.los).sum() >= 3
    assert sum(calls) <= math.ceil(len(route) / BLOCK)


def test_hooked_names_run_per_block_and_per_position(monkeypatch):
    """Over a route, the LOS and breakpoint pass ``classify_link``, the
    chain's ``f_block`` query and the field pass's ``recursive_chain`` run
    at most once per block, and ``extract_chain``, ``total_field`` and
    ``predict_position``, as looked up in ``pipeline``, once per position:
    the benchmark times and counts those layers through wrappers set on
    these names."""
    gmap, tx, route = fine_grid_scene()
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in [(identify, "classify_link"), (link, "f_block"),
                      (link, "recursive_chain"), (pipeline, "extract_chain"),
                      (pipeline, "total_field"), (pipeline, "predict_position")]:
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    res = predict_route(ScenarioConfig(tx=tx), gmap, Route(
        np.arange(len(route), dtype=np.float64), np.array(route)))
    assert len(route) > 2 * BLOCK and res.n_stages.sum() > len(route)
    for name in ("classify_link", "f_block", "recursive_chain"):
        assert 0 < calls[name] <= math.ceil(len(route) / BLOCK), name
    for name in ("extract_chain", "total_field", "predict_position"):
        assert calls[name] == len(route), name


def test_a_route_result_per_block_and_one_join(monkeypatch):
    """A block stacks its positions' rows into one ``RouteResult`` and the
    route joins the blocks' into one more: 4 on the 3-block route, where a
    single-row result per position made 134."""
    gmap, tx, route = fine_grid_scene()
    built = []

    class Counted(RouteResult):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(len(self.los))

    monkeypatch.setattr(pipeline, "RouteResult", Counted)
    res = predict_route(ScenarioConfig(tx=tx), gmap, Route(
        np.arange(len(route), dtype=np.float64), np.array(route)))
    blocks = math.ceil(len(route) / BLOCK)
    assert blocks == 3 and len(built) == blocks + 1
    assert built == [44, 43, 43, len(route)]
    assert isinstance(res, Counted) and len(res.los) == len(route)


def test_a_position_is_a_block_of_one(cfg, corner_map, monkeypatch):
    """A lone position, a route of one point, runs the route's block path:
    one ``_predict_block`` call, on the one position."""
    calls, block = [], pipeline._predict_block

    def recording(cfg, gmap, positions):
        calls.append(positions.tolist())
        return block(cfg, gmap, positions)

    monkeypatch.setattr(pipeline, "_predict_block", recording)
    res = predict_one(cfg, corner_map, pt(59.0, 45.0))
    assert calls == [[[59.0, 45.0, 2.0]]] and len(res.los) == 1


@pytest.mark.parametrize("rows", [None, 40])
def test_kernel_calls_stay_within_the_slice(monkeypatch, rows):
    """No kernel call of a route gets more pairs than ``KERNEL_ROWS``, and
    no slice of the candidate pass looks up the roof rows of more buildings;
    with a smaller constant, more queries and the candidate pass are cut,
    and the columns keep their bytes."""
    gmap, tx, route = _grid_scene()
    cfg = ScenarioConfig(tx=tx)
    route = Route(np.arange(len(route), dtype=np.float64), np.array(route))
    want = predict_route(cfg, gmap, route)
    calls, cut = [], []
    kernel, flanking = kernels.segment_triangles, identify._flanking

    def recording(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    def candidates(a, b, gmap, width):  # the buildings of each candidate slice
        roof_rows = gmap.roof_rows
        with monkeypatch.context() as m:
            m.setattr(gmap, "roof_rows",
                      lambda pos: cut.append(len(pos)) or roof_rows(pos))
            return flanking(a, b, gmap, width)

    monkeypatch.setattr(kernels, "segment_triangles", recording)
    monkeypatch.setattr(identify, "_flanking", candidates)
    if rows is not None:
        monkeypatch.setattr(geometry, "KERNEL_ROWS", rows)
    assert_same_columns(predict_route(cfg, gmap, route), want)
    assert max(calls + cut) <= geometry.KERNEL_ROWS
    if rows is not None:
        assert calls.count(rows) >= 10 and len(cut) >= 10


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_route_equals_routes_of_one(cfg, corner_map, monkeypatch, pool_widths,
                                    workers):
    """Identification a block at a time gives every column the bytes of the
    positions evaluated one by one, on a route of more than two blocks
    whose length is not a multiple of the block."""
    route = corner_street_route(2 * BLOCK + 5)
    if workers > 1:   # blocks of at most 8: 17, enough for a pool of 3
        monkeypatch.setattr(pipeline, "BLOCK", 8)
    got = predict_route(cfg, corner_map, route, workers=workers)
    assert pool_widths == ([workers] if workers > 1 else [])
    want = [predict_one(cfg, corner_map, rx) for rx in route.xyz]
    assert 0 < got.los.sum() < len(route.xyz)
    assert_same_columns(got, RouteResult(*(
        np.concatenate([getattr(row, f.name) for row in want])
        for f in dataclasses.fields(RouteResult))))


@pytest.mark.parametrize("scene", ["grid", "corner"])
def test_block_size_changes_no_output_byte(cfg, corner_map, monkeypatch,
                                           pool_widths, scene):
    """Every column keeps its bytes at any block size, in this process and
    on a pool of 2, and a route is cut into blocks that differ in size by
    at most one position."""
    if scene == "grid":   # 130 positions: 19 blocks of 7, 9 of 16
        gmap, tx, route = fine_grid_scene()
        cfg = ScenarioConfig(tx=tx)
        route = Route(np.arange(len(route), dtype=np.float64), np.array(route))
    else:
        gmap, route = corner_map, corner_street_route(2 * BLOCK + 5)
    want = predict_route(cfg, gmap, route)
    sizes, block = [], pipeline._predict_block

    def recording(cfg, gmap, positions):
        sizes.append(len(positions))
        return block(cfg, gmap, positions)

    monkeypatch.setattr(pipeline, "_predict_block", recording)
    for size in (1, 7, 16, 3 * BLOCK):
        monkeypatch.setattr(pipeline, "BLOCK", size)
        sizes.clear()
        assert_same_columns(predict_route(cfg, gmap, route), want)
        assert len(sizes) == math.ceil(len(route.t) / size)
        assert sum(sizes) == len(route.t) and max(sizes) - min(sizes) <= 1
        assert_same_columns(predict_route(cfg, gmap, route, workers=2), want)
    assert pool_widths == [2, 2, 2]


def test_array_holding_results_compare_by_identity(cfg, corner_map):
    """Results with array fields compare and hash by identity; the generated
    ``==`` compared the arrays and raised, and ``hash`` raised on an NLOS
    classification."""
    rx = np.array([59.0, 30.0, 2.0])
    first, second = (predict_one(cfg, corner_map, rx) for _ in range(2))
    assert not first.los[0]
    vis, other = (identify_position(cfg.tx, rx, corner_map) for _ in range(2))
    route = corner_street_route(3)
    pairs = [
        (first, second),
        (vis.classification, other.classification),
        (vis.sides[0], other.sides[0]),
        (chain_table([vis], cfg.tx, rx[None], corner_map),
         chain_table([other], cfg.tx, rx[None], corner_map)),
        (route, Route(route.t, route.xyz)),
        (cfg, ScenarioConfig(tx=cfg.tx)),
    ]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2 and hash(x) == hash(x)


def _transient_bytes(fn):
    """Traced peak minus what is still held once ``fn()`` has returned."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


def test_transient_memory_bounded_by_the_block(cfg, corner_map):
    """The route's rows are joined a block at a time, so the memory a route
    needs beyond its result stays under half of what holding one single-row
    result per position until the end needs (about 1.2 MB at 640
    positions), and grows less than the route does."""
    predict_route(cfg, corner_map, corner_street_route(BLOCK))   # warm caches
    transient = {n: _transient_bytes(lambda: predict_route(
        cfg, corner_map, corner_street_route(n))) for n in (160, 640)}
    res = predict_route(cfg, corner_map, corner_street_route(640))
    per_position = _transient_bytes(lambda: _concat([
        RouteResult(*(getattr(res, f.name)[i:i + 1].copy()
                      for f in dataclasses.fields(RouteResult)))
        for i in range(640)]))
    assert transient[640] < per_position / 2
    assert transient[640] < 2 * transient[160]


@pytest.mark.parametrize("query", ["f_block", "first_hit"])
def test_occlusion_query_memory_bounded(monkeypatch, query):
    """The traced peak of an occlusion query from the grid fixture's TX to
    points along its streets, 2 x 16 then 2 x 128, grows by no more than the
    larger query's output plus a fixed 64 KB: rows are culled, and their
    pairs tested, a slice at a time, so the pairs a query tests, several
    times ``KERNEL_ROWS`` here, are never held at once.  ``f_block`` tests
    only the first kept row of most segments, so its queries take 2 x 48
    and 2 x 256 points: the smaller one still fills a slice, and the larger
    one spans more than four."""
    gmap, tx, _route = _grid_scene()
    run = {"f_block": lambda a, b: geometry.f_block(a, b, gmap),
           "first_hit": gmap.first_hit}[query]
    small_n, big_n = {"f_block": (48, 256), "first_hit": (16, 128)}[query]
    kernel, pairs = kernels.segment_triangles, []

    def counting(*args):
        pairs.append(len(args[2]))
        return kernel(*args)

    def traced(n):
        s = np.linspace(-20.0, 190.0, n)
        rx = np.array([pt(x, 40.0) for x in s] + [pt(140.0, y) for y in s])
        a = np.broadcast_to(tx, rx.shape)
        pairs.clear()
        with monkeypatch.context() as m:
            m.setattr(kernels, "segment_triangles", counting)
            run(a, rx)                                  # and warm caches
        tracemalloc.start()
        try:
            out = run(a, rx)
            _held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, sum(x.nbytes for x in (out if isinstance(out, tuple)
                                            else (out,)))

    small, _out = traced(small_n)
    big, out = traced(big_n)
    assert sum(pairs) > 4 * geometry.KERNEL_ROWS
    assert big - small <= out + 64 * 1024


def test_kernel_calls_stay_full(monkeypatch):
    """With ``KERNEL_ROWS`` at 40, every kernel call of a route block's
    LOS query (``first_hit``) but the last gets exactly 40 pairs; so does
    every call of its chain query (``f_block``) and visibility query
    (``pair_hits``) but the last of each of their two test rounds.  The
    calls together test the (segment, triangle) rows of the same query run
    with one call per round, in order: the pairs of one cull slice are not
    tested apart from the next slice's."""
    gmap, tx, route = _grid_scene()
    cfg = ScenarioConfig(tx=tx)
    args = {}

    def capture(name, fn):
        def wrapper(*a):
            args.setdefault(name, a)        # a block's first call of each
            return fn(*a)
        return wrapper

    queries = {"first_hit": GeometryMap.first_hit,
               "pair_hits": GeometryMap.pair_hits, "f_block": link.f_block}
    with monkeypatch.context() as m:
        for name, fn in queries.items():
            m.setattr(link if name == "f_block" else GeometryMap, name,
                      capture(name, fn))
        predict_route(cfg, gmap, Route(np.arange(len(route), dtype=np.float64),
                                       np.array(route)))
    assert len(route) <= BLOCK and set(args) == set(queries)
    kernel, calls = kernels.segment_triangles, []

    def recording(*a):
        calls.append(a[:5])
        return kernel(*a)

    monkeypatch.setattr(kernels, "segment_triangles", recording)
    for name, fn in queries.items():
        sizes, joined = {}, {}
        for rows in (40, 10 ** 6):
            monkeypatch.setattr(geometry, "KERNEL_ROWS", rows)
            calls.clear()
            fn(*args[name])
            sizes[rows] = [len(c[2]) for c in calls]
            joined[rows] = [np.concatenate(x).tobytes() for x in zip(*calls)]
        cut, rounds = sizes[40], sizes[10 ** 6]
        assert len(cut) > 2 and joined[40] == joined[10 ** 6], name
        if name == "first_hit":
            assert set(cut[:-1]) == {40} and cut[-1] <= 40, name
            assert rounds == [sum(cut)], name
        else:   # each round in full slices of 40 and a last one of the rest
            assert 0 < len(rounds) <= 2, name
            assert cut == [size for r in rounds for size in
                           [40] * (r // 40) + [r % 40] * (r % 40 > 0)], name


def test_route_peak_memory_pinned():
    """The traced peak of a route on the grid fixture (30 positions, one
    block) stays under 500 KB: 410 KB measured once the candidate and
    occlusion passes run in slices; in blocks of 16, 465 KB once the block
    queries stopped holding their dead intermediates through the kernel
    slices, 575 KB before."""
    gmap, tx, route = _grid_scene()
    cfg = ScenarioConfig(tx=tx)
    route = Route(np.arange(len(route), dtype=np.float64), np.array(route))
    predict_route(cfg, gmap, route)                      # warm caches
    tracemalloc.start()
    try:
        predict_route(cfg, gmap, route)
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500 * 1024


def test_tx_at_a_roof_corner():
    """A TX mounted at a roof corner of building 0: where that corner
    anchors building 0's stage, the building cannot diffract toward the TX
    and its stage is dropped; the visible sets are identification's own."""
    gmap, _tx, route = _grid_scene()
    tx = np.array([30.0, 30.0, 12.0])
    res = predict_route(ScenarioConfig(tx=tx), gmap, Route(
        np.arange(len(route), dtype=np.float64), np.array(route)))
    idents = [identify_position(tx, rx, gmap) for rx in route]
    assert res.visible.tolist() == [v.flat_visible() for v in idents]

    def anchored_at_tx(vis):    # building 0's first sub-segment and corner
        return next(((s, gmap.roof_xy[sub.corner[0][1]].tolist())
                     for s, sub in enumerate(vis.visible)
                     if 0 in sub.left + sub.right), None) == (0, [30.0, 30.0])

    dropped = [anchored_at_tx(v) for v in idents]
    ids = [set(sum(v.flat_visible().values(), [])) for v in idents]
    assert sum(dropped) >= 3 and any(0 in b and not d
                                     for b, d in zip(ids, dropped))
    assert res.n_stages.tolist() == [len(b) - d for b, d in zip(ids, dropped)]
    assert np.isfinite(res.pl_model_db).all()


def test_rx_at_its_chains_last_corner():
    """An RX at the roof corner its chain ends at has no terminal distance
    (L = 0): a domain error naming that stage, before any field is
    computed, not a division by zero."""
    gmap = build_map([(0, (0.0, 0.0, 10.0, 10.0, 1.0))])
    cfg = ScenarioConfig(tx=np.array([-20.0, 3.0, 2.0]))
    with pytest.raises(NumericalDomainError,
                       match="^stage 0: distance and k must be positive$"):
        predict_route(cfg, gmap, Route(np.zeros(1), np.array([[0.0, 0.0, 1.5]])))


def _scene_route(scene):
    """``predict_route`` of a ``Scene``'s route, one second per point."""
    rows = np.array([rx[1:] for rx in scene.route])
    return predict_route(ScenarioConfig(tx=scene.tx), map_from_dict(scene.map),
                         Route(np.arange(len(rows), dtype=np.float64), rows))


def _moved_grid_route(move):
    """The route of the seed-21 grid city of 10 x 10 buildings at a 2.5 m
    step, its map, TX and route each mapped through ``move(x, y)``."""
    return _scene_route(moved(grid_scene(10, 21), move))


PL_COLUMNS = ("pl_model_db", "pl_simplified_db", "pl_gpp_db",
              "pl_free_space_db")


def _assert_same_sets(got, want):
    """The LOS flags, stage counts and candidate and visible sets agree."""
    assert got.los.tolist() == want.los.tolist()
    assert got.n_stages.tolist() == want.n_stages.tolist()
    assert got.sides.tolist() == want.sides.tolist()
    assert got.visible.tolist() == want.visible.tolist()


def _assert_shifted(got, want):
    """A shifted frame's route: the same sets, path loss to 1e-9 dB."""
    _assert_same_sets(got, want)
    for name in PL_COLUMNS:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=0.0, atol=1e-9, err_msg=name)


def test_quarter_turns_and_shifts_keep_the_route():
    """Results depend on the scene, not its frame, where the frame change
    is exact: each quarter turn (x, y) -> (-y, x) keeps every path loss,
    field and power byte for byte, and the candidate and visible sets;
    a shift by millions of metres keeps the LOS flags, stage counts and
    sets, and the path loss to 1e-9 dB (2e-13 dB measured)."""
    want = _moved_grid_route(lambda x, y: (x, y))
    assert (~want.los).sum() >= 20 and want.n_stages.max() >= 3
    for turns in (1, 2, 3):
        def turn(x, y, turns=turns):
            for _ in range(turns):
                x, y = -y, x
            return x, y
        got = _moved_grid_route(turn)
        _assert_same_sets(got, want)
        for name in PL_COLUMNS + ("e_total", "power"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for dx, dy in ((5e5, 4.4e6), (3.3e6, 5.5e6)):
        _assert_shifted(_moved_grid_route(lambda x, y: (x + dx, y + dy)), want)


@st.composite
def box_cities(draw):
    """A 4 x 4 grid city at a 50 m pitch: each 30 m lot built at 60 % odds,
    with an integer height of 5 to 40 m; a TX at a street crossing; and an
    L-shaped route along the streets (x or y a multiple of 50 m) at a 2.5 m
    step, from one crossing to another through a third."""
    boxes = [(k, (50.0 * i + 10.0, 50.0 * j + 10.0, 50.0 * i + 40.0,
                  50.0 * j + 40.0, float(draw(st.integers(5, 40)))))
             for k, (i, j) in enumerate(np.ndindex(4, 4))
             if draw(st.integers(0, 4)) < 3]
    street = st.integers(0, 4).map(lambda i: 50.0 * i)
    x1, y0 = draw(street), draw(street)
    # the other ends, on other streets: (x1 + 50 k) % 250, k in 1..4
    x0, y1 = ((c + draw(street.filter(bool))) % 250.0 for c in (x1, y0))
    leg = lambda a, b: a + np.sign(b - a) * np.arange(0.0, abs(b - a), 2.5)
    route = ([(x, y0) for x in leg(x0, x1)] + [(x1, y) for y in leg(y0, y1)]
             + [(x1, y1)])
    return Scene("box city", build_map_dict(boxes),
                 [draw(street), draw(street), float(draw(st.integers(2, 30)))],
                 [(0.0, x, y, 1.5) for x, y in route], 1)


@settings(max_examples=100, deadline=None)
@given(box_cities(), st.integers(-10 ** 5, 10 ** 5), st.integers(-10 ** 5, 10 ** 5))
def test_integer_shifts_keep_box_city_routes(scene, dx, dy):
    """A box city's route, shifted by whole metres: both frames fail with
    the same domain error, or agree as a shift must (same sets, path loss
    to 1e-9 dB)."""
    outcomes = []
    for frame in (scene, moved(scene, lambda x, y: (x + dx, y + dy))):
        try:
            outcomes.append(_scene_route(frame))
        except NumericalDomainError as exc:
            outcomes.append(str(exc))
    want, got = outcomes
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        _assert_shifted(got, want)

"""Route evaluation through the worker pool against the serial path."""

import dataclasses

import numpy as np
import pytest

from conftest import CORNER_BOXES, build_map
from test_identify import _grid_scene
from urbanprop import kernels
from urbanprop.config import Route, ScenarioConfig
from urbanprop.doppler import PathComponent
from urbanprop.geometry import GeometryMap
from urbanprop.pipeline import predict_position, predict_route


def corner_street_route(n):
    """``n`` points up street B of the corner scene, LOS then NLOS."""
    y = np.linspace(0.0, 60.0, n)
    return Route(np.arange(n, dtype=np.float64),
                 np.stack([np.full(n, 59.0), y, np.full(n, 2.0)], axis=1))


def assert_same(a, b):
    """``a`` equals ``b`` through dataclass fields, lists, tuples and dicts;
    arrays must match in dtype, shape and bytes (dataclass ``==`` cannot
    compare array fields)."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    else:
        assert a == b


# (positions, workers): chunks of ceil(P / 4w) = 2 and 3 positions leave a
# shorter last chunk; the last case has fewer positions than workers.
@pytest.mark.parametrize("n, workers", [(11, 2), (17, 2), (2, 3)])
def test_pool_matches_serial(cfg, corner_map, n, workers):
    route = corner_street_route(n)
    serial = predict_route(cfg, corner_map, route)
    pooled = predict_route(cfg, corner_map, route, workers=workers)
    assert [r.index for r in pooled] == list(range(n))
    assert_same(pooled, serial)


def test_map_pickled_at_most_once_per_worker(cfg, monkeypatch):
    gmap = build_map(CORNER_BOXES)
    pickles = []

    def counting_getstate(self):
        pickles.append(1)
        return self.__dict__

    monkeypatch.setattr(GeometryMap, "__getstate__", counting_getstate,
                        raising=False)
    predict_route(cfg, gmap, corner_street_route(12), workers=2)
    assert len(pickles) <= 2



def test_kernel_calls_do_not_grow_with_candidates(monkeypatch):
    """One kernel call at most for the LOS query, one per sub-segment's
    visibility filter and one per chain, however many candidates."""
    gmap, tx, route = _grid_scene()
    cfg = ScenarioConfig(tx=tx)
    calls = []
    kernel = kernels.segment_triangles

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(kernels, "segment_triangles", counting)
    most = 0
    for rx in route:
        calls.clear()
        res = predict_position(cfg, gmap, rx)
        assert len(calls) <= 1 + len(res.vis.visible) + 1
        most = max(most, sum(len(s.left + s.right) for s in res.vis.sides))
    assert most >= 8


def test_array_holding_results_compare_by_identity(cfg, corner_map):
    """Results with array fields compare and hash by identity; the generated
    ``==`` compared the arrays and raised, and ``hash`` raised on an NLOS
    classification."""
    rx = np.array([59.0, 30.0, 2.0])
    first, second = (predict_position(cfg, corner_map, rx) for _ in range(2))
    assert not first.vis.classification.los
    route = corner_street_route(3)
    pairs = [
        (first, second),
        (first.vis.classification, second.vis.classification),
        (first.vis.sides[0], second.vis.sides[0]),
        (first.term, second.term),
        (route, Route(route.t, route.xyz)),
        (cfg, ScenarioConfig(tx=cfg.tx)),
        (PathComponent(rx, 1.0, "direct"), PathComponent(rx, 1.0, "direct")),
    ]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2 and hash(x) == hash(x)

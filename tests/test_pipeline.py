"""Route evaluation through the worker pool against the serial path."""

import concurrent.futures
import dataclasses

import numpy as np
import pytest

from conftest import CORNER_BOXES, build_map
from test_identify import _grid_scene
from urbanprop import kernels
from urbanprop.config import Route, ScenarioConfig
from urbanprop.errors import RouteError
from urbanprop.geometry import GeometryMap
from urbanprop.identify import identify_position
from urbanprop.link import extract_chain
from urbanprop.pipeline import RouteResult, predict_position, predict_route


def corner_street_route(n):
    """``n`` points up street B of the corner scene, LOS then NLOS."""
    y = np.linspace(0.0, 60.0, n)
    return Route(np.arange(n, dtype=np.float64),
                 np.stack([np.full(n, 59.0), y, np.full(n, 2.0)], axis=1))


# (positions, workers): chunks of ceil(P / 4w) = 2 and 3 positions leave a
# shorter last chunk; (2, 3) has fewer positions than workers.
@pytest.mark.parametrize("n, workers", [(11, 1), (11, 2), (17, 2), (2, 3),
                                        (17, 3)])
def test_pool_matches_serial(cfg, corner_map, n, workers):
    """Every column matches the serial route in dtype, shape and bytes
    (object columns by value)."""
    route = corner_street_route(n)
    serial = predict_route(cfg, corner_map, route)
    pooled = predict_route(cfg, corner_map, route, workers=workers)
    assert len(serial.los) == n
    for f in dataclasses.fields(RouteResult):
        a, b = getattr(pooled, f.name), getattr(serial, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), f.name
        else:
            assert a.tobytes() == b.tobytes(), f.name


@pytest.mark.parametrize("workers", [1, 2])
def test_empty_route_rejected_before_any_pool(cfg, corner_map, monkeypatch,
                                             workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(RouteError, match="at least one point"):
        predict_route(cfg, corner_map, Route(np.empty(0), np.empty((0, 3))),
                      workers=workers)


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
        sub_segments = 1 if res.los[0] else 2
        assert len(calls) <= 1 + sub_segments + 1
        sides = res.sides[0]
        most = max(most, len(sides["left"] + sides["right"]))
    assert most >= 8


def test_array_holding_results_compare_by_identity(cfg, corner_map):
    """Results with array fields compare and hash by identity; the generated
    ``==`` compared the arrays and raised, and ``hash`` raised on an NLOS
    classification."""
    rx = np.array([59.0, 30.0, 2.0])
    first, second = (predict_position(cfg, corner_map, rx) for _ in range(2))
    assert not first.los[0]
    vis, other = (identify_position(cfg.tx, rx, corner_map) for _ in range(2))
    route = corner_street_route(3)
    pairs = [
        (first, second),
        (vis.classification, other.classification),
        (vis.sides[0], other.sides[0]),
        (extract_chain(vis, cfg.tx, rx, corner_map)[1],
         extract_chain(other, cfg.tx, rx, corner_map)[1]),
        (route, Route(route.t, route.xyz)),
        (cfg, ScenarioConfig(tx=cfg.tx)),
    ]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2 and hash(x) == hash(x)

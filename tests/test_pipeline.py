"""Route evaluation through the worker pool against the serial path."""

import dataclasses

import numpy as np
import pytest

from conftest import CORNER_BOXES, build_map
from urbanprop.config import Route
from urbanprop.geometry import GeometryMap
from urbanprop.pipeline import predict_route


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


"""Route evaluation through the worker pool against the serial path."""

import numpy as np
import pytest

from conftest import CORNER_BOXES, build_map
from urbanprop.config import RoutePoint
from urbanprop.geometry import GeometryMap, Point3
from urbanprop.pipeline import predict_route


def corner_street_route(n):
    """``n`` points up street B of the corner scene, LOS then NLOS."""
    return [RoutePoint(float(i), Point3(59.0, float(y), 2.0))
            for i, y in enumerate(np.linspace(0.0, 60.0, n))]


# (positions, workers): chunks of ceil(P / 4w) = 2 and 3 positions leave a
# shorter last chunk; the last case has fewer positions than workers.
@pytest.mark.parametrize("n, workers", [(11, 2), (17, 2), (2, 3)])
def test_pool_matches_serial(cfg, corner_map, n, workers):
    route = corner_street_route(n)
    serial = predict_route(cfg, corner_map, route)
    pooled = predict_route(cfg, corner_map, route, workers=workers)
    assert [r.index for r in pooled] == list(range(n))
    assert pooled == serial


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


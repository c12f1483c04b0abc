"""Shared fixtures: canonical box scenes and scenario configuration."""

import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest

from urbanprop.config import ScenarioConfig
from urbanprop.geometry import map_from_dict


def box_entry(bid, x0, y0, x1, y1, h, z0=0.0):
    """Vertex and face dicts for one axis-aligned box building.

    Vertex order: bottom ring (x0,y0),(x1,y0),(x1,y1),(x0,y1), then the top
    ring in the same order.  Faces: four walls plus roof and floor.
    """
    v = [
        [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
        [x0, y0, h], [x1, y0, h], [x1, y1, h], [x0, y1, h],
    ]
    f = [
        {"building": bid, "v": [0, 1, 5, 4]},
        {"building": bid, "v": [1, 2, 6, 5]},
        {"building": bid, "v": [2, 3, 7, 6]},
        {"building": bid, "v": [3, 0, 4, 7]},
        {"building": bid, "v": [4, 5, 6, 7]},
        {"building": bid, "v": [3, 2, 1, 0]},
    ]
    return v, f


def build_map_dict(boxes):
    """Map JSON dict from a list of ``(bid, (x0, y0, x1, y1, h))`` boxes."""
    verts, faces, buildings = [], [], []
    for bid, box in boxes:
        v, f = box_entry(bid, *box)
        off = len(verts)
        verts += v
        for face in f:
            face = dict(face)
            face["v"] = [i + off for i in face["v"]]
            faces.append(face)
        buildings.append({"id": bid})
    return {"vertices": verts, "faces": faces, "buildings": buildings}


def build_map(boxes):
    return map_from_dict(build_map_dict(boxes))


def roof_ring(gmap, bid):
    """The roof-ring vertex ids of building ``bid``, ascending."""
    rows, _size = gmap.roof_rows(np.array([gmap.ids.tolist().index(bid)]))
    return gmap.roof_vertex[rows]


UNIT_CUBE = [(0, (0.0, 0.0, 1.0, 1.0, 1.0))]

# Straight street along x at y = 0; the first block exists on the left side
# only, so nearby receivers get single-stage chains.
CANYON_BOXES = [
    (0, (20.0, 12.0, 50.0, 32.0, 20.0)),
    (1, (60.0, 12.0, 90.0, 32.0, 20.0)),
    (2, (100.0, 12.0, 130.0, 32.0, 20.0)),
    (3, (60.0, -32.0, 90.0, -12.0, 20.0)),
    (4, (100.0, -32.0, 130.0, -12.0, 20.0)),
]

# Street corner: street A along x (y in [-8, 8]), street B along y
# (x in [50, 68]); building 2 blocks the view around the corner.
CORNER_BOXES = [
    (0, (20.0, 8.0, 50.0, 40.0, 25.0)),
    (1, (20.0, -40.0, 50.0, -8.0, 25.0)),
    (2, (68.0, 8.0, 100.0, 40.0, 25.0)),
    (3, (68.0, -40.0, 100.0, -8.0, 25.0)),
    (4, (20.0, 48.0, 50.0, 80.0, 25.0)),
    (5, (68.0, 48.0, 100.0, 80.0, 25.0)),
]

TX = np.array([0.0, 0.0, 2.0])

CANYON_ROUTE_X = [5.0, 15.0, 30.0, 45.0, 55.0, 75.0, 95.0, 115.0, 135.0]
CORNER_ROUTE_Y = [0.0, 6.0, 14.0, 22.0, 30.0, 45.0, 52.0, 60.0]


@pytest.fixture(scope="session")
def empty_map():
    return map_from_dict({"vertices": [], "faces": [], "buildings": []})


@pytest.fixture(scope="session")
def unit_cube_map():
    return build_map(UNIT_CUBE)


@pytest.fixture(scope="session")
def canyon_map():
    return build_map(CANYON_BOXES)


@pytest.fixture(scope="session")
def corner_map():
    return build_map(CORNER_BOXES)


@pytest.fixture(scope="session")
def tx():
    return TX


@pytest.fixture(scope="session")
def cfg():
    return ScenarioConfig(tx=TX)


def canyon_route():
    return [np.array([x, 0.0, 2.0]) for x in CANYON_ROUTE_X]


def corner_route():
    return [np.array([59.0, y, 2.0]) for y in CORNER_ROUTE_Y]


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Corner-scene map, route and config files on disk."""
    root = tmp_path_factory.mktemp("scenario")
    map_path = root / "map.json"
    map_path.write_text(json.dumps(build_map_dict(CORNER_BOXES)))
    route_path = root / "route.csv"
    with open(route_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z"])
        for i, y in enumerate(CORNER_ROUTE_Y):
            writer.writerow([0.5 * i, 59.0, y, 2.0])
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "map_path": str(map_path),
        "route_path": str(route_path),
        "tx": [0.0, 0.0, 2.0],
    }))
    return {"root": root, "map": map_path, "route": route_path,
            "config": cfg_path}


def set_usable_cpus(monkeypatch, n):
    """Make ``n`` CPUs the ones this process may run on, as the pool's width
    rule reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture
def pool_widths(monkeypatch):
    """The width of each process pool started, in order.  The pools are
    real; eight CPUs are usable, so that the route and the worker count
    decide each width on any host."""
    widths = []
    executor = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        widths.append(max_workers)
        return executor(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    set_usable_cpus(monkeypatch, 8)
    return widths

"""Shared fixtures: canonical box scenes and scenario configuration, the
one helper set that writes, moves and reads scenes: ``Scene``,
``write_inputs``, ``grid_module`` and ``grid_scene``, ``moved`` (with
``rotation``) and ``read_rows``, and ``predict_one`` for a lone position."""

import concurrent.futures
import csv
import json
import math
import os
from collections import namedtuple

import numpy as np
import pytest

from benchscene import grid_module
from urbanprop.config import Route, ScenarioConfig
from urbanprop.geometry import map_from_dict
from urbanprop.pipeline import predict_route

# a map dict, a TX [x, y, z], route rows (t, x, y, z) and a worker count
Scene = namedtuple("Scene", "name map tx route workers")


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

# one finite, planar face in y = 0 whose last roof-ring wall, from x = 1.7e308
# to x = -1.7e308, is longer than the float range
RING_OVERFLOW_MAP = {
    "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 10.0],
                 [1.7e308, 0.0, 10.0], [-1.7e308, 0.0, 10.0]],
    "faces": [{"building": 0, "v": [0, 1, 2, 3, 4]}],
    "buildings": [{"id": 0}]}

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


def predict_one(cfg, gmap, rx):
    """The ``RouteResult`` of the lone position ``rx``: ``predict_route`` of a
    one-point route."""
    return predict_route(cfg, gmap, Route(np.zeros(1), np.reshape(rx, (1, 3))))


def canyon_route():
    return [np.array([x, 0.0, 2.0]) for x in CANYON_ROUTE_X]


def corner_route():
    return [np.array([59.0, y, 2.0]) for y in CORNER_ROUTE_Y]


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Corner-scene map, route and config files on disk."""
    root = tmp_path_factory.mktemp("scenario")
    write_inputs(Scene("corner", build_map_dict(CORNER_BOXES), TX.tolist(),
                       [(0.5 * i, 59.0, y, 2.0)
                        for i, y in enumerate(CORNER_ROUTE_Y)], 1), root)
    return {"map": root / "map.json", "route": root / "route.csv",
            "config": root / "scenario.json"}


def write_inputs(scene, directory):
    """Write the scene's map, route and config to ``directory``; return the
    config path."""
    os.makedirs(directory, exist_ok=True)
    paths = {k: os.path.join(directory, k) for k in
             ("map.json", "route.csv", "scenario.json")}
    with open(paths["map.json"], "w", encoding="utf-8") as fh:
        json.dump(scene.map, fh, separators=(",", ":"))
    with open(paths["route.csv"], "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y", "z"])
        writer.writerows(scene.route)
    with open(paths["scenario.json"], "w", encoding="utf-8") as fh:
        json.dump({"map_path": paths["map.json"],
                   "route_path": paths["route.csv"], "tx": scene.tx}, fh)
    return paths["scenario.json"]


def read_rows(path):
    """The rows of an output file: JSONL records as parsed, CSV rows as
    dicts of text."""
    with open(path, encoding="utf-8", newline="") as fh:
        if os.fspath(path).endswith(".jsonl"):
            return [json.loads(line) for line in fh if line.strip()]
        return list(csv.DictReader(fh))


def grid_scene(n, seed, step=2.5, workers=1):
    """The benchmark's n x n grid city for ``seed``, its TX and its route
    sampled every ``step`` metres."""
    grid = grid_module()
    return Scene(f"grid{n}_s{seed}_w{workers}", grid.city_map(n, seed),
                 grid.tx_position(n), grid.route_points(n, step), workers)


def rotation(degrees):
    """``move(x, y)``: a turn by ``degrees`` about the origin."""
    c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
    return lambda x, y: (c * x - s * y, s * x + c * y)


def moved(scene, move):
    """``scene`` with its vertices, TX and route mapped through ``move(x,
    y)``.  Where ``move`` flips orientation, each face's vertex order is
    reversed, so that its normal still points out of the building."""
    (x0, y0), (x1, y1), (x2, y2) = (move(x, y) for x, y in
                                    ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    raw = {**scene.map, "vertices": [[*move(x, y), z]
                                     for x, y, z in scene.map["vertices"]]}
    if (x1 - x0) * (y2 - y0) < (y1 - y0) * (x2 - x0):
        raw["faces"] = [{**f, "v": f["v"][::-1]} for f in raw["faces"]]
    x, y, z = scene.tx
    return scene._replace(map=raw, tx=[*move(x, y), z], route=[
        (t, *move(x, y), z) for t, x, y, z in scene.route])


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

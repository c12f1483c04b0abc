"""Seeded grid city and LOS-then-NLOS route, written as the program's input files.

The city is an n x n grid of axis-aligned box buildings: 30 m x 30 m
footprints on a 50 m pitch, so streets are 20 m wide with centrelines at
multiples of 50 m.  Heights are drawn uniformly from [10, 40] m by a
``random.Random(seed)``, whose stream is fixed across Python versions.

With c = 50 * (n // 2) the TX stands in the street at (c - 125, c, 2).  The
route runs east along y = c from x = c - 115 to c + 145 (the LOS leg), then
turns left, north along x = c + 150 for 145 m (the NLOS leg).  Receivers are
at z = 1.5 m, one sample every 0.5 s.

Heights decide little: every roof stands above the TX and the receivers,
and diffraction points sit at the height of the propagation line.  They do
enter the visibility filter, and on a few seeds in a hundred one position
identifies other buildings.  A left turn keeps the route on the side the
identification rule already favours, so a later fix of the corner rule's
handedness leaves the pinned references valid.
"""

import csv
import json
import os
import random

PITCH = 50.0
FOOTPRINT = 30.0
HEIGHT_RANGE = (10.0, 40.0)
TX_Z = 2.0
RX_Z = 1.5
SAMPLE_DT = 0.5

# Vertex order of one box: bottom ring, then top ring.  Faces are the four
# walls, the roof and the floor: 6 quads, fanned into 12 triangles at load.
_BOX_FACES = ((0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
              (4, 5, 6, 7), (3, 2, 1, 0))


def city_map(n, seed):
    """Map JSON dict of the n x n grid city for ``seed``."""
    rng = random.Random(seed)
    margin = (PITCH - FOOTPRINT) / 2.0
    vertices, faces, buildings = [], [], []
    for j in range(n):
        for i in range(n):
            bid = j * n + i
            x0, y0 = PITCH * i + margin, PITCH * j + margin
            x1, y1 = x0 + FOOTPRINT, y0 + FOOTPRINT
            h = round(rng.uniform(*HEIGHT_RANGE), 3)
            off = len(vertices)
            for z in (0.0, h):
                vertices += [[x0, y0, z], [x1, y0, z], [x1, y1, z], [x0, y1, z]]
            faces += [{"building": bid, "v": [off + k for k in f]}
                      for f in _BOX_FACES]
            buildings.append({"id": bid})
    return {"vertices": vertices, "faces": faces, "buildings": buildings}


def centre(n):
    return PITCH * (n // 2)


def tx_position(n):
    c = centre(n)
    return [c - 125.0, c, TX_Z]


def route_points(n, step):
    """``(t, x, y, z)`` rows: the LOS leg east, then the NLOS leg north.

    ``step`` must divide both leg lengths (260 m and 145 m); positions are
    computed from integer counts so no rounding accumulates.
    """
    c = centre(n)
    n_los = round(260.0 / step) + 1
    n_nlos = round(145.0 / step)
    xy = [(c - 115.0 + k * step, c) for k in range(n_los)]
    xy += [(c + 150.0, c + k * step) for k in range(1, n_nlos + 1)]
    return [(k * SAMPLE_DT, x, y, RX_Z) for k, (x, y) in enumerate(xy)]


def write_scene(directory, n, seed, step, stride=1):
    """Write ``map.json``, ``route.csv`` and ``scenario.json``; return their paths.

    ``stride`` keeps every stride-th route position (the smoke test's few).
    """
    os.makedirs(directory, exist_ok=True)
    map_path = os.path.join(directory, "map.json")
    route_path = os.path.join(directory, "route.csv")
    config_path = os.path.join(directory, "scenario.json")
    with open(map_path, "w", encoding="utf-8") as fh:
        json.dump(city_map(n, seed), fh, separators=(",", ":"))
    points = route_points(n, step)[::stride]
    with open(route_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y", "z"])
        writer.writerows(points)
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"map_path": os.path.abspath(map_path),
                   "route_path": os.path.abspath(route_path),
                   "tx": tx_position(n)}, fh, indent=2)
    return {"config": config_path, "map": map_path, "route": route_path,
            "positions": len(points)}

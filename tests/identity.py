"""Byte-identity scene list: the ``identify``, ``predict`` and ``doppler``
outputs of 29 fixed scenes (87 files), for comparing two versions of the
program output by output.

    PYTHONPATH=src python tests/identity.py OUT_BEFORE
    ... change the program ...
    PYTHONPATH=src python tests/identity.py OUT_AFTER
    PYTHONPATH=src python tests/identity.py --compare OUT_BEFORE OUT_AFTER

``--compare`` prints every cell that differs between the two trees, with
its relative difference, and exits 1 if a file, row or column is missing
on one side, an exact field (``EXACT``) differs, or a number differs by
more than ``COMPARE_REL`` relative; else 0.

Each scene's outputs go to ``OUT/<scene>/``; its input files are written to
a temporary directory, so only outputs are compared.  The scenes:

- the benchmark's grid cities at n = 10 (2.5 m step), 20 and 40 (5 m
  step), seeds 0, 1, 2 and 21, and seed 21 again at 2 workers;
- n = 10, seed 21 at a 0.5 m step and 2 workers: 811 positions, 13 blocks,
  enough for the route to run on the worker pool;
- n = 10, seeds 3 and 4, with the TX raised to 15, 25 and 45 m, above
  some roofs;
- the seed-21 n = 10 city, its TX and route turned 30 degrees about the
  origin (``TestPredict::test_rotated_grid_scene_runs[30.0]``);
- the canyon and corner fixtures on L-shaped routes, and their y-mirrors
  (y negated and each face's vertex order reversed);
- two seeded 6 x 6 cities of polygon prisms on a 50 m pitch: 5-, 6- and
  8-gons at random turns, boxes with a collinear vertex mid-edge, and
  L-shapes.

Like ``oracles.py``, pytest does not collect this file;
``test_identity_scenes.py`` checks that every scene loads.  The scenes are
written and moved through the helper set of ``conftest.py``.
"""

import contextlib
import io
import math
import os
import random
import sys
import tempfile

from conftest import (CANYON_BOXES, CORNER_BOXES, TX, Scene, build_map_dict,
                      grid_scene, moved, read_rows, rotation, write_inputs)
from urbanprop import cli

COMMANDS = ("identify", "predict", "doppler")

# output fields compared exactly; every other field is a number
EXACT = {"index", "los", "bp", "sides", "visible", "n_stages", "n_paths"}
COMPARE_REL = 1e-9


def _l_route(east, y0, x_turn, north, z=1.5, dt=0.5):
    """Route rows ``(t, x, y, z)``, one every ``dt`` seconds: east along
    ``y = y0`` through the x values ``east``, then north along ``x = x_turn``
    through the y values ``north``."""
    xy = [(x, y0) for x in east] + [(x_turn, y) for y in north]
    return [(k * dt, x, y, z) for k, (x, y) in enumerate(xy)]


def prism(bid, xy, h, offset):
    """Vertices and faces of a vertical prism over the counter-clockwise
    footprint ``xy``, whose first three vertices are not collinear."""
    m = len(xy)
    verts = [[x, y, z] for z in (0.0, h) for x, y in xy]
    ids = [offset + k for k in range(2 * m)]
    walls = [[ids[k], ids[(k + 1) % m], ids[m + (k + 1) % m], ids[m + k]]
             for k in range(m)]
    roof = ids[m:]
    floor = [ids[2], ids[1], ids[0]] + ids[m - 1:2:-1]
    return verts, [{"building": bid, "v": f} for f in walls + [roof, floor]]


def _footprint(rng, cx, cy):
    """A random footprint inside the 30 m square centred on (cx, cy)."""
    kind = rng.choice(("5-gon", "6-gon", "8-gon", "mid-edge box", "L"))
    if kind.endswith("gon"):
        k = int(kind[0])
        turn = rng.uniform(0.0, 2.0 * math.pi / k)
        return [(cx + 15.0 * math.cos(turn + 2.0 * math.pi * i / k),
                 cy + 15.0 * math.sin(turn + 2.0 * math.pi * i / k))
                for i in range(k)]
    x0, y0, x1, y1 = cx - 15.0, cy - 15.0, cx + 15.0, cy + 15.0
    if kind == "mid-edge box":
        # the collinear vertex is fourth, so the leading three span the face
        return [(x0, y0), (x1, y0), (x1, y1),
                (round(rng.uniform(x0 + 5.0, x1 - 5.0), 3), y1), (x0, y1)]
    a = round(rng.uniform(10.0, 20.0), 3)
    local = [(0.0, 0.0), (30.0, 0.0), (30.0, a), (a, a), (a, 30.0), (0.0, 30.0)]
    for _ in range(rng.randrange(4)):       # quarter turns, exact
        local = [(30.0 - y, x) for x, y in local]
    return [(x0 + x, y0 + y) for x, y in local]


def polygon_city(seed, n=6, pitch=50.0):
    """Map dict of an n x n city of random polygon prisms, 10-40 m tall."""
    rng = random.Random(seed)
    verts, faces, buildings = [], [], []
    for j in range(n):
        for i in range(n):
            bid = j * n + i
            xy = _footprint(rng, pitch * (i + 0.5), pitch * (j + 0.5))
            v, f = prism(bid, xy, round(rng.uniform(10.0, 40.0), 3), len(verts))
            verts += v
            faces += f
            buildings.append({"id": bid})
    return {"vertices": verts, "faces": faces, "buildings": buildings}


def scenes():
    """Every scene of the list, in output order."""
    out = [grid_scene(n, seed, step, workers)
           for n, step in ((10, 2.5), (20, 5.0), (40, 5.0))
           for seed, workers in ((0, 1), (1, 1), (2, 1), (21, 1), (21, 2))]
    out.append(grid_scene(10, 21, 0.5, 2)._replace(name="grid10_s21_w2_step0.5"))
    for seed in (3, 4):
        for tx_z in (15.0, 25.0, 45.0):
            scene = grid_scene(10, seed)
            out.append(scene._replace(name=f"grid10_s{seed}_tx{tx_z:g}",
                                      tx=[*scene.tx[:2], tx_z]))
    out.append(moved(grid_scene(10, 21)._replace(name="grid10_s21_turn30"),
                     rotation(30.0)))
    tx = TX.tolist()
    fixtures = {
        "canyon": (build_map_dict(CANYON_BOXES), _l_route(
            [5.0 + 2.5 * k for k in range(37)], 0.0, 95.0,
            [2.5 * k for k in range(1, 17)])),
        "corner": (build_map_dict(CORNER_BOXES), _l_route(
            [4.0 + 2.5 * k for k in range(23)], 0.0, 59.0,
            [2.5 * k for k in range(1, 25)])),
    }
    for name, (raw, route) in fixtures.items():
        out.append(Scene(name, raw, tx, route, 1))
        out.append(moved(Scene(name + "_mirror", raw, tx, route, 1),
                         lambda x, y: (x, 0.0 - y)))
    for seed in (0, 1):
        out.append(grid_scene(6, seed, 5.0)._replace(
            name=f"polygons6_s{seed}", map=polygon_city(seed)))
    return out


def run(out):
    """Write every scene's outputs under ``out``."""
    with tempfile.TemporaryDirectory() as tmp:
        for scene in scenes():
            config = write_inputs(scene, os.path.join(tmp, scene.name))
            for command in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["--config", config, "--workers",
                                     str(scene.workers), "--output",
                                     os.path.join(out, scene.name), command])
                if code != 0:
                    raise SystemExit(f"{scene.name} {command}: exit {code}")


def _cells(path):
    """``{(row, field): value}`` of an output file: CSV cells as text,
    JSONL fields as parsed."""
    return {(i, k): v for i, row in enumerate(read_rows(path))
            for k, v in row.items()}


def relative_difference(a, b):
    """|a - b| / max(|a|, |b|) of two numbers written as text: 0 when they
    are equal, inf when either is not a finite number."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(before, after, out=sys.stdout):
    """Print each differing cell of two output trees; 1 if one fails (see
    the module docstring), else 0."""
    names = sorted({os.path.relpath(os.path.join(d, f), root)
                    for root in (before, after)
                    for d, _dirs, files in os.walk(root) for f in files})
    failed = changed = 0
    for name in names:
        paths = [os.path.join(root, name) for root in (before, after)]
        if not all(map(os.path.isfile, paths)):
            print(f"{name}: only in {paths[os.path.isfile(paths[1])]}", file=out)
            failed += 1
            continue
        cells = [_cells(p) for p in paths]
        for row, field in sorted(cells[0].keys() | cells[1].keys()):
            a, b = (c.get((row, field), "<missing>") for c in cells)
            if a == b:
                continue
            diff = math.inf if field in EXACT else relative_difference(a, b)
            print(f"{name} row {row} {field}: {a} -> {b} (relative {diff:.3g})",
                  file=out)
            changed += 1
            failed += not diff <= COMPARE_REL
    print(f"{changed} cells differ in {len(names)} files; {failed} fail",
          file=out)
    return int(failed > 0)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        raise SystemExit(compare(*sys.argv[2:]))
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT | --compare BEFORE AFTER")
    run(sys.argv[1])

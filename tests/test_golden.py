"""Pinned CLI outputs on two scenes: the golden corpus.

``tests/golden/`` holds the ``identify``, ``predict`` and ``doppler`` outputs
of the canyon fixture and of a 10 x 10 grid city, one file per command with
a leading ``scene`` field.  A change to the occlusion kernel, the map
topology or the chain construction must reproduce them:

    * identification fields (index, LOS flag, sides, visible ids, stage and
      path counts) are equal;
    * every other field is a number within 1e-9 relative of the pinned one.
      The CLI prints 10 significant digits, so one unit of rounding in the
      last digit stays inside that.  Values that are zero up to rounding
      noise get an absolute floor of 1e-9 in the column's unit, except the
      field magnitude ``e_abs``, which is compared relatively only.

Regenerating the corpus changes the pinned behaviour; record why in
CHANGES.md.  Regenerate from the repository root with::

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import os

import pytest

from conftest import CANYON_BOXES, CANYON_ROUTE_X, TX, build_map_dict
from urbanprop.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
COMMANDS = {"identify": "identify.jsonl", "predict": "predict.csv",
            "doppler": "doppler.csv"}
EXACT_FIELDS = frozenset({"scene", "index", "los", "sides", "visible",
                          "n_stages", "n_paths"})
REL_TOL = 1e-9
ABS_FLOOR = 1e-9
NO_FLOOR = frozenset({"e_abs"})


def _grid_scene():
    """10 x 10 city of 30 m boxes on a 50 m pitch; route east (LOS), then north.

    Heights follow a fixed integer pattern in [10, 40] m.  The TX stands in
    the street y = 250; the route turns left into the street x = 400.
    """
    boxes = []
    for j in range(10):
        for i in range(10):
            x0, y0 = 50.0 * i + 10.0, 50.0 * j + 10.0
            h = 10.0 + (7 * i + 13 * j) % 31
            boxes.append((10 * j + i, (x0, y0, x0 + 30.0, y0 + 30.0, h)))
    xy = [(135.0 + 10.0 * k, 250.0) for k in range(27)]
    xy += [(400.0, 250.0 + 15.0 * k) for k in range(1, 10)]
    return boxes, [125.0, 250.0, 2.0], xy


def scenes():
    tx = [TX.x, TX.y, TX.z]
    canyon = (CANYON_BOXES, tx, [(x, 0.0) for x in CANYON_ROUTE_X])
    return {"canyon": canyon, "grid100": _grid_scene()}


def _write_inputs(directory, boxes, tx, xy):
    os.makedirs(directory, exist_ok=True)
    map_path = os.path.join(directory, "map.json")
    route_path = os.path.join(directory, "route.csv")
    config_path = os.path.join(directory, "scenario.json")
    with open(map_path, "w", encoding="utf-8") as fh:
        json.dump(build_map_dict(boxes), fh)
    with open(route_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "y", "z"])
        writer.writerows((0.5 * k, x, y, 1.5) for k, (x, y) in enumerate(xy))
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump({"map_path": map_path, "route_path": route_path, "tx": tx}, fh)
    return config_path


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".jsonl"):
            return [json.loads(line) for line in fh if line.strip()]
        return list(csv.DictReader(fh))


def run_corpus(work_dir):
    """``{command: rows}`` of every scene, each row tagged with its scene."""
    out = {command: [] for command in COMMANDS}
    for name, (boxes, tx, xy) in scenes().items():
        scene_dir = os.path.join(work_dir, name)
        config = _write_inputs(scene_dir, boxes, tx, xy)
        for command, filename in COMMANDS.items():
            assert main(["--config", config, "--output", scene_dir, command]) == 0
            rows = _read_rows(os.path.join(scene_dir, filename))
            out[command] += [{"scene": name, **row} for row in rows]
    return out


def _close(name, got, want):
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(name, g, w) for g, w in zip(got, want)))
    if want is None or got is None:
        return got is want
    a, b = float(got), float(want)
    diff = abs(a - b)
    if diff <= REL_TOL * max(abs(a), abs(b)):
        return True
    return name not in NO_FLOOR and diff <= ABS_FLOOR


def mismatches(rows, want_rows):
    if len(rows) != len(want_rows):
        return [f"{len(rows)} rows, expected {len(want_rows)}"]
    out = []
    for row, want in zip(rows, want_rows):
        for name, value in want.items():
            ok = (row.get(name) == value if name in EXACT_FIELDS
                  else name in row and _close(name, row[name], value))
            if not ok:
                out.append(f"{want['scene']}[{want['index']}].{name}: "
                           f"{row.get(name)!r} != {value!r}")
    return out


def write_corpus(corpus):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for command, filename in COMMANDS.items():
        rows = corpus[command]
        path = os.path.join(GOLDEN_DIR, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if filename.endswith(".jsonl"):
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            else:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                        lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_matches_golden_corpus(corpus, command):
    want = _read_rows(os.path.join(GOLDEN_DIR, COMMANDS[command]))
    assert mismatches(corpus[command], want) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        write_corpus(run_corpus(work))
    print(f"wrote {', '.join(COMMANDS.values())} to {GOLDEN_DIR}")

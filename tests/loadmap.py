"""Map load walls, a parent checkout against a change: in-process medians of
``json.loads``, ``geometry.map_from_dict`` and ``geometry.load_map`` on the
benchmark's seed-21 grid maps.

    python3 tests/loadmap.py PARENT_DIR CHANGE_DIR [--rounds 10] [--calls 30]

The maps are ``perfbench/scene.py``'s n x n grid cities for n = 10, 20 and
40 (100, 400 and 1,600 buildings, loaded by path, read only), written as
the benchmark writes them.  Each round starts one new process per
checkout, the parent first in even rounds and the change first in odd
ones.  That process imports ``urbanprop`` from the checkout's ``src`` and,
per map, times ``--calls`` calls of each stage: ``json.loads`` of the
file's text, ``map_from_dict`` of that freshly parsed document, and
``load_map`` of the file.  It reports each stage's median.

It prints one table row per map and stage: the median of the rounds'
medians on each side, change over parent, and how many rounds the change
was faster.  ``--rounds 1 --calls 1`` is its quickest run.  Like
``identity.py``, pytest does not collect this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchscene import grid_module

SIDES = (10, 20, 40)
SEED = 21
STAGES = ("json.loads", "map_from_dict", "load_map")


def child(root, calls, paths):
    """Per map path, ``{stage: median seconds}`` of ``calls`` calls, with
    ``urbanprop`` imported from the checkout ``root``."""
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from urbanprop import geometry
    if not Path(geometry.__file__).resolve().is_relative_to(Path(root).resolve()):
        raise SystemExit(f"urbanprop imported from {geometry.__file__}, "
                         f"not from {root}")
    out = {}
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        walls = {stage: [] for stage in STAGES}
        for _ in range(calls):
            t0 = time.perf_counter()
            raw = json.loads(text)
            t1 = time.perf_counter()
            geometry.map_from_dict(raw)
            t2 = time.perf_counter()
            geometry.load_map(path)
            t3 = time.perf_counter()
            for stage, wall in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
                walls[stage].append(wall)
        out[path] = {stage: statistics.median(w) for stage, w in walls.items()}
    return out


def run_child(checkout, calls, paths):
    proc = subprocess.run(
        [sys.executable, __file__, "--child", checkout, str(calls), *paths],
        capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"map load run in {checkout} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_maps(directory):
    """``{n: path}`` of the seed-21 grid maps, written as the benchmark does."""
    scene = grid_module()
    paths = {}
    for n in SIDES:
        paths[n] = os.path.join(directory, f"grid{n * n}.json")
        with open(paths[n], "w", encoding="utf-8") as fh:
            json.dump(scene.city_map(n, SEED), fh, separators=(",", ":"))
    return paths


def main(argv=None):
    if (sys.argv[1:] if argv is None else argv)[:1] == ["--child"]:
        root, calls, *paths = (sys.argv[2:] if argv is None else argv[1:])
        print(json.dumps(child(root, int(calls), paths)))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--calls", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_maps(tmp)
        sizes = {n: os.path.getsize(p) for n, p in paths.items()}
        got = {"parent": [], "change": []}
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                got[side].append(run_child(getattr(args, side), args.calls,
                                           list(paths.values())))
    print(f"seed-{SEED} grid maps, {args.rounds} rounds of {args.calls} calls; "
          f"medians of the rounds' medians")
    print("| map | stage | parent | change | change / parent | rounds the "
          "change won |")
    print("|---|---|---|---|---|---|")
    for n, path in paths.items():
        for stage in STAGES:
            parent = [r[path][stage] for r in got["parent"]]
            change = [r[path][stage] for r in got["change"]]
            won = sum(c < p for p, c in zip(parent, change))
            p, c = statistics.median(parent), statistics.median(change)
            print(f"| grid{n * n} ({sizes[n] / 1e3:.0f} KB) | {stage} "
                  f"| {1e3 * p:.2f} ms | {1e3 * c:.2f} ms | {c / p:.3f} "
                  f"| {won} of {args.rounds} |", flush=True)


if __name__ == "__main__":
    main()

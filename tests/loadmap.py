"""Map load walls, a parent checkout against a change: in-process medians of
``json.loads``, ``geometry.map_from_dict`` and ``geometry.load_map`` on the
benchmark's seed-21 grid maps, with the collector passes and minor page
faults of each call.

    python3 tests/loadmap.py PARENT_DIR CHANGE_DIR [--rounds 10] [--calls 30]

The maps are ``perfbench/scene.py``'s n x n grid cities for n = 10, 20 and
40 (100, 400 and 1,600 buildings, loaded by path, read only), written as
the benchmark writes them.  Each round starts one new process per
checkout, the parent first in even rounds and the change first in odd
ones.  That process imports ``urbanprop`` from the checkout's ``src`` and,
per map, times ``--calls`` calls of each stage: ``json.loads`` of the
file's text, ``map_from_dict`` of that freshly parsed document (released
as the call returns), ``load_map`` of the file, and ``load_map`` again
right after a ``gc.collect()``, as ``perfbench/run.py`` times ``setup_s``.
Each call also counts the garbage collector's passes (``gc.callbacks``) and
the process's minor page faults (``resource.getrusage``).  It reports each
stage's medians.

It prints one table row per map and stage: the median of the rounds'
medians on each side, change over parent, how many rounds the change was
faster, and the collector passes and minor faults per call on each side.
``--rounds 1 --calls 1`` is its quickest run.  Like ``identity.py``, pytest
does not collect this file.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchscene import grid_module

SIDES = (10, 20, 40)
SEED = 21
STAGES = ("json.loads", "map_from_dict", "load_map", "collect, load_map")


def measure(fn, passes, collect=False):
    """Seconds, collector passes and minor page faults of one call of ``fn``,
    after a ``gc.collect()`` if ``collect``; ``passes`` grows by one per pass."""
    if collect:
        gc.collect()
    n, faults = len(passes), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    return (wall, len(passes) - n,
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)


def child(root, calls, paths):
    """Per map path, ``{stage: [seconds, passes, faults]}``, medians of
    ``calls`` calls, with ``urbanprop`` imported from the checkout ``root``."""
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from urbanprop import geometry
    if not Path(geometry.__file__).resolve().is_relative_to(Path(root).resolve()):
        raise SystemExit(f"urbanprop imported from {geometry.__file__}, "
                         f"not from {root}")
    passes, docs, out = [], [], {}
    gc.callbacks.append(lambda phase, info: passes.append(1)
                        if phase == "start" else None)
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        runs = {stage: [] for stage in STAGES}
        for _ in range(calls):
            for stage, call in zip(STAGES, (
                    measure(lambda: docs.append(json.loads(text)), passes),
                    measure(lambda: geometry.map_from_dict(docs.pop()), passes),
                    measure(lambda: geometry.load_map(path), passes),
                    measure(lambda: geometry.load_map(path), passes, True))):
                runs[stage].append(call)
        out[path] = {stage: [statistics.median(x) for x in zip(*r)]
                     for stage, r in runs.items()}
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
          f"medians of the rounds' medians; passes and faults per call")
    print("| map | stage | parent | change | change / parent | rounds the "
          "change won | collector passes | minor faults |")
    print("|---|---|---|---|---|---|---|---|")
    for n, path in paths.items():
        for stage in STAGES:
            (p, pp, pf), (c, cp, cf) = (
                [statistics.median(x) for x in zip(*(r[path][stage] for r in runs))]
                for runs in (got["parent"], got["change"]))
            won = sum(rc[path][stage][0] < rp[path][stage][0]
                      for rp, rc in zip(got["parent"], got["change"]))
            print(f"| grid{n * n} ({sizes[n] / 1e3:.0f} KB) | {stage} "
                  f"| {1e3 * p:.2f} ms | {1e3 * c:.2f} ms | {c / p:.3f} "
                  f"| {won} of {args.rounds} | {pp:g} → {cp:g} "
                  f"| {pf:g} → {cf:g} |", flush=True)


if __name__ == "__main__":
    main()

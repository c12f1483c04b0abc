"""Where a worker pool pays: in-process ``predict_route`` walls, serial
against a pool, for routes of several lengths in blocks, on a seeded grid
city of the benchmark.

    PYTHONPATH=src python3 tests/crossover.py [--n 40] [--seed 21] \\
        [--blocks 2 3 4 5 6 7 8 13] [--runs 9] [--workers 2]

The scene is ``perfbench/scene.py``'s n x n grid city for ``--seed``
(loaded by path, read only).  A route of B blocks holds B * ``BLOCK``
positions, spread evenly over the scene's L-shaped route sampled every
0.25 m, so every block is full.  Each route runs once serially and once on
the pool to warm up, then ``--runs`` times each, alternating which side
runs first.  The pooled runs start a pool of ``--workers`` (no wider than
the route has blocks or the CPUs this process may run on) whatever
``pipeline.POOL_BLOCKS`` says; every pooled route is checked against the
serial one.

It prints one table row per route: blocks, positions, the median serial and
pooled walls, how many runs the pool won, and the width that
``pipeline.pool_width`` gives the route at ``--workers``, so the rows where
the rule starts a pool can be read against the rows where the pool wins.
Like ``identity.py``, pytest does not collect this file.
"""

import argparse
import statistics
import time

import numpy as np

from conftest import grid_module
from test_pipeline import assert_same_columns
from urbanprop import pipeline
from urbanprop.config import Route, ScenarioConfig
from urbanprop.geometry import map_from_dict

DENSE_STEP = 0.25   # metres; divides both legs of the route


def _wall(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def walls(cfg, gmap, route, workers, runs):
    """``(serial, pooled)`` wall lists of ``runs`` alternating runs each."""
    def serial():
        return pipeline.predict_route(cfg, gmap, route)

    def pooled():
        rule, pipeline.POOL_BLOCKS = pipeline.POOL_BLOCKS, 1   # one per block
        try:
            return pipeline.predict_route(cfg, gmap, route, workers=workers)
        finally:
            pipeline.POOL_BLOCKS = rule

    assert_same_columns(pooled(), serial())
    out = {serial: [], pooled: []}
    for k in range(runs):
        for side in ((serial, pooled) if k % 2 == 0 else (pooled, serial)):
            out[side].append(_wall(side))
    return out[serial], out[pooled]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40,
                        help="the grid city's side, in buildings")
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--blocks", type=int, nargs="+",
                        default=[2, 3, 4, 5, 6, 7, 8, 13])
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    scene = grid_module()
    gmap = map_from_dict(scene.city_map(args.n, args.seed))
    cfg = ScenarioConfig(tx=np.array(scene.tx_position(args.n)))
    dense = np.array(scene.route_points(args.n, DENSE_STEP))
    print(f"grid{args.n * args.n} seed {args.seed}, BLOCK {pipeline.BLOCK}, "
          f"POOL_BLOCKS {pipeline.POOL_BLOCKS}, {args.runs} runs each, "
          f"medians")
    print(f"| blocks | P | serial | pool of {args.workers} | runs the pool "
          f"won | width by the rule |")
    print("|---|---|---|---|---|---|")
    for blocks in args.blocks:
        p = blocks * pipeline.BLOCK
        if p > len(dense):
            raise SystemExit(f"{blocks} blocks need {p} positions; the "
                             f"route has {len(dense)}")
        rows = dense[np.linspace(0, len(dense) - 1, p).round().astype(int)]
        route = Route(rows[:, 0].copy(), rows[:, 1:].copy())
        serial, pooled = walls(cfg, gmap, route, args.workers, args.runs)
        won = sum(q < s for s, q in zip(serial, pooled))
        print(f"| {blocks} | {p} | {1e3 * statistics.median(serial):.1f} ms "
              f"| {1e3 * statistics.median(pooled):.1f} ms | {won} of "
              f"{args.runs} | {pipeline.pool_width(args.workers, p)[0]} |",
              flush=True)


if __name__ == "__main__":
    main()

"""Rows through the occlusion pass: for each occlusion query of a route, the
rows into and out of each stage of ``GeometryMap._hits`` and the kernel
pairs of each test round, on the benchmark's seed-21 grid cities.

    PYTHONPATH=src python3 tests/occlusion.py [--n 10 20 40] [--seed 21]

The cities are ``perfbench/scene.py``'s n x n grids (loaded by path, read
only), with their routes sampled as the benchmark's workloads sample them:
every 2.5 m at n = 10, every 5 m otherwise.  Each route runs once through
``pipeline.predict_route``, whose block passes make the three queries:
``classify_link``'s LOS query ``first_hit``, the visibility filter's
``pair_hits`` and the chain's ``f_block``.  The counts are read by wrapping
``geometry.sliced``, which runs every stage of the pass: the box cull of
(segment group, building) pairs, the slab cull of (segment, building) rows
and the test of their (segment, triangle) kernel pairs.  ``first_hit``
tests every kept row in one round; the flag queries test each key's first
kept row in round 1 and the other kept rows of the keys still unhit in
round 2.

It prints one table row per city and query: the query's calls, the pairs
into and out of the box cull, the rows into and out of the slab cull, and
per round the kernel pairs tested and the hits they gave.  Like
``identity.py``, pytest does not collect this file.
"""

import argparse
from collections import Counter

import numpy as np

from benchscene import grid_module
from urbanprop import geometry, link, pipeline
from urbanprop.config import Route, ScenarioConfig
from urbanprop.geometry import GeometryMap, map_from_dict

# (name, owner, attribute): where the route's passes look each query up
QUERIES = (("first_hit", GeometryMap, "first_hit"),
           ("pair_hits", GeometryMap, "pair_hits"),
           ("f_block", link, "f_block"))
STAGES = ("box", "slab", "round 1", "round 2")   # the sliced calls, in order
STEP = {10: 2.5}    # metres between route positions; 5 m for other sides


def counts(cfg, gmap, route):
    """``{query: Counter}`` of one ``predict_route``: ``calls``, and
    ``(stage, "in")``/``(stage, "out")`` rows summed over the calls."""
    totals = {name: Counter() for name, _owner, _attr in QUERIES}
    state = {}
    sliced = geometry.sliced

    def recording(n, fn, empty=None):
        out = sliced(n, fn, empty)
        if state:       # a query's own pass, not another sliced caller
            stage = STAGES[state["stage"]]
            state["stage"] += 1
            totals[state["query"]][stage, "in"] += n
            totals[state["query"]][stage, "out"] += len(out[0])
        return out

    def entering(name, fn):
        def wrapper(*args):
            state.update(query=name, stage=0)
            totals[name]["calls"] += 1
            try:
                return fn(*args)
            finally:
                state.clear()
        return wrapper

    saved = [(owner, attr, getattr(owner, attr)) for _n, owner, attr in QUERIES]
    geometry.sliced = recording
    for name, owner, attr in QUERIES:
        setattr(owner, attr, entering(name, getattr(owner, attr)))
    try:
        pipeline.predict_route(cfg, gmap, route)
    finally:
        geometry.sliced = sliced
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[10, 20, 40],
                        help="the grid cities' sides, in buildings")
    parser.add_argument("--seed", type=int, default=21)
    args = parser.parse_args(argv)
    scene = grid_module()
    print("| city | query | calls | box pairs in → out | slab rows in → out "
          "| round 1 pairs → hits | round 2 pairs → hits |")
    print("|---|---|---|---|---|---|---|")
    for n in args.n:
        gmap = map_from_dict(scene.city_map(n, args.seed))
        cfg = ScenarioConfig(tx=np.array(scene.tx_position(n)))
        rows = np.array(scene.route_points(n, STEP.get(n, 5.0)))
        route = Route(rows[:, 0], rows[:, 1:])
        for name, c in counts(cfg, gmap, route).items():
            cells = [f"{c[stage, 'in']:,} → {c[stage, 'out']:,}"
                     for stage in STAGES]
            if name == "first_hit":     # one round
                cells[3] = "–"
            print(f"| grid{n * n} s{args.seed}, {len(rows)} positions | {name} "
                  f"| {c['calls']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()

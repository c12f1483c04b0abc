"""Route prediction pipeline: identification -> chain -> fields, with the
rows of a route gathered into one table of columns.

Every function here is pure over the immutable map, so route positions can
be evaluated in parallel and reassembled in input order.  A receiver
position is a ``(3,)`` float64 array, a row of the route's ``xyz``; a lone
position is a route of one point.  The route is cut into the fewest blocks
of at most ``BLOCK`` positions, of sizes that differ by at most one, and
walked a block at a time: one candidate pass, the visibility scans, one
chain pass (``link.chain_table``) and one field pass (``link.chain_fields``)
per block, then each position's cut of them.  A route of at least
``2 * POOL_BLOCKS`` blocks may run on a worker pool, one worker per
``POOL_BLOCKS`` blocks; a pool worker gets the scene ``(cfg, gmap)`` once,
through its initializer, and returns the rows of one block per task.
"""

import os
from dataclasses import dataclass, fields

import numpy as np

from . import identify
from .errors import RouteError
# not called here: the benchmark hooks pipeline.identify_position
from .identify import identify_position  # noqa: F401
from .link import chain_fields, chain_table, extract_chain, total_field

NO_POINT = np.full(3, np.nan)
# Most positions identified together: enough to spread the fixed cost of the
# block passes.  Their candidate and occlusion passes run in geometry.sliced,
# KERNEL_ROWS rows at a time, each cull keeping its survivors' keys, so their
# arrays grow with their work, not with the block's extent.
BLOCK = 64
# Blocks per pool worker, at the least: a pool's start and its workers' cold
# caches cost more than a few blocks take in this process.  Read off the
# tables of tests/crossover.py kept in CHANGES.md (seed-21 grid1600, 2-core
# shared host): a pool of 2 lost most runs at 2 and 3 blocks in all six
# sets that ran them, split eight sets at 4 and won most runs from 5 on in
# all but one (at 6), so 2 * POOL_BLOCKS = 6 is the first threshold past
# the split.  Earlier sets saw it lose at up to 5 blocks.
POOL_BLOCKS = 3


@dataclass(eq=False)
class RouteResult:
    """Route columns: (P,) or (P, k) arrays, one row per route position.

    ``breakpoint``, the terminal ``edge`` and its ``wall_point`` are (P, 3),
    NaN where there is none.  ``sides``/``visible`` hold ``{"left": ids,
    "right": ids}`` dicts.  ``e_total`` is the full-model field; ``power``
    (P, 2, 3) holds the received power (W) of the direct, final_I and
    final_II components, full model first.
    """

    los: np.ndarray
    breakpoint: np.ndarray
    sides: np.ndarray
    visible: np.ndarray
    n_stages: np.ndarray
    pl_model_db: np.ndarray
    pl_simplified_db: np.ndarray
    pl_gpp_db: np.ndarray
    pl_free_space_db: np.ndarray
    e_total: np.ndarray
    power: np.ndarray
    edge: np.ndarray
    wall_point: np.ndarray


def predict_position(block, i):
    """The ``RouteResult`` row of position ``i`` of a block: its cut of the
    block's ``(chain_table, chain_fields)`` passes ``block``."""
    table, preds = block
    stages, _term = extract_chain(table, i)
    pred = total_field(preds, i)
    vis, term = table.vis[i], table.terminal[i]
    los = vis.classification.los
    row = dict(
        los=los, breakpoint=NO_POINT if los else vis.classification.breakpoint,
        sides=vis.flat_sides(), visible=vis.flat_visible(),
        n_stages=len(stages), pl_model_db=pred.pl_db,
        pl_simplified_db=pred.pl_simplified_db, pl_gpp_db=pred.pl_gpp_db,
        pl_free_space_db=pred.pl_free_space_db, e_total=pred.e_total,
        power=pred.power, edge=term["edge"], wall_point=term["wall_point"])
    return RouteResult(**{name: np.array([v]) for name, v in row.items()})


def _concat(parts):
    """One ``RouteResult`` of the rows of ``parts``, in order."""
    return RouteResult(*(np.concatenate([getattr(p, f.name) for p in parts])
                         for f in fields(RouteResult)))


def _predict_block(cfg, gmap, positions):
    """The ``RouteResult`` of a block of ``positions``."""
    # through the module, so that a wrapper set on its attribute sees it
    idents = identify.initial_identification(cfg.tx, positions, gmap,
                                             cfg.corridor_width_m)
    table = chain_table([identify.visible_identification(segs, cls, gmap)
                         for cls, segs in idents], cfg.tx, positions, gmap)
    passes = table, chain_fields(table, cfg, positions)
    return _concat([predict_position(passes, k) for k in range(len(positions))])


_scene = None   # (cfg, gmap) of a pool worker, set by _init_worker


def _init_worker(cfg, gmap):
    global _scene
    _scene = (cfg, gmap)


def _predict_in_worker(positions):
    return _predict_block(*_scene, positions)


def pool_width(workers, n_positions):
    """``(width, bound)``: the processes ``predict_route`` runs ``n_positions``
    on for ``workers``, and the bound that cut it, or None; 1 is no pool.
    The width is at most one per ``POOL_BLOCKS`` blocks of the route and one
    per CPU this process may run on."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min((workers, None),
               (max(-(-n_positions // BLOCK) // POOL_BLOCKS, 1),
                f"one per {POOL_BLOCKS} blocks of {BLOCK} positions"),
               (cpus, "one per CPU this process may run on"),
               key=lambda bound: bound[0])


def predict_route(cfg, gmap, route, workers=1):
    """The ``RouteResult`` of every point of a ``config.Route``, in input order.

    The route is cut into ceil(P / ``BLOCK``) blocks of consecutive
    positions whose sizes differ by at most one, run in this process, or as
    the tasks of a pool if ``pool_width`` is above 1.
    """
    positions = route.xyz
    if not len(positions):
        raise RouteError("route must contain at least one point")
    blocks = np.array_split(positions, -(-len(positions) // BLOCK))
    width = pool_width(workers, len(positions))[0]
    if width <= 1:
        return _concat([_predict_block(cfg, gmap, block) for block in blocks])
    # imported here: the pool's modules add about 1 MB to a 1-worker run
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=width, initializer=_init_worker,
                             initargs=(cfg, gmap)) as pool:
        return _concat(list(pool.map(_predict_in_worker, blocks)))

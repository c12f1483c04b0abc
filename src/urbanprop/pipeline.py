"""Per-position prediction pipeline: identification -> chain -> fields.

Every function here is pure over the immutable map, so route positions can
be evaluated in parallel and reassembled in input order.  A receiver
position is a ``(3,)`` float64 array, a row of the route's ``xyz``.  A worker pool gets
the scene ``(cfg, gmap)`` once per worker, through its initializer, and runs
the positions in contiguous chunks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .baselines import gpp_path_loss
from .identify import identify_position
from .link import LinkPrediction, extract_chain, friis_path_loss_db, total_field


@dataclass(eq=False)
class PositionResult:
    index: int
    rx: np.ndarray
    vis: object           # VisibilitySet
    term: object          # TerminalGeometry or None
    full: LinkPrediction
    simplified: LinkPrediction
    pl_gpp_db: float
    pl_friis_db: float


def predict_position(cfg, gmap, rx, index=0):
    """Run the whole model stack for a single receiver position."""
    tx = cfg.tx
    k = cfg.wavenumber
    vis = identify_position(tx, rx, gmap, cfg.corridor_width_m)
    stages, term = extract_chain(vis, tx, rx, gmap)
    args = (vis, stages, term, cfg.material, cfg.p_t_watts, tx, rx, k)
    full = total_field(*args, g_r=cfg.g_r_linear, pl_cap_db=cfg.pl_cap_db)
    simp = total_field(*args, g_r=cfg.g_r_linear, simplified=True,
                       pl_cap_db=cfg.pl_cap_db)
    d3d = float(np.linalg.norm(rx - tx))
    pl_gpp = gpp_path_loss(max(d3d, 1.0), cfg.freq_hz / 1e9,
                           vis.classification.los)
    pl_friis = friis_path_loss_db(d3d, cfg.freq_hz)
    return PositionResult(index, rx, vis, term, full, simp, pl_gpp, pl_friis)


_scene = None   # (cfg, gmap) of a pool worker, set by _init_worker


def _init_worker(cfg, gmap):
    global _scene
    _scene = (cfg, gmap)


def _predict_in_worker(index, rx):
    cfg, gmap = _scene
    return predict_position(cfg, gmap, rx, index)


def predict_route(cfg, gmap, route, workers=1):
    """Predictions for every point of a ``config.Route``, in input order.

    ``workers`` above 1 evaluates the route's P positions in a process pool
    of at most P workers; each chunk of ``ceil(P / (4 * workers))``
    consecutive positions goes to one worker.
    """
    positions = route.xyz
    workers = min(workers, len(positions))
    if workers <= 1:
        return [predict_position(cfg, gmap, rx, i)
                for i, rx in enumerate(positions)]
    # imported here: the pool's modules add about 1 MB to a 1-worker run
    from concurrent.futures import ProcessPoolExecutor
    chunksize = math.ceil(len(positions) / (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(cfg, gmap)) as pool:
        return list(pool.map(_predict_in_worker, range(len(positions)),
                             positions, chunksize=chunksize))

"""Per-position prediction pipeline: identification -> chain -> fields.

Every function here is pure over the immutable map, so route positions can
be evaluated in parallel and reassembled in input order.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import BaselineConfig, gpp_path_loss
from .identify import identify_position
from .link import LinkPrediction, extract_chain, friis_path_loss_db, total_field


@dataclass
class PositionResult:
    index: int
    rx: object            # Point3
    vis: object           # VisibilitySet
    stages: list
    term: object          # TerminalGeometry or None
    full: LinkPrediction
    simplified: LinkPrediction
    pl_gpp_db: float
    pl_friis_db: float


def predict_position(cfg, gmap, rx, index=0, baseline_cfg=None):
    """Run the whole model stack for a single receiver position."""
    tx = cfg.tx
    k = cfg.wavenumber
    vis = identify_position(tx, rx, gmap, cfg.corridor_width_m, rx_index=index)
    stages, term = extract_chain(vis, tx, rx, gmap)
    args = (vis, stages, term, cfg.material, cfg.p_t_watts, tx, rx, k)
    full = total_field(*args, g_r=cfg.g_r_linear, pl_cap_db=cfg.pl_cap_db)
    simp = total_field(*args, g_r=cfg.g_r_linear, simplified=True,
                       pl_cap_db=cfg.pl_cap_db)
    d3d = float(np.linalg.norm(rx.as_array() - tx.as_array()))
    pl_gpp = gpp_path_loss(max(d3d, 1.0), cfg.freq_hz / 1e9,
                           vis.classification.los,
                           baseline_cfg or BaselineConfig())
    pl_friis = friis_path_loss_db(d3d, cfg.freq_hz)
    return PositionResult(index, rx, vis, stages, term, full, simp,
                          pl_gpp, pl_friis)


def predict_route(cfg, gmap, route, workers=1, baseline_cfg=None):
    """Predictions for every route point, in input order."""
    if workers <= 1:
        return [predict_position(cfg, gmap, rp.position, i, baseline_cfg)
                for i, rp in enumerate(route)]
    from concurrent.futures import ProcessPoolExecutor
    args = [(cfg, gmap, rp.position, i, baseline_cfg)
            for i, rp in enumerate(route)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_predict_star, args))


def _predict_star(args):
    return predict_position(*args)

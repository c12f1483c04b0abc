"""Site-specific urban radio propagation simulator.

Predicts path loss and Doppler spread along a receiver route from a 3D
building map, using recursive multiple diffraction at building corners with
uniform boundary corrections, plus empirical and simplified baselines and
an evaluation harness.
"""

from .geometry import GeometryMap, load_map
from .identify import (LinkClassification, VisibilitySet, classify_link,
                       identify_position, initial_identification,
                       visible_identification)
from .fields import (STAGE, direct_field, recursive_chain, stage_transfer,
                     transition_function)
from .link import (ChainTable, LinkPrediction, chain_fields, chain_table,
                   extract_chain, friis_path_loss_db, path_loss,
                   reflection_coefficient, slope_coefficient, total_field)
from .baselines import gpp_path_loss
from .doppler import (doppler_shift, gpp_doppler_estimate, rms_spread,
                      route_doppler)
from .metrics import empirical_cdf, ks_distance, rmse
from .config import Route, ScenarioConfig, load_config, load_route
from .pipeline import RouteResult, predict_position, predict_route

__version__ = "0.1.0"

"""Site-specific urban radio propagation simulator.

Predicts path loss and Doppler spread along a receiver route from a 3D
building map, using recursive multiple diffraction at building corners with
uniform boundary corrections, plus empirical and simplified baselines and
an evaluation harness.
"""

from .geometry import GeometryMap, Point3, Segment3, load_map
from .identify import (LinkClassification, VisibilitySet, classify_link,
                       compute_breakpoint, identify_position,
                       initial_identification, visible_identification)
from .fields import (ChainStage, RegionKind, WedgeGeometry, classify_region,
                     direct_field, fresnel_integral, halfplane_fields,
                     recursive_chain, region_total_field, transition_function)
from .link import (LinkPrediction, MaterialConfig, TerminalGeometry,
                   extract_chain, friis_path_loss_db, path_loss,
                   reflection_coefficient, slope_coefficient, total_field)
from .baselines import BaselineConfig, gpp_path_loss
from .doppler import (DopplerSample, PathComponent, doppler_shift,
                      enumerate_paths, gpp_doppler_estimate, rms_spread,
                      route_doppler)
from .metrics import empirical_cdf, ks_distance, rmse, scatter_density
from .config import RoutePoint, ScenarioConfig, load_config, load_route
from .pipeline import PositionResult, predict_position, predict_route

__version__ = "0.1.0"

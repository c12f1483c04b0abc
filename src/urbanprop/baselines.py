"""Comparison path-loss model: the empirical V2V-urban curves, with fixed
LOS and NLOS coefficients.

The no-recursion simplified variant of the site-specific model comes with
the full model from ``link.chain_fields``, as ``pl_simplified_db``."""

import numpy as np

from .errors import NumericalDomainError

# V2V-urban coefficients: PL = intercept + slope_d*log10(d) + slope_f*log10(f_GHz)
GPP_LOS = {"intercept": 38.77, "distance_slope": 16.7, "frequency_slope": 18.2}
GPP_NLOS = {"intercept": 36.85, "distance_slope": 30.0, "frequency_slope": 18.9}


def gpp_path_loss(d3d, freq_ghz, los):
    """Empirical urban path loss in dB for 3D distances (m) and their LOS
    flags, which broadcast, at one carrier (GHz)."""
    d3d = np.asarray(d3d, dtype=np.float64)
    if np.any(d3d < 1.0):
        raise NumericalDomainError(f"d3d must be >= 1 m, got {d3d[d3d < 1.0][0]}")
    if freq_ghz <= 0.0:
        raise NumericalDomainError("freq must be positive")
    c = {key: np.where(los, GPP_LOS[key], GPP_NLOS[key]) for key in GPP_LOS}
    return (c["intercept"] + c["distance_slope"] * np.log10(d3d)
            + c["frequency_slope"] * np.log10(freq_ghz))[()]

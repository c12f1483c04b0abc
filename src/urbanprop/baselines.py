"""Comparison path-loss model: empirical V2V-urban curves.

The no-recursion simplified variant of the site-specific model is
``link.total_field(..., simplified=True)``."""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalDomainError

# Default V2V-urban coefficients: PL = intercept + slope_d*log10(d) + slope_f*log10(f_GHz)
GPP_LOS = {"intercept": 38.77, "distance_slope": 16.7, "frequency_slope": 18.2}
GPP_NLOS = {"intercept": 36.85, "distance_slope": 30.0, "frequency_slope": 18.9}


@dataclass(frozen=True)
class BaselineConfig:
    los: dict = field(default_factory=lambda: dict(GPP_LOS))
    nlos: dict = field(default_factory=lambda: dict(GPP_NLOS))

    def __post_init__(self):
        for coeffs in (self.los, self.nlos):
            if not all(np.isfinite(v) for v in coeffs.values()):
                raise NumericalDomainError("baseline coefficients must be finite")
            if coeffs["distance_slope"] <= 0.0:
                raise NumericalDomainError("distance slope must be positive")


def gpp_path_loss(d3d, freq_ghz, los, cfg=None):
    """Empirical urban path loss in dB for a 3D distance (m) and carrier (GHz)."""
    if d3d < 1.0:
        raise NumericalDomainError(f"d3d must be >= 1 m, got {d3d}")
    if freq_ghz <= 0.0:
        raise NumericalDomainError("freq must be positive")
    cfg = cfg or BaselineConfig()
    c = cfg.los if los else cfg.nlos
    return float(c["intercept"] + c["distance_slope"] * np.log10(d3d)
                 + c["frequency_slope"] * np.log10(freq_ghz))

"""Evaluation metrics: RMSE, empirical CDFs and two-sample KS distance."""

import numpy as np

from .errors import DataShapeError


def rmse(reference, candidate):
    """Root-mean-square error between two index-aligned series."""
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(candidate, dtype=np.float64)
    if a.size == 0 or a.shape != b.shape:
        raise DataShapeError(
            f"series lengths must match and be non-zero ({a.size} vs {b.size})")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def ks_distance(a, b):
    """sup_x |F_a(x) - F_b(x)| by exact step-function evaluation."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise DataShapeError("KS distance requires non-empty samples")
    support = np.concatenate([a, b])
    fa = np.searchsorted(a, support, side="right") / a.size
    fb = np.searchsorted(b, support, side="right") / b.size
    return float(np.abs(fa - fb).max())


def empirical_cdf(samples):
    """Right-continuous step CDF as a list of (x, F(x)) pairs."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    if x.size == 0:
        raise DataShapeError("empirical_cdf requires non-empty samples")
    xs, counts = np.unique(x, return_counts=True)
    f = np.cumsum(counts) / x.size
    return list(zip(xs.tolist(), f.tolist()))


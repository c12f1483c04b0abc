"""Hot geometric kernel: batched open-segment vs. triangle intersection.

``segment_triangles``, one numpy Moller-Trumbore kernel, answers S segments
against M triangles in a single call, with the cross products expanded over
array columns.  Every (segment, triangle) pair goes through the same
element-wise arithmetic, so its result does not depend on which other
segments or triangles share the call: ``geometry.GeometryMap`` culls the
soup before the call and reduces the hits after it without changing a bit.
``benchmarks/bench_kernels.py`` times a batched call against a loop of
single-segment calls.

Conventions:
    * segments are open: hits closer than ``eps_hit`` (meters) to either
      endpoint are discarded, and a zero-length segment hits nothing,
    * a miss is encoded as ``np.inf`` in the returned parameter array,
    * the returned parameter ``t`` is the fractional position along a->b.
"""

import numpy as np

_EPS_PARALLEL = 1e-12
_EPS_BARY = 1e-12


def segment_triangles(a, b, v0, v1, v2, eps_hit):
    """Vectorized Moller-Trumbore of segments against a triangle soup.

    Parameters
    ----------
    a, b : (3,) or (S, 3) float64
        Segment endpoints.
    v0, v1, v2 : (M, 3) float64
        Triangle vertices.
    eps_hit : float
        Endpoint exclusion distance in meters.

    Returns
    -------
    (M,) float64 array of hit parameters for a single segment, or (S, M)
    for a batch; ``np.inf`` where there is no hit.
    """
    a = np.asarray(a, dtype=np.float64)
    single = a.ndim == 1
    a = a.reshape(-1, 3)
    d = np.asarray(b, dtype=np.float64).reshape(-1, 3) - a
    dx, dy, dz = d[:, 0:1], d[:, 1:2], d[:, 2:3]
    e1x, e1y, e1z = (v1 - v0).T
    e2x, e2y, e2z = (v2 - v0).T
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    tx = a[:, 0:1] - v0[:, 0]
    ty = a[:, 1:2] - v0[:, 1]
    tz = a[:, 2:3] - v0[:, 2]
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    # det == 0 (parallel, or a zero-length segment) makes inv_det infinite
    # and u, v, t non-finite; the det test rejects those pairs.  A
    # zero-length segment also gets lo = inf, so no t passes.
    with np.errstate(all="ignore"):
        inv_det = 1.0 / det
        lo = eps_hit / np.sqrt(dx * dx + dy * dy + dz * dz)
        u = (tx * px + ty * py + tz * pz) * inv_det
        v = (dx * qx + dy * qy + dz * qz) * inv_det
        t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
        hit = ((np.abs(det) > _EPS_PARALLEL)
               & (np.minimum(u, v) >= -_EPS_BARY)
               & (u + v <= 1.0 + _EPS_BARY)
               & (t > lo) & (t < 1.0 - lo))
    t[~hit] = np.inf
    return t[0] if single else t


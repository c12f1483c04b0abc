"""Hot geometric kernel: row-wise open-segment vs. triangle intersection.

``segment_triangles``, one numpy Moller-Trumbore kernel, tests row i of the
segments against row i of the triangles, rows broadcasting (a ``(3,)``
segment meets an ``(M, 3)`` soup); ``geometry.GeometryMap`` passes one row
per (segment, triangle) pair its per-segment cull keeps.  Each row's
arithmetic is element-wise, so its result does not depend on the others.

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
    """Vectorized Moller-Trumbore of segment rows against triangle rows.

    ``a``/``b`` are (N, 3) float64 segment endpoints and ``v0``/``v1``/``v2``
    (N, 3) float64 triangle vertices; a (3,) or (1, 3) side broadcasts over
    the other's rows.  ``eps_hit`` is the endpoint exclusion distance in
    meters.  Returns each row's hit parameter, ``np.inf`` for no hit.
    """
    a = np.asarray(a, dtype=np.float64)
    dx, dy, dz = (np.asarray(b, dtype=np.float64) - a).T
    e1x, e1y, e1z = (v1 - v0).T
    e2x, e2y, e2z = (v2 - v0).T
    tx, ty, tz = (a - v0).T
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
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
    return t

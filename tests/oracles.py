"""Independent brute-force oracles used only by the test suite.

Everything here is written from scratch against the documented geometric
rules, sharing no code with the package under test: axis-aligned boxes are
intersected by the slab method, triangles by plane intersection plus an
edge-sign containment test, and the building-identification oracle replays
the candidate/visibility rules literally, flagging near-degenerate inputs
so the comparison can exclude them.
"""

import numpy as np

EPS_HIT = 1e-9       # endpoint exclusion, meters
DEGEN = 1e-6         # degeneracy margin for oracle comparisons


# -- box primitives ----------------------------------------------------------


def box_slab_interval(a, b, lo, hi):
    """Parameter interval [t0, t1] of the infinite line a + t(b-a) inside the
    box [lo, hi], or None when the line misses it entirely."""
    a = np.asarray(a, float)
    d = np.asarray(b, float) - a
    t0, t1 = -np.inf, np.inf
    for ax in range(3):
        if d[ax] == 0.0:
            if not lo[ax] <= a[ax] <= hi[ax]:
                return None
            continue
        ta = (lo[ax] - a[ax]) / d[ax]
        tb = (hi[ax] - a[ax]) / d[ax]
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
    if t0 > t1:
        return None
    return t0, t1


def box_blocks(a, b, lo, hi, eps_hit=EPS_HIT):
    """(blocked, entry_t, grazing) for the open segment a-b against one box."""
    seg_len = float(np.linalg.norm(np.asarray(b, float) - np.asarray(a, float)))
    eps_t = eps_hit / seg_len
    iv = box_slab_interval(a, b, lo, hi)
    if iv is None:
        return False, None, False
    t0, t1 = iv
    grazing = (t1 - t0) < DEGEN or min(abs(t0 - eps_t), abs(t0 - (1 - eps_t)),
                                       abs(t1 - eps_t), abs(t1 - (1 - eps_t))) < DEGEN
    # blocked only when a face is actually crossed: a segment lying entirely
    # inside the box intersects no face
    crossings = [t for t in (t0, t1) if eps_t < t < 1.0 - eps_t]
    if not crossings:
        return False, None, grazing
    return True, crossings[0], grazing


def segment_blocked_by_boxes(a, b, boxes, eps_hit=EPS_HIT):
    """(blocked, first_box_index, entry_t, degenerate) over many boxes."""
    hits = []
    degenerate = False
    for i, (lo, hi) in enumerate(boxes):
        blocked, t, grazing = box_blocks(a, b, lo, hi, eps_hit)
        degenerate = degenerate or grazing
        if blocked:
            hits.append((t, i))
    if not hits:
        return False, None, None, degenerate
    hits.sort()
    if len(hits) > 1 and hits[1][0] - hits[0][0] < DEGEN:
        degenerate = True
    return True, hits[0][1], hits[0][0], degenerate


# -- triangle primitive (for the all-triangle occlusion oracle) --------------


def _cross(u, w):
    """Cross products of the rows of ``u`` and ``w``, column by column."""
    return np.stack([u[..., 1] * w[..., 2] - u[..., 2] * w[..., 1],
                     u[..., 2] * w[..., 0] - u[..., 0] * w[..., 2],
                     u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]], axis=-1)


def _dot(u, w):
    """Dot products of the rows of ``u`` and ``w``, column by column."""
    return u[..., 0] * w[..., 0] + u[..., 1] * w[..., 1] + u[..., 2] * w[..., 2]


def segment_blocked_by_triangles(a, b, v0, v1, v2, eps_hit=EPS_HIT):
    """True when the open segment a-b crosses any triangle (v0, v1, v2) of
    the (M, 3) vertex arrays.

    Plane intersection followed by an inside test on signed edge areas, for
    all triangles at once; a formulation deliberately different from the
    package kernel.
    """
    a = np.asarray(a, float)
    d = np.asarray(b, float) - a
    n = _cross(v1 - v0, v2 - v0)
    denom = _dot(n, d)
    eps_t = eps_hit / np.sqrt(_dot(d, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _dot(n, v0 - a) / denom
        p = a + t[:, None] * d
        inside = ((_dot(_cross(v1 - v0, p - v0), n) >= 0)
                  & (_dot(_cross(v2 - v1, p - v1), n) >= 0)
                  & (_dot(_cross(v0 - v2, p - v2), n) >= 0))
        crossed = (np.abs(denom) >= 1e-15) & (eps_t < t) & (t < 1.0 - eps_t)
    return bool(np.any(crossed & inside))


# -- building-identification oracle ------------------------------------------


class OracleScene:
    """Axis-aligned box scene mirrored to the documented identification rules.

    ``boxes`` is a list of ``(bid, (x0, y0, x1, y1, h))``; vertex indexing
    matches the conftest map builder (8 vertices per box, top ring last).
    """

    def __init__(self, boxes):
        self.ids = [bid for bid, _ in boxes]
        self.geom = {}
        self.top = {}
        for n, (bid, (x0, y0, x1, y1, h)) in enumerate(boxes):
            lo = np.array([x0, y0, 0.0])
            hi = np.array([x1, y1, h])
            self.geom[bid] = (lo, hi)
            ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            self.top[bid] = [(8 * n + 4 + k, np.array([cx, cy, h]))
                             for k, (cx, cy) in enumerate(ring)]

    def box_list(self):
        return [self.geom[bid] for bid in self.ids]


def _perp_t_side(p, a, b):
    """(perpendicular distance, line parameter, signed side) in 2D."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    den = dx * dx + dy * dy
    cross = dx * py - dy * px
    return abs(cross) / np.sqrt(den), (px * dx + py * dy) / den, cross


def oracle_classify(tx, rx, scene):
    """(los, blocking_bid, bp, degenerate) per the documented rules."""
    blocked, idx, entry_t, degen = segment_blocked_by_boxes(
        tx, rx, scene.box_list())
    if not blocked:
        return True, None, None, degen
    bid = scene.ids[idx]
    lo, hi = scene.geom[bid]
    # identify the entry face plane (axis and offset) from the slab entry
    a = np.asarray(tx, float)
    d = np.asarray(rx, float) - a
    axis, offset = None, None
    for ax in range(3):
        if d[ax] == 0.0:
            continue
        for bound in (lo[ax], hi[ax]):
            t = (bound - a[ax]) / d[ax]
            if abs(t - entry_t) < 1e-12:
                axis, offset = ax, bound
    if axis is None:
        return False, bid, None, True
    rx_sign = np.sign(rx[axis] - offset)
    best = None
    for vid, c in scene.top[bid]:
        side_of = np.sign(c[axis] - offset)
        if abs(c[axis] - offset) < DEGEN and side_of != 0:
            degen = True
        if rx_sign != 0 and side_of == -rx_sign:
            continue
        dist, tline, cross = _perp_t_side(c, tx, rx)
        left = 0 if abs(cross) <= 1e-9 else (1 if cross > 0 else -1)
        key = (dist, -left, vid)
        if best is not None and abs(key[0] - best[0][0]) < DEGEN:
            degen = True
        if best is None or key < best[0]:
            best = (key, c, tline)
    if best is None:
        return False, bid, None, True
    c, tline = best[1], best[2]
    z = tx[2] + tline * (rx[2] - tx[2])
    bp = np.array([c[0], c[1], z])
    return False, bid, bp, degen


def oracle_sides(a, b, scene, corridor, left_only=False):
    """(left ids, right ids, degenerate) candidate selection for one line."""
    left, right = [], []
    degen = False
    for bid in scene.ids:
        votes, kept = 0, 0
        for _vid, c in scene.top[bid]:
            dist, t, cross = _perp_t_side(c, a, b)
            if abs(t) < DEGEN or abs(t - 1.0) < DEGEN:
                degen = True
            if not 0.0 <= t <= 1.0:
                continue
            if abs(dist - corridor) < DEGEN:
                degen = True
            if dist > corridor:
                continue
            if abs(cross) < DEGEN:
                degen = True
            kept += 1
            votes += 0 if abs(cross) <= 1e-9 else (1 if cross > 0 else -1)
        if kept == 0:
            continue
        if votes >= 0:
            left.append(bid)
        elif not left_only:
            right.append(bid)
    return left, right, degen


def point_in_any_box(p, scene, margin=DEGEN):
    """True when the point is inside (or hugging) any box of the scene."""
    p = np.asarray(p, float)
    return any(np.all(p > lo - margin) and np.all(p < hi + margin)
               for lo, hi in scene.box_list())


def oracle_visible(a, b, left, right, scene):
    """(visible left, visible right, degenerate) near-to-far filtering."""
    degen = False
    accepted = []
    out = {"left": [], "right": []}
    a3 = np.asarray(a, float)
    b3 = np.asarray(b, float)
    d3 = b3 - a3
    den = d3 @ d3
    for side_name, cand in (("left", left), ("right", right)):
        dists = {bid: min(_perp_t_side(c, a, b)[0] for _v, c in scene.top[bid])
                 for bid in cand}
        vals = sorted(dists.values())
        if any(v2 - v1 < DEGEN for v1, v2 in zip(vals, vals[1:])):
            degen = True
        for bid in sorted(cand, key=lambda x: (dists[x], x)):
            occluders = [scene.geom[x] for x in accepted if x != bid]
            visible = True
            for _vid, c in scene.top[bid]:
                t = ((c - a3) @ d3) / den
                proj = a3 + t * d3
                if np.linalg.norm(proj - c) <= 1e-9:
                    continue
                blocked, _i, _t, g = segment_blocked_by_boxes(c, proj, occluders)
                degen = degen or g
                if blocked:
                    visible = False
                    break
            if visible:
                out[side_name].append(bid)
                accepted.append(bid)
    return out["left"], out["right"], degen


def oracle_identify(tx, rx, scene, corridor):
    """Full identification oracle: (record dict, degenerate flag).

    The record carries los, bp, and deduplicated flat left/right candidate
    and visible id lists, mirroring the package's summary form.
    """
    tx = np.asarray(tx, float)
    rx = np.asarray(rx, float)
    if point_in_any_box(tx, scene) or point_in_any_box(rx, scene):
        return None, True
    los, bid, bp, degen = oracle_classify(tx, rx, scene)
    if los:
        subs = [(tx, rx, False)]
    else:
        if bp is None:
            return None, True
        if (np.linalg.norm(bp - tx) < 1e-3 or np.linalg.norm(bp - rx) < 1e-3):
            return None, True
        subs = [(tx, bp, False), (bp, rx, True)]
    sides_flat = {"left": [], "right": []}
    vis_flat = {"left": [], "right": []}
    for a, b, left_only in subs:
        left, right, d1 = oracle_sides(a, b, scene, corridor, left_only)
        vl, vr, d2 = oracle_visible(a, b, left, right, scene)
        degen = degen or d1 or d2
        for name, ids in (("left", left), ("right", right)):
            sides_flat[name] += [x for x in ids if x not in sides_flat[name]]
        for name, ids in (("left", vl), ("right", vr)):
            vis_flat[name] += [x for x in ids if x not in vis_flat[name]]
    rec = {"los": los, "bp": bp, "sides": sides_flat, "visible": vis_flat}
    return rec, degen

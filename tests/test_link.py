"""Link-budget tests: chain extraction geometry, reflection and slope
coefficients, terminal composition and path-loss conversion."""

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (CORNER_BOXES, build_map, build_map_dict, canyon_route,
                      corner_route, predict_one)
from test_identify import _edge_points, _fixture_scene, _grid_scene
from test_kernels import box_scenes
from urbanprop.config import ScenarioConfig
from urbanprop.errors import (ConfigError, DegenerateGeometryError,
                              NumericalDomainError)
from urbanprop.fields import direct_field, recursive_chain, transition_function
from urbanprop.geometry import map_from_dict
from urbanprop.identify import (identify_position, initial_identification,
                                visible_identification)
from urbanprop.link import (C_LIGHT, TERMINAL, ChainTable, _reflection_branch,
                            chain_fields, chain_table, extract_chain,
                            friis_path_loss_db, path_loss, received_power,
                            reflection_coefficient, slope_coefficient,
                            total_field)
from urbanprop.pipeline import BLOCK, NO_POINT

F58 = 5.8e9
K58 = 2.0 * np.pi * F58 / 299792458.0


def pt(x, y, z=2.0):
    return np.array([x, y, z], dtype=np.float64)


# -- chain extraction --------------------------------------------------------


def _chain(vis, tx, rx, gmap):
    """``extract_chain`` of one position, cut from its chain table of one."""
    return extract_chain(chain_table([vis], tx, rx[None], gmap), 0)


def _prediction(vis, rx, gmap, cfg):
    """``total_field`` of one position in the scenario ``cfg``, cut from the
    ``chain_fields`` of its chain table of one."""
    table = chain_table([vis], cfg.tx, rx[None], gmap)
    return total_field(chain_fields(table, cfg, rx[None]), 0)


class TestExtractChain:
    def test_empty_visibility(self, empty_map, tx):
        vis = identify_position(tx, pt(50, 0), empty_map)
        stages, term = _chain(vis, tx, pt(50, 0), empty_map)
        assert len(stages) == 0 and term is None

    def test_single_left_building(self, tx):
        gmap = build_map([(0, (30.0, 10.0, 60.0, 20.0, 15.0))])
        rx = pt(90, 0)
        vis = identify_position(tx, rx, gmap)
        stages, term = _chain(vis, tx, rx, gmap)
        assert len(stages) == 1
        # nearest roof corner to the street line is (30, 10) or (60, 10);
        # both are 10 m off the line, the lower vertex index (30, 10) wins
        edge = term["edge"]
        assert (edge[0], edge[1]) == (30.0, 10.0)
        assert edge[2] == pytest.approx(2.0)   # line height
        d_hand = np.linalg.norm([30.0, 10.0, 0.0])
        assert stages[0]["d_tx"] == pytest.approx(d_hand)
        assert term["d_n"] == pytest.approx(d_hand)
        assert term["length_direct"] == pytest.approx(
            np.linalg.norm([90.0 - 30.0, -10.0, 0.0]))
        assert np.isnan(term["wall_point"]).all()

    def test_corner_scene_distances_hand_measured(self, corner_map, tx):
        rx = pt(59, 30)
        vis = identify_position(tx, rx, corner_map)
        stages, term = _chain(vis, tx, rx, corner_map)
        assert len(stages) >= 1
        # every stage distance equals the straight-line distance between the
        # TX and that stage's corner at line height
        for st in stages:
            assert st["d_tx"] > 0 and st["dist_next"] > 0
        assert term["length_direct"] == pytest.approx(
            float(np.linalg.norm(rx - term["edge"])))
        assert term["length_reflected"] >= term["length_direct"]

    def test_canyon_reflection_branch(self, canyon_map, tx):
        # flanked street: the last stage sees an opposite-side wall
        rx = pt(95, 0)
        vis = identify_position(tx, rx, canyon_map)
        stages, term = _chain(vis, tx, rx, canyon_map)
        assert len(stages) == 3
        assert not np.isnan(term["wall_point"]).any()
        assert term["length_reflected"] > term["length_direct"]


# -- wall image --------------------------------------------------------------


def _reflection_branch_loop(gmap, vis_opposite, e, x):
    """Reference wall image: the scalar scan over buildings and their walls,
    keeping the first strictly nearer wall."""
    best = None
    for bid in vis_opposite:
        w = gmap.wall_rows([bid])[0]
        for nrm, p0 in zip(gmap.wall_normal[w], gmap.wall_point[w]):
            d_rx = (x - p0) @ nrm
            d_e = (e - p0) @ nrm
            if d_rx * d_e <= 0.0:
                continue
            image = x - 2.0 * d_rx * nrm
            seg = image - e
            denom = seg @ nrm
            if abs(denom) < 1e-12:
                continue
            t = ((p0 - e) @ nrm) / denom
            if not 0.0 < t < 1.0:
                continue
            wall_point = e + t * seg
            r = float(np.linalg.norm(image - e))
            inc_dir = wall_point - e
            inc_norm = np.linalg.norm(inc_dir)
            if inc_norm < 1e-9 or r <= 0.0:
                continue
            incidence = float(np.arccos(
                np.clip(abs(inc_dir @ nrm) / inc_norm, -1.0, 1.0)))
            key = abs(d_rx)
            if best is None or key < best[0]:
                best = (key, r, wall_point, image, incidence)
    return None if best is None else best[1:]


def _same_images(gmap, opposite, e, x):
    """Assert that each row of the stacked pass (the ids ``opposite[n]``,
    the edge ``e[n]`` and the RX ``x[n]``) gives the scalar scan's image bit
    for bit; return how many rows have one."""
    hit, *cols = _reflection_branch(gmap, opposite, np.reshape(e, (-1, 3)),
                                    np.reshape(x, (-1, 3)))
    found = dict(zip(hit.tolist(), zip(*cols)))
    for n, ids in enumerate(opposite):
        got = found.get(n)
        want = _reflection_branch_loop(gmap, ids, e[n], x[n])
        if want is None:
            assert got is None
            continue
        r, wall_point, image, incidence = got
        assert (r, incidence) == (want[0], want[3])
        assert wall_point.tobytes() == want[1].tobytes()
        assert image.tobytes() == want[2].tobytes()
    return len(hit)


def _route_images(gmap, tx, route, corridor=100.0):
    """The stacked pass over every candidate corner of every sub-segment of
    ``route``, as the final edge, against either side's candidates; returns
    how many rows have an image."""
    entries = [(sub, bid, rx) for rx, (_cls, segs) in zip(
        route, initial_identification(tx, route, gmap, corridor))
        for sub in segs for bid in sub.left + sub.right]
    edges = list(_edge_points(gmap, tx, [(sub, bid) for sub, bid, _rx in entries]))
    opposite = [ids for sub, _bid, _rx in entries for ids in (sub.left, sub.right)]
    e, x = (np.repeat(np.reshape(v, (-1, 3)), 2, axis=0)
            for v in (edges, [rx for _sub, _bid, rx in entries]))
    return _same_images(gmap, opposite, e, x)


class TestReflectionBranch:
    @pytest.mark.parametrize("scene", ["canyon", "corner", "grid"])
    def test_matches_wall_scan_on_routes(self, scene, canyon_map, corner_map,
                                         tx):
        """Every candidate corner of every sub-segment, against either
        side's candidates, as the final edge."""
        gmap, tx, route = {
            "canyon": lambda: (canyon_map, tx, canyon_route()),
            "corner": lambda: (corner_map, tx, corner_route()),
            "grid": _grid_scene}[scene]()
        images = _route_images(gmap, tx, route)
        assert images >= 10

    @settings(max_examples=200, deadline=None)
    @given(box_scenes(), st.data())
    def test_matches_wall_scan_in_box_cities(self, boxes, data):
        """Integer coordinates put walls at equal distances, so ties occur."""
        gmap = build_map(boxes)
        ids = data.draw(st.permutations([bid for bid, _box in boxes]))
        ids = ids[:data.draw(st.integers(0, len(ids)))]
        coord = st.one_of(st.integers(-25, 25).map(float),
                          st.floats(-25.0, 25.0))
        e, x = (np.array([[data.draw(coord), data.draw(coord),
                           data.draw(st.floats(0.0, 15.0))]
                          for _row in range(4)]) for _point in range(2))
        _same_images(gmap, [ids] * 4, e, x)


# -- one chain pass per block -------------------------------------------------


def _spire_scene():
    """The corner scene with a pyramid (building 6) beside street B: its
    apex, the only roof corner, has no ring wall, so its stage takes the
    straight-transmission angles."""
    raw = build_map_dict(CORNER_BOXES)
    base = len(raw["vertices"])
    raw["vertices"] += [[52.0, 20.0, 0.0], [56.0, 20.0, 0.0],
                        [56.0, 24.0, 0.0], [52.0, 24.0, 0.0], [54.0, 22.0, 30.0]]
    raw["faces"] += [{"building": 6, "v": [base + i, base + (i + 1) % 4, base + 4]}
                     for i in range(4)]
    raw["faces"].append({"building": 6, "v": [base + 3, base + 2, base + 1, base]})
    raw["buildings"].append({"id": 6})
    route = [pt(59.0, y) for y in np.linspace(0.0, 70.0, 20)]
    return map_from_dict(raw), pt(0, 0), route


def _tx_corner_scene():
    """The grid fixture with the TX at a roof corner of building 0: the
    stages anchored at that corner are dropped from their chains."""
    gmap, _tx, route = _grid_scene()
    return gmap, pt(30.0, 30.0, 12.0), route


def _chain_bits(stages, term):
    """Every field of a chain, as its stage rows' and terminal row's bytes."""
    return stages.tobytes(), None if term is None else term.tobytes()


FIELD_COLUMNS = ("pl_db", "pl_simplified_db", "e_total", "power", "capped")


def _field_bits(fields, rows):
    """The bytes of each field column of ``fields`` at ``rows``."""
    return [getattr(fields, name)[rows].tobytes() for name in FIELD_COLUMNS]


def _block_equals_alone(gmap, tx, route, corridor):
    """Assert that every position of each block of ``route`` gets the chain
    and the field columns of its block of one; returns a tally of what the
    blocks held."""
    seen = dict.fromkeys(["los", "nlos", "mixed block", "no stage",
                          "one stage", "straight", "wall", "no wall"], 0)
    cfg = ScenarioConfig(tx=tx, g_r_linear=2.0, pl_cap_db=150.0)

    def passes(vis, rxs):
        table = chain_table(vis, tx, rxs, gmap)
        return table, chain_fields(table, cfg, rxs)

    route = np.array(route)
    for i in range(0, len(route), BLOCK):
        block = route[i:i + BLOCK]
        vis = [visible_identification(segs, cls) for cls, segs in
               initial_identification(tx, block, gmap, corridor)]
        table, fields = passes(vis, block)
        seen["mixed block"] += len({v.classification.los for v in vis}) == 2
        for k in range(len(block)):
            stages, term = extract_chain(table, k)
            table_1, fields_1 = passes(vis[k:k + 1], block[k:k + 1])
            alone = extract_chain(table_1, 0)
            assert _chain_bits(stages, term) == _chain_bits(*alone)
            assert _field_bits(fields, slice(k, k + 1)) == _field_bits(
                fields_1, slice(None))
            seen["los" if vis[k].classification.los else "nlos"] += 1
            seen["no stage"] += len(stages) == 0
            seen["one stage"] += len(stages) == 1
            seen["straight"] += sum(
                (st["alpha"], st["phi"]) == (np.pi / 2.0, np.pi) for st in stages)
            if term is not None:
                seen["no wall" if np.isnan(term["wall_point"]).all()
                     else "wall"] += 1
    return seen


class TestChainBlockEqualsAlone:
    @pytest.mark.parametrize("corridor", [100.0, 10.0])
    def test_fixture_blocks(self, corridor, canyon_map, corner_map, tx):
        """A block of 16 positions gives each the chain and the field
        columns of a block of one, bit for bit, on blocks that mix LOS and
        NLOS positions and, over the scenes, chains of every kind; the
        stacked reflection of the blocks' corners matches the scalar scan."""
        seen = Counter()
        for scene in ("grid", "rotated", "corner", "spire", "tx corner"):
            gmap, tx, route = (
                _spire_scene() if scene == "spire" else
                _tx_corner_scene() if scene == "tx corner" else
                _fixture_scene(scene, canyon_map, corner_map, tx))
            got = _block_equals_alone(gmap, tx, route, corridor)
            assert got["mixed block"], scene
            seen.update(got)
            _route_images(gmap, tx, route, corridor)
        assert all(seen.values()), seen

    @settings(max_examples=100, deadline=None)
    @given(box_scenes(), st.data())
    def test_box_city_blocks(self, boxes, data):
        """Touching and overlapping boxes give corners shared by two
        buildings, so zero-length incident rays occur."""
        gmap = build_map(boxes)
        coord = st.integers(-30, 30).map(float)
        tx = np.array([data.draw(coord), data.draw(coord), 2.0])
        route = [np.array([data.draw(coord), data.draw(coord), 1.5])
                 for _ in range(data.draw(st.integers(1, 20)))]
        assume(all(np.hypot(*(r - tx)[:2]) > 0.0 for r in route))
        try:
            _block_equals_alone(gmap, tx, route, data.draw(
                st.sampled_from([100.0, 10.0])))
        except (DegenerateGeometryError, NumericalDomainError):
            assume(False)


# -- reflection coefficient --------------------------------------------------


class TestReflectionCoefficient:
    def test_conducting_limits(self):
        h = reflection_coefficient(0.7, 1e8, "H")
        v = reflection_coefficient(0.7, 1e8, "V")
        assert abs(h + 1.0) < 1e-3
        assert abs(v - 1.0) < 1e-3

    def test_normal_incidence_concrete(self):
        got = reflection_coefficient(0.0, 6.0, "H")
        assert got == pytest.approx((1 - np.sqrt(6)) / (1 + np.sqrt(6)), abs=1e-9)

    def test_grazing_limit(self):
        # the formula tends to -1 as incidence approaches the wall plane
        got = reflection_coefficient(np.pi / 2 - 1e-6, 6.0, "H")
        assert got == pytest.approx(-1.0, abs=1e-3)

    def test_magnitude_bounded(self):
        for theta in np.linspace(0.0, np.pi / 2 - 1e-3, 100):
            for eps in np.linspace(1.01, 80.0, 100):
                for pol in ("H", "V"):
                    r = reflection_coefficient(theta, eps, pol)
                    assert abs(r) <= 1.0 + 1e-12

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            reflection_coefficient(-0.1, 6.0, "V")
        with pytest.raises(ConfigError, match="eps_r must be finite"):
            ScenarioConfig(eps_r=0.5)
        with pytest.raises(ConfigError, match="polarization must be"):
            ScenarioConfig(polarization="X")


# -- slope coefficient -------------------------------------------------------


def term_geom(psi, theta, beta, ell, r, d_n):
    return np.array((pt(0, 0), ell, r, psi, theta, beta, d_n, NO_POINT, 0.0),
                    dtype=TERMINAL)[()]


class TestSlopeCoefficient:
    def test_kind_symmetry(self):
        t = term_geom(psi=1.1, theta=1.1, beta=0.4, ell=30.0, r=30.0, d_n=80.0)
        assert slope_coefficient("I", t, K58) == slope_coefficient("II", t, K58)

    def test_reduces_to_bare_form(self):
        # far from the forward direction with a large reduced distance the
        # transition factors are ~1 and the bare cosecant/secant form holds
        t = term_geom(psi=2.2, theta=2.2, beta=0.3, ell=500.0, r=500.0,
                      d_n=800.0)
        got = slope_coefficient("I", t, K58)
        s = np.sin((2.2 - 0.3) / 2.0)
        c = np.cos((2.2 + 0.3) / 2.0)
        bare = -np.exp(-1j * np.pi / 4.0) / (2.0 * np.sqrt(2.0 * np.pi * K58)) \
            * (1.0 / (-s) - 1.0 / (-c))
        assert abs(got - bare) < 0.01 * abs(bare)

    def test_finite_at_grazing_coincidence(self):
        t = term_geom(psi=0.4, theta=0.4, beta=0.4, ell=30.0, r=30.0, d_n=80.0)
        v = slope_coefficient("I", t, K58)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_magnitude_continuous_through_coincidence(self):
        # the coefficient flips sign across the departure/arrival coincidence
        # (that flip offsets the toggling direct term at the shadow boundary)
        # but its magnitude crosses smoothly
        vals = []
        for db in (-1e-4, 0.0, 1e-4):
            t = term_geom(psi=0.4 + db, theta=0.4, beta=0.4, ell=30.0,
                          r=30.0, d_n=80.0)
            vals.append(slope_coefficient("I", t, K58))
        for v in (vals[0], vals[2]):
            assert abs(abs(v) - abs(vals[1])) < 2.5e-2 * abs(vals[1])

    def test_bad_kind(self):
        t = term_geom(1.0, 1.0, 0.5, 10.0, 10.0, 20.0)
        with pytest.raises(NumericalDomainError):
            slope_coefficient("III", t, K58)

    @settings(max_examples=300, deadline=None)
    @given(depart=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
           beta=st.floats(0.0, np.pi),
           length=st.floats(1e-3, 1e4), d_n=st.floats(1e-3, 1e4),
           kind=st.sampled_from(["I", "II"]))
    def test_shares_the_chain_edge_term(self, depart, beta, length, d_n, kind):
        # the terminal branches use the chain's edge term, sec * F; away from
        # its vanishing-cosine limit that equals F/(-trig) of each branch's
        # own former term, bit for bit
        s = np.sin((depart - beta) / 2.0)
        c = np.cos((depart + beta) / 2.0)
        assume(min(abs(s), abs(c)) >= 1e-6)
        t = term_geom(depart, depart, beta, length, length, d_n)
        got = slope_coefficient(kind, t, K58)
        want = _slope_coefficient_with_own_term(depart, beta, length, d_n, K58)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def _own_slope_term(trig_val, k, length):
    """The terminal branches' former edge term: F(X)/(-trig) with
    X = 2 k length trig^2, finite through trig -> 0."""
    x = 2.0 * k * length * trig_val * trig_val
    if x < 1e-24:
        sign = 1.0 if trig_val >= 0.0 else -1.0
        return -sign * np.sqrt(2.0 * np.pi * k * length) * np.exp(1j * np.pi / 4.0)
    return transition_function(x) / (-trig_val)


def _slope_coefficient_with_own_term(depart, beta, length, d_n, k):
    l_red = length * d_n / (d_n + length)
    s = np.sin((depart - beta) / 2.0)
    c = np.cos((depart + beta) / 2.0)
    pref = -np.exp(-1j * np.pi / 4.0) / (2.0 * np.sqrt(2.0 * np.pi * k))
    return pref * (_own_slope_term(s, k, l_red) - _own_slope_term(c, k, l_red))


class TestAmplitudeFactors:
    def test_range_and_monotonicity(self):
        ell = 25.0
        prev = 0.0
        for d_n in (10.0, 50.0, 200.0, 5000.0):
            a = np.sqrt(d_n / (ell * (d_n + ell)))
            assert 0.0 < a <= 1.0 / np.sqrt(ell) + 1e-12
            assert a > prev
            prev = a


# -- path loss ---------------------------------------------------------------


class TestPathLoss:
    def test_friis_reduction_at_100m(self):
        e = direct_field(1.0, 100.0, K58)
        _pr, pl, capped = path_loss(e, 1.0, 1.0, 5.8e9)
        assert not capped
        assert pl == pytest.approx(friis_path_loss_db(100.0, 5.8e9), abs=1e-9)
        assert pl == pytest.approx(87.72, abs=0.01)

    def test_double_field_is_6db(self):
        e = direct_field(1.0, 150.0, K58)
        _pr1, pl1, _c1 = path_loss(e, 1.0, 1.0, 5.8e9)
        _pr2, pl2, _c2 = path_loss(2 * e, 1.0, 1.0, 5.8e9)
        assert pl1 - pl2 == pytest.approx(20.0 * np.log10(2.0), abs=1e-9)

    def test_zero_field_capped(self):
        p_r, pl, capped = path_loss(0j, 1.0, 1.0, 5.8e9)
        assert p_r == 0.0 and pl == 300.0 and capped

    def test_power_ratio_invariance(self):
        gmap = build_map([(0, (30.0, 10.0, 60.0, 20.0, 15.0))])
        tx, rx = pt(0, 0), pt(90, 0)
        vis = identify_position(tx, rx, gmap)
        p1, p9 = (_prediction(vis, rx, gmap, ScenarioConfig(tx=tx, p_t_watts=p))
                  for p in (1.0, 9.0))
        assert (p1.pl_db, p1.pl_simplified_db) == (p9.pl_db, p9.pl_simplified_db)

    def test_domain_errors(self):
        with pytest.raises(NumericalDomainError):
            path_loss(1 + 0j, 0.0, 1.0, 5.8e9)
        with pytest.raises(NumericalDomainError):
            path_loss(1 + 0j, 1.0, 1.0, -1.0)


class TestTotalField:
    def test_empty_map_is_friis(self, empty_map, tx):
        rx = pt(200, 40)
        vis = identify_position(tx, rx, empty_map)
        stages, term = _chain(vis, tx, rx, empty_map)
        pred = _prediction(vis, rx, empty_map, ScenarioConfig(tx=tx))
        d = float(np.linalg.norm(rx - tx))
        assert vis.classification.los and len(stages) == 0
        assert pred.pl_simplified_db == pred.pl_db
        assert pred.pl_db == pytest.approx(friis_path_loss_db(d, 5.8e9),
                                           abs=1e-9)

    def test_rx_directly_above_tx(self, canyon_map, cfg):
        # the TX-RX line has no horizontal length: no candidates, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = predict_one(cfg, canyon_map, pt(0, 0, 10))
        assert res.los[0] and res.n_stages[0] == 0
        assert res.pl_model_db[0] == pytest.approx(res.pl_free_space_db[0], abs=1e-9)

    def test_nlos_exceeds_matched_los(self, corner_map, cfg):
        # deep-NLOS corner position vs an open-street LOS position at the
        # same 3D distance
        nlos = predict_one(cfg, corner_map, pt(59, 45))
        assert not nlos.los[0]
        d = float(np.linalg.norm(pt(59, 45) - cfg.tx))
        los = predict_one(cfg, corner_map, pt(d, 0))
        assert los.los[0]
        assert nlos.pl_model_db[0] > los.pl_model_db[0]

    def test_shadow_attenuates_below_friis(self, corner_map, cfg):
        for rx in corner_route():
            res = predict_one(cfg, corner_map, rx)
            if not res.los[0]:
                assert res.pl_model_db[0] >= res.pl_free_space_db[0]

    def test_reflected_branch_composition(self, canyon_map, tx):
        rx = pt(95, 0)
        vis = identify_position(tx, rx, canyon_map)
        # force NLOS-style composition check through the component split:
        pred = _prediction(vis, rx, canyon_map, ScenarioConfig(tx=tx))
        assert pred.e_total == pred.components["direct"] \
            + pred.components["final_I"] + pred.components["final_II"]


def _two_call_field(vis, stages, term, cfg, rx, simplified):
    """Reference: one model's ``(pl_db, components, capped)`` in the scenario
    ``cfg``, composed on its own, the way each model was once computed by a
    call of its own, one position's scalars at a time."""
    p_t, g_r, freq = cfg.p_t_watts, cfg.g_r_linear, cfg.freq_hz
    k = 2.0 * np.pi * freq / C_LIGHT
    d3d = float(np.linalg.norm(rx - cfg.tx))
    los = vis.classification.los
    comp = {"direct": 0j, "final_I": 0j, "final_II": 0j}
    if los:
        comp["direct"] = direct_field(p_t, d3d, k)
    if len(stages):
        if simplified:
            e_n = direct_field(p_t, term["d_n"], k)
        else:
            e_n = recursive_chain(p_t, ChainTable([0, len(stages)], stages,
                                                  None, None), k)[0]
        ell, r = term["length_direct"], term["length_reflected"]
        a_i = np.sqrt(term["d_n"] / (ell * (term["d_n"] + ell)))
        comp["final_I"] = (e_n * slope_coefficient("I", term, k) * a_i
                           * np.exp(-1j * k * ell))
        if not los and not np.isnan(term["wall_point"]).any():
            a_ii = np.sqrt(term["d_n"] / (r * (term["d_n"] + r)))
            refl = reflection_coefficient(term["wall_incidence"], cfg.eps_r,
                                          cfg.polarization)
            comp["final_II"] = (refl * e_n * slope_coefficient("II", term, k)
                                * a_ii * np.exp(-1j * k * r))
    e_total = comp["direct"] + comp["final_I"] + comp["final_II"]
    _p_r, pl_db, capped = path_loss(e_total, p_t, g_r, freq, cfg.pl_cap_db)
    return pl_db, comp, capped


def _bits(values):
    return np.array(list(values), dtype=np.complex128).tobytes()


class TestOneComposition:
    @pytest.mark.parametrize("scene", ["canyon", "corner", "grid"])
    def test_matches_two_calls(self, scene, canyon_map, corner_map, tx):
        """Both models' path loss, components and powers equal those of a
        separate composition per model, bit for bit."""
        gmap, tx, route = {
            "canyon": lambda: (canyon_map, tx, canyon_route()),
            "corner": lambda: (corner_map, tx, corner_route()),
            "grid": _grid_scene}[scene]()
        cfg = ScenarioConfig(tx=tx, g_r_linear=2.0, pl_cap_db=150.0)
        reflected = differ = 0
        for rx in route:
            vis = identify_position(tx, rx, gmap)
            stages, term = _chain(vis, tx, rx, gmap)
            pred = _prediction(vis, rx, gmap, cfg)
            models = [_two_call_field(vis, stages, term, cfg, rx, simplified)
                      for simplified in (False, True)]
            (pl, comp, capped), (pl_s, comp_s, _capped) = models
            assert (pred.pl_db, pred.pl_simplified_db, pred.capped) == (
                pl, pl_s, capped)
            assert pred.components.keys() == comp.keys()
            assert _bits(pred.components.values()) == _bits(comp.values())
            assert _bits([pred.e_total]) == _bits([sum(comp.values())])
            assert pred.power.tobytes() == np.array(
                [[received_power(e, 2.0, F58) for e in c.values()]
                 for c in (comp, comp_s)]).tobytes()
            reflected += pred.power[0, 2] > 0.0
            differ += pred.pl_db != pred.pl_simplified_db
        # the canyon street is LOS throughout, so no wall term enters there
        assert differ and (reflected or scene == "canyon")

    def test_power_at_configured_frequency(self, corner_map, tx):
        """At 60 GHz, k c / 2 pi is not the configured frequency; the
        component powers are taken at the configured one."""
        freq = 60e9
        k = 2.0 * np.pi * freq / C_LIGHT
        assert k * C_LIGHT / (2.0 * np.pi) != freq
        apart = 0
        for rx in corner_route():
            vis = identify_position(tx, rx, corner_map)
            pred = _prediction(vis, rx, corner_map,
                               ScenarioConfig(tx=tx, freq_hz=freq))
            powers = [received_power(e, 1.0, freq)
                      for e in pred.components.values()]
            assert pred.power[0].tolist() == powers
            apart += powers != [received_power(e, 1.0, k * C_LIGHT / (
                2.0 * np.pi)) for e in pred.components.values()]
        assert apart

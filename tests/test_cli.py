"""End-to-end CLI tests: exit codes, determinism and metric round-trips."""

import csv
import json

import pytest

from conftest import (CORNER_BOXES, CORNER_ROUTE_Y, RING_OVERFLOW_MAP, TX,
                      Scene, build_map_dict, grid_scene, moved, read_rows,
                      rotation, set_usable_cpus, write_inputs)
from test_identify import GRID_BOXES, _grid_scene
from urbanprop import cli, pipeline
from urbanprop.cli import main

# the whole stderr of a config whose material the model cannot use
MATERIAL_ERRORS = [
    (("polarization", "X"), "error: config: polarization must be 'H' or 'V'"),
    (("eps_r", 0.5), "error: config: eps_r must be finite and exceed 1"),
    (("eps_r", 1.0), "error: config: eps_r must be finite and exceed 1")]


def run(args):
    return main([str(a) for a in args])


def street_scenario(tmp_path, n, degenerate_at=None):
    """Config of ``n`` positions up street B of the corner scene, the one at
    ``degenerate_at`` on the TX, written to the test's directory."""
    route = [(0.5 * i, *(TX.tolist() if i == degenerate_at
                         else (59.0, 60.0 * i / (n - 1), 2.0)))
             for i in range(n)]
    return write_inputs(Scene("street", build_map_dict(CORNER_BOXES),
                              TX.tolist(), route, 1), tmp_path)


class TestExitCodes:
    def test_missing_map_file(self, scenario, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "map_path": str(tmp_path / "nope.json"),
            "route_path": str(scenario["route"]),
        }))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_coordinate_beyond_float_range(self, scenario, tmp_path, capsys):
        raw = build_map_dict(CORNER_BOXES)
        raw["vertices"][0][0] = 10 ** 400
        bad_map = tmp_path / "map.json"
        bad_map.write_text(json.dumps(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(bad_map),
                                   "route_path": str(scenario["route"])}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "identify"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bad vertex entry at index 0: too large"]

    def test_face_normal_beyond_float_range(self, tmp_path, capsys):
        # finite corners whose face normals overflow: NaN walls before
        cfg = write_inputs(Scene("huge", build_map_dict(
            [(0, (0, 0, 1e300, 1e300, 1e300))]), TX.tolist(),
            [(0.0, 59.0, 0.0, 2.0)], 1), tmp_path)
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "identify"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: face 0 has a normal beyond the float range"]

    def test_ring_wall_beyond_float_range(self, tmp_path, capsys):
        # a finite, planar face whose roof-ring wall overflows: it loaded
        cfg = write_inputs(Scene("huge", RING_OVERFLOW_MAP, TX.tolist(),
                                 [(0.0, 59.0, 0.0, 2.0)], 1), tmp_path)
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "identify"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: face 0 has a ring wall beyond the float range"]

    def test_missing_config_flag(self, capsys):
        assert run(["predict"]) == 2

    def test_empty_route(self, scenario, tmp_path, capsys):
        route = tmp_path / "empty.csv"
        route.write_text("t,x,y,z\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(route)}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        assert "at least one point" in capsys.readouterr().err

    def test_unknown_config_field(self, scenario, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(scenario["route"]),
                                   "bogus": 1}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2

    @pytest.mark.parametrize("raw", [5, None, [1, 2]],
                             ids=["number", "null", "array"])
    def test_config_not_an_object(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: config must be a JSON object"]

    def test_route_header_with_blanks(self, scenario, tmp_path, capsys):
        route = tmp_path / "route.csv"
        lines = scenario["route"].read_text().splitlines()
        route.write_text("\n".join(["t, x, y, z"] + lines[1:]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(route),
                                   "tx": [0.0, 0.0, 2.0]}))
        outs = []
        for cfg_path, name in ((scenario["config"], "a"), (cfg, "b")):
            assert run(["--config", cfg_path, "--output", tmp_path / name,
                        "predict"]) == 0
            outs.append((tmp_path / name / "predict.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    # a tx object escaped as KeyError, a 4-element tx was cut to 3 values, a
    # number for a path reached open() as a file descriptor (one above any
    # descriptor limit, so no open file of this process can be read), and an
    # integer too large for a float loaded or failed inside numpy; the
    # scenario's material messages are pinned whole
    @pytest.mark.parametrize("field, value", [
        ("polarization", "X"), ("eps_r", 0.5),
        ("pl_cap_db", -5.0), ("pl_cap_db", float("nan")),
        ("tx", {"a": 1}), ("tx", [0.0, 0.0, 2.0, 9.0]), ("tx", ["0", 0, 2]),
        ("map_path", 10**6), ("route_path", [1]), ("output_dir", 7),
        ("corridor_width_m", True), ("freq_hz", True), ("freq_hz", "5.8e9"),
        ("pl_cap_db", [1, 2]), ("p_t_watts", False), ("eps_r", "6"),
        pytest.param("eps_r", 10**400, id="eps_r-1e400"),
        pytest.param("freq_hz", 10**400, id="freq_hz-1e400"),
        pytest.param("p_t_watts", 10**400, id="p_t_watts-1e400"),
        pytest.param("tx", [0, float("nan"), 2], id="tx-nan"),
        pytest.param("tx", [float("inf"), 0, 2], id="tx-inf"), ("eps_r", 1.0)])
    def test_bad_config_value_fails_at_load(self, scenario, tmp_path, capsys,
                                            field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(scenario["route"]),
                                   field: value}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        err = capsys.readouterr().err
        assert field in err
        for key, message in MATERIAL_ERRORS:
            if key == (field, value):
                assert err.splitlines() == [message]
        assert not (tmp_path / "o").exists()

    # a bool passed as a number (a 1 m corridor, "freq_hz": true in the
    # dump), other types failed inside numpy, and an integer too large for a
    # float was dumped
    @pytest.mark.parametrize("field, value", [
        ("freq_hz", True), ("freq_hz", "5.8e9"), ("pl_cap_db", [1, 2]),
        pytest.param("eps_r", 10**400, id="eps_r-1e400")])
    def test_non_number_config_field(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        assert run(["--config", cfg, "print-defaults"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: config field '{field}' must be a number, got {value!r}"]

    # both loaded, and doppler exited 0 with rows of nan
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_route_time(self, scenario, tmp_path, capsys, bad):
        rows = scenario["route"].read_text().splitlines()
        rows[2] = ",".join([bad] + rows[2].split(",")[1:])
        route = tmp_path / "route.csv"
        route.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(route)}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "doppler"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad route row 1: non-finite timestamp {bad}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_route_coordinate(self, scenario, tmp_path, capsys,
                                         bad):
        rows = scenario["route"].read_text().splitlines()
        t, _x, y, z = rows[2].split(",")
        route = tmp_path / "route.csv"
        route.write_text("\n".join(rows[:2] + [f"{t},{bad},{y},{z}"]
                                   + rows[3:]) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(route)}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad route row 1: non-finite coordinate in "
                       f"[{bad}, {float(y)}, {float(z)}]"]
        assert not (tmp_path / "o").exists()

    # a fifth cell was dropped, so the row loaded as its first four; a
    # short row failed on float(None)
    @pytest.mark.parametrize("cells", [5, 3])
    def test_route_row_cell_count(self, scenario, tmp_path, capsys, cells):
        rows = scenario["route"].read_text().splitlines()
        rows[2] = ",".join((rows[2].split(",") + ["99"])[:cells])
        route = tmp_path / "route.csv"
        route.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(route)}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad route row 1: {cells} cells, header has 4"]
        assert not (tmp_path / "o").exists()

    # the whole route was predicted before Doppler refused it, and the
    # output directory was left behind
    def test_one_point_doppler_route(self, scenario, tmp_path, capsys,
                                     monkeypatch):
        route = tmp_path / "route.csv"
        route.write_text("t,x,y,z\n0,59,0,2\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(route)}))
        calls = []
        monkeypatch.setattr(cli, "predict_route",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "o"
        assert run(["--config", cfg, "--output", out, "doppler"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: route must contain at least two points for "
                       "Doppler"]
        assert calls == [] and not out.exists()

    # doppler exited 0 with inf speeds and nan means, and numpy warned
    # "overflow encountered in divide"
    def test_overflowing_route_velocity(self, tmp_path, capsys):
        scene = grid_scene(4, 21)
        route = [(k * 1e-320, *row[1:]) for k, row in enumerate(scene.route[:5])]
        cfg = write_inputs(scene._replace(route=route), tmp_path / "in")
        out = tmp_path / "o"
        assert run(["--config", cfg, "--output", out, "doppler"]) == 2
        assert capsys.readouterr().err == (
            "error: bad route row 0: velocity beyond the float range\n")
        assert not out.exists()

    # compare created the output directory before reading its inputs
    @pytest.mark.parametrize("missing", ["reference", "predictions"])
    def test_failed_compare_leaves_no_output_dir(self, tmp_path, capsys,
                                                 missing):
        inputs = {"reference": tmp_path / "ref.csv",
                  "predictions": tmp_path / "prd.csv"}
        inputs["reference"].write_text("index,value\n0,1.0\n")
        inputs["predictions"].write_text("index,pl_model_db\n0,1.0\n")
        inputs[missing] = tmp_path / "missing.csv"
        out = tmp_path / "newout"
        assert run(["--output", out, "compare",
                    "--reference", inputs["reference"],
                    "--predictions", inputs["predictions"]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {missing}")
        assert not out.exists()

    # os.makedirs raised FileExistsError past main (exit 1, a traceback)
    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_output_path_is_a_file(self, scenario, tmp_path, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        ref = tmp_path / "ref.csv"
        ref.write_text("index,value\n0,1.0\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("index,pl_model_db\n0,1.0\n")
        args = {"predict": ["--config", scenario["config"], "--output", out,
                            "predict"],
                "compare": ["--output", out, "compare", "--reference", ref,
                            "--predictions", prd]}[command]
        assert run(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot create output directory {out}")

    def test_output_file_cannot_be_opened(self, scenario, tmp_path, capsys):
        (tmp_path / "o" / "predict.csv").mkdir(parents=True)
        assert run(["--config", scenario["config"], "--output", tmp_path / "o",
                    "predict"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot write output file ")

    # the first three raised past main with a traceback; an unread "origin"
    # key of any type loads
    @pytest.mark.parametrize("key, value, code", [
        ("vertices", [["a", 0, 0]], 2), ("vertices", [[0, 0], [1, 2, 3]], 2),
        ("faces", 5, 2), ("origin", 5, 0)])
    def test_malformed_map_json(self, scenario, tmp_path, capsys, key, value,
                                code):
        raw = build_map_dict(CORNER_BOXES)
        raw[key] = value
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(map_path),
                                   "route_path": str(scenario["route"])}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "identify"]) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 1 and err[0].startswith("error: ")
        else:
            assert err == []

    # a file that is not UTF-8, or a JSON integer past Python's 4,300-digit
    # limit, raised past main (exit 1, a traceback)
    @pytest.mark.parametrize("reader, content", [
        ("config", b"\xff\xfe{}"),
        ("config", b'{"eps_r": ' + b"9" * 5000 + b"}"),
        ("map", b"\xff\xfe{}"),
        ("map", "long"),
        ("route", b"t,x,y,z\n0,59,0,2\n\xff\xfe,59,6,2\n"),
        ("reference", b"index,value\n0,1.0\n\xff\xfe,2.0\n"),
        ("predictions", b"index,pl_model_db\n0,1.0\n\xff\xfe,2.0\n")],
        ids=["config-utf16", "config-digits", "map-utf16", "map-digits",
             "route", "reference", "predictions"])
    def test_unreadable_input_file(self, scenario, tmp_path, capsys, reader,
                                   content):
        bad = tmp_path / f"{reader}.bad"
        if content == "long":
            content = json.dumps(build_map_dict(CORNER_BOXES)).replace(
                "[20.0, 8.0, 0.0]", "[" + "9" * 5000 + ", 8.0, 0.0]", 1).encode()
        bad.write_bytes(content)
        files = {"map_path": str(scenario["map"]),
                 "route_path": str(scenario["route"])}
        files.update({"map": {"map_path": str(bad)},
                      "route": {"route_path": str(bad)}}.get(reader, {}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(files))
        ref, prd = tmp_path / "ref.csv", tmp_path / "prd.csv"
        ref.write_text("index,value\n0,1.0\n")
        prd.write_text("index,pl_model_db\n0,1.0\n")
        args = {"reference": ["compare", "--reference", bad, "--predictions", prd],
                "predictions": ["compare", "--reference", ref,
                                "--predictions", bad]}.get(reader, [
            "--config", bad if reader == "config" else cfg, "predict"])
        assert run(["--output", tmp_path / "o", *args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(bad) in err[0]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        # the map does not exist, so only a check made before loading it
        # gives this message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(tmp_path / "nope.json"),
                                   "route_path": str(tmp_path / "nope.csv")}))
        assert run(["--config", cfg, "--workers", workers, "--output",
                    tmp_path / "o", "predict"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --workers must be at least 1, got {workers}"]

    def test_compare_length_mismatch(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("index,value\n0,1.0\n1,2.0\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("index,pl_model_db\n0,1.0\n1,2.0\n2,3.0\n")
        assert run(["--output", tmp_path / "o", "compare",
                    "--reference", ref, "--predictions", prd]) == 3
        assert "rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # the model columns were read from the first data row, so a header-only
    # file named none
    @pytest.mark.parametrize("reference, message", [
        ("index,value\n0,1.0\n",
         "error: model 'pl_model_db' has 0 rows, reference has 1"),
        ("index,value\n",
         "error: model 'pl_model_db' and the reference have no rows")],
        ids=["0-vs-1", "0-vs-0"])
    def test_compare_header_only_predictions(self, tmp_path, capsys,
                                             reference, message):
        ref = tmp_path / "ref.csv"
        ref.write_text(reference)
        prd = tmp_path / "prd.csv"
        prd.write_text("index,pl_model_db\n")
        assert run(["--output", tmp_path / "o", "compare",
                    "--reference", ref, "--predictions", prd]) == 3
        assert capsys.readouterr().err.splitlines() == [message]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("reference, predictions", [
        ("index,value\n0,1.0\n1\n", "index,pl_model_db\n0,1.0\n1,2.0\n"),
        ("index,value\n0,1.0\n1,2.0\n", "index,pl_model_db\n0,1.0\n1\n"),
        *[(f"index,value\n0,1.0\n1,{v}\n", "index,pl_model_db\n0,1.0\n1,2.0\n")
          for v in ("nan", "inf", "-inf")],
        *[("index,value\n0,1.0\n1,2.0\n", f"index,pl_model_db\n0,1.0\n1,{v}\n")
          for v in ("nan", "inf", "-inf")]],
        ids=["reference", "predictions", "reference-nan", "reference-inf",
             "reference--inf", "predictions-nan", "predictions-inf",
             "predictions--inf"])
    def test_compare_short_row(self, tmp_path, capsys, reference,
                               predictions):
        # a row without a finite value names the row, exits 3 and writes
        # nothing: NaN and inf would reach compare.json as NaN/Infinity,
        # which strict JSON parsers reject
        ref = tmp_path / "ref.csv"
        ref.write_text(reference)
        prd = tmp_path / "prd.csv"
        prd.write_text(predictions)
        assert run(["--output", tmp_path / "o", "compare",
                    "--reference", ref, "--predictions", prd]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert " row 1: " in err[0]
        assert not (tmp_path / "o").exists()

    # an extra cell was dropped and compare exited 0
    @pytest.mark.parametrize("file", ["reference", "predictions"])
    def test_compare_row_with_extra_cell(self, tmp_path, capsys, file):
        ref = tmp_path / "ref.csv"
        ref.write_text("index,value\n0,1.0\n1,2.0,7\n" if file == "reference"
                       else "index,value\n0,1.0\n1,2.0\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("index,pl_model_db\n0,1.0\n1,2.5,9\n"
                       if file == "predictions"
                       else "index,pl_model_db\n0,1.0\n1,2.5\n")
        assert run(["--output", tmp_path / "o", "compare",
                    "--reference", ref, "--predictions", prd]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad {file} row 1: 3 cells, header has 2"]
        assert not (tmp_path / "o").exists()

    # rows pair by position, so each file's index must read 0, 1, ..., n-1:
    # a reversed reference paired its rows with the wrong predictions, and
    # a shifted one was accepted
    @pytest.mark.parametrize("file, rows, row, cell", [
        ("reference", ["2,3.0", "1,2.0", "0,1.0"], 0, "2"),
        ("reference", ["7,1.0", "8,2.0", "9,3.0"], 0, "7"),
        ("reference", ["0,1.0", "1.0,2.0", "2,3.0"], 1, "1.0"),
        ("predictions", ["0,1.0", "1,2.0", "3,3.0"], 2, "3"),
        ("predictions", ["1,2.0", "0,1.0", "2,3.0"], 0, "1"),
        ("predictions", ["0,1.0", "x,2.0", "2,3.0"], 1, "x")],
        ids=["reference-reversed", "reference-shifted",
             "reference-non-integer", "predictions-gap",
             "predictions-swapped", "predictions-non-integer"])
    def test_compare_index_out_of_order(self, tmp_path, capsys, file, rows,
                                        row, cell):
        ordered = ["0,1.0", "1,2.0", "2,3.0"]
        ref = tmp_path / "ref.csv"
        ref.write_text("\n".join(["index,value", *(
            rows if file == "reference" else ordered)]) + "\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("\n".join(["index,pl_model_db", *(
            rows if file == "predictions" else ordered)]) + "\n")
        assert run(["--output", tmp_path / "o", "compare",
                    "--reference", ref, "--predictions", prd]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad {file} row {row}: index {cell!r}, expected {row}"]
        assert not (tmp_path / "o").exists()


class TestPredict:
    def test_byte_identical_reruns(self, scenario, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["--config", scenario["config"], "--output", out,
                        "predict"]) == 0
            outs.append((out / "predict.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["identify", "predict", "doppler"])
    def test_workers_identical(self, tmp_path, capsys, monkeypatch,
                               pool_widths, command):
        # seven blocks of at most 10: 2 and 3 workers both start a pool of 2
        monkeypatch.setattr(pipeline, "BLOCK", 10)
        cfg = street_scenario(tmp_path, 68)
        output = {"identify": "identify.jsonl", "predict": "predict.csv",
                  "doppler": "doppler.csv"}[command]
        outs = []
        for name, w in (("w1", 1), ("w2", 2), ("w3", 3)):
            out = tmp_path / name
            assert run(["--config", cfg, "--workers", w,
                        "--output", out, command]) == 0
            outs.append((out / output).read_bytes())
        capsys.readouterr()
        assert pool_widths == [2, 2]
        assert outs[0] == outs[1] == outs[2]

    # (positions, width) in blocks of at most 3: one block short of two
    # workers' share, or just enough
    @pytest.mark.parametrize("n_positions, ran", [
        (3 * (2 * pipeline.POOL_BLOCKS - 1), 1),
        (3 * 2 * pipeline.POOL_BLOCKS - 1, 2)])
    def test_pool_width_capped_by_blocks(self, tmp_path, capsys, monkeypatch,
                                         pool_widths, n_positions, ran):
        monkeypatch.setattr(pipeline, "BLOCK", 3)
        cfg = street_scenario(tmp_path, n_positions)
        outs, errs = [], []
        for name, w in (("w1", 1), ("w3", 3)):
            assert run(["--config", cfg, "--workers", w, "--output",
                        tmp_path / name, "predict"]) == 0
            outs.append((tmp_path / name / "predict.csv").read_bytes())
            errs.append(capsys.readouterr().err)
        assert pool_widths == ([ran] if ran > 1 else [])
        assert outs[0] == outs[1]
        # the clamp is reported in one line; 1 worker is never clamped
        assert errs == ["", f"warning: 3 workers asked for, {ran} ran: no "
                        f"more than one per {pipeline.POOL_BLOCKS} blocks of "
                        f"{pipeline.BLOCK} positions\n"]

    def test_two_block_route_runs_in_this_process(self, tmp_path, capsys,
                                                  pool_widths):
        """A route of two blocks, the benchmark's shape, starts no pool at 2
        workers: the command says so in one line and writes the bytes of
        1 worker."""
        cfg = street_scenario(tmp_path, pipeline.BLOCK + 4)
        outs, errs = [], []
        for name, w in (("w1", 1), ("w2", 2)):
            assert run(["--config", cfg, "--workers", w, "--output",
                        tmp_path / name, "predict"]) == 0
            outs.append((tmp_path / name / "predict.csv").read_bytes())
            errs.append(capsys.readouterr().err)
        assert pool_widths == []
        assert outs[0] == outs[1]
        assert errs == ["", "warning: 2 workers asked for, 1 ran: no more "
                        "than one per 3 blocks of 64 positions\n"]

    def test_pool_width_capped_by_cpus(self, tmp_path, capsys, monkeypatch,
                                       pool_widths):
        # no more processes than CPUs this process may run on: 17 blocks of
        # at most 8 allow a pool of 5
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(pipeline, "BLOCK", 8)
        cfg = street_scenario(tmp_path, 129)
        assert run(["--config", cfg, "--workers", 3, "--output",
                    tmp_path / "o", "predict"]) == 0
        assert pool_widths == [2]
        assert capsys.readouterr().err == (
            "warning: 3 workers asked for, 2 ran: no more than one per CPU "
            "this process may run on\n")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_degenerate_position_exit_code(self, tmp_path, capsys,
                                           monkeypatch, pool_widths, workers):
        # the RX on the TX, in the last of seven blocks of at most 10
        monkeypatch.setattr(pipeline, "BLOCK", 10)
        cfg = street_scenario(tmp_path, 66, degenerate_at=64)
        assert run(["--config", cfg, "--workers", workers, "--output",
                    tmp_path / "o", "predict"]) == 4
        assert pool_widths == ([2] if workers > 1 else [])
        clamp = [f"warning: 3 workers asked for, 2 ran: no more than one per "
                 f"{pipeline.POOL_BLOCKS} blocks of {pipeline.BLOCK} "
                 "positions"] * (workers == 3)
        assert capsys.readouterr().err.splitlines() == [
            *clamp, "error: degenerate segment: endpoints coincide"]

    def test_tx_at_a_roof_corner(self, tmp_path, capsys):
        """A TX at a roof corner of building 0 runs every command (exit 0):
        identification keeps building 0 in the visible sets, and the
        chains anchored at that corner leave it out."""
        route = _grid_scene()[2]
        cfg = write_inputs(Scene("roof_corner", build_map_dict(GRID_BOXES),
                                 [30.0, 30.0, 12.0],
                                 [(k, *rx) for k, rx in enumerate(route)], 1),
                           tmp_path)
        for command in ("identify", "predict", "doppler"):
            assert run(["--config", cfg, "--output", tmp_path / "o",
                        command]) == 0, command
        assert capsys.readouterr().err == ""
        ids = [set(sum(r["visible"].values(), []))
               for r in read_rows(tmp_path / "o" / "identify.jsonl")]
        n_stages = [int(r["n_stages"])
                    for r in read_rows(tmp_path / "o" / "predict.csv")]
        assert len(n_stages) == len(route)
        # building 0 visible, its stage dropped where its corner is the TX's
        assert any(0 in b and n == len(b) - 1 for b, n in zip(ids, n_stages))
        assert all(n == len(b) - (0 in b and n < len(b))
                   for b, n in zip(ids, n_stages))

    @pytest.mark.parametrize("degrees", [30.0, 5.0])
    def test_rotated_grid_scene_runs(self, tmp_path, capsys, degrees):
        """The seed-21 grid city of 10 x 10 buildings, its TX and route
        turned about the origin, runs to exit 0: a departure angle just
        below 0 folds to 0, where ``% 2pi`` gave exactly 2pi and the
        route aborted with exit 4."""
        cfg = write_inputs(moved(grid_scene(10, 21), rotation(degrees)),
                           tmp_path / "in")
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 0
        assert capsys.readouterr().err == ""

    def test_columns_and_rows(self, scenario, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["--config", scenario["config"], "--output", out,
                    "predict"]) == 0
        capsys.readouterr()
        with open(out / "predict.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(CORNER_ROUTE_Y)
        for col in ("pl_model_db", "pl_simplified_db", "pl_gpp_db",
                    "pl_free_space_db", "los", "n_stages"):
            assert col in rows[0]
        assert {r["los"] for r in rows} == {"0", "1"}


class TestDoppler:
    def test_outputs_and_determinism(self, scenario, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["--config", scenario["config"], "--output", out,
                        "doppler"]) == 0
            outs.append((out / "doppler.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]
        with open(tmp_path / "a" / "doppler.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(CORNER_ROUTE_Y)
        for r in rows:
            assert float(r["sigma_d_hz"]) >= 0.0
            assert float(r["sigma_d_3gpp_hz"]) >= 0.0


class TestIdentify:
    def test_jsonl_output(self, scenario, tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["--config", scenario["config"], "--output", out,
                    "identify"]) == 0
        capsys.readouterr()
        recs = [json.loads(line) for line in
                (out / "identify.jsonl").read_text().splitlines()]
        assert len(recs) == len(CORNER_ROUTE_Y)
        assert recs[0]["los"] is True and recs[0]["bp"] is None
        assert recs[-1]["los"] is False and len(recs[-1]["bp"]) == 3


class TestCompare:
    def predict_csv(self, scenario, tmp_path, capsys):
        out = tmp_path / "pred"
        assert run(["--config", scenario["config"], "--output", out,
                    "predict"]) == 0
        capsys.readouterr()
        return out / "predict.csv"

    def write_reference(self, path, values):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "value"])
            for i, v in enumerate(values):
                writer.writerow([i, f"{v:.10g}"])

    def test_self_comparison_zero(self, scenario, tmp_path, capsys):
        pred = self.predict_csv(scenario, tmp_path, capsys)
        with open(pred, newline="") as fh:
            vals = [float(r["pl_model_db"]) for r in csv.DictReader(fh)]
        ref = tmp_path / "ref.csv"
        self.write_reference(ref, vals)
        out = tmp_path / "cmp"
        assert run(["--output", out, "compare", "--reference", ref,
                    "--predictions", pred]) == 0
        capsys.readouterr()
        report = json.loads((out / "compare.json").read_text())
        assert report["rmse_per_model"]["pl_model_db"] == 0.0
        assert report["ks_per_model"]["pl_model_db"] == 0.0
        assert (out / "cdf_pl_model_db.csv").exists()
        assert (out / "cdf_reference.csv").exists()

    def test_constant_offset_rmse(self, scenario, tmp_path, capsys):
        pred = self.predict_csv(scenario, tmp_path, capsys)
        with open(pred, newline="") as fh:
            vals = [float(r["pl_model_db"]) for r in csv.DictReader(fh)]
        ref = tmp_path / "ref.csv"
        self.write_reference(ref, [v + 2.0 for v in vals])
        out = tmp_path / "cmp"
        assert run(["--output", out, "compare", "--reference", ref,
                    "--predictions", pred]) == 0
        capsys.readouterr()
        report = json.loads((out / "compare.json").read_text())
        assert report["rmse_per_model"]["pl_model_db"] == pytest.approx(
            2.0, abs=1e-9)

    def test_headers_with_blanks(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("index, value\n0,1.0\n1,2.0\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("index, pl_model_db\n0,1.5\n1,2.5\n")
        out = tmp_path / "cmp"
        assert run(["--output", out, "compare", "--reference", ref,
                    "--predictions", prd]) == 0
        capsys.readouterr()
        report = json.loads((out / "compare.json").read_text())
        assert report["rmse_per_model"]["pl_model_db"] == 0.5

    def test_predictions_without_index(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("index,value\n0,1.0\n1,2.0\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("pl_model_db\n1.5\n2.5\n")
        out = tmp_path / "cmp"
        assert run(["--output", out, "compare", "--reference", ref,
                    "--predictions", prd]) == 0
        capsys.readouterr()
        report = json.loads((out / "compare.json").read_text())
        assert report["rmse_per_model"]["pl_model_db"] == 0.5


class TestPrintDefaults:
    def test_dump_contains_defaults(self, capsys):
        assert run(["print-defaults"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["freq_hz"] == 5.8e9
        assert dump["tx"] == [0.0, 0.0, 2.0]
        assert dump["polarization"] == "V"

    def test_dump_keeps_integers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_r": 7, "freq_hz": 2400000000}))
        assert run(["--config", cfg, "print-defaults"]) == 0
        out = capsys.readouterr().out
        assert '"eps_r": 7,' in out and '"freq_hz": 2400000000,' in out

    def test_dump_reflects_config(self, scenario, capsys):
        assert run(["--config", scenario["config"], "print-defaults"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["map_path"] == str(scenario["map"])

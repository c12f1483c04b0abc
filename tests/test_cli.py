"""End-to-end CLI tests: exit codes, determinism and metric round-trips."""

import csv
import json

import pytest

from conftest import CORNER_BOXES, CORNER_ROUTE_Y, build_map_dict
from urbanprop.cli import main


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Corner-scene map, route and config files on disk."""
    root = tmp_path_factory.mktemp("scenario")
    map_path = root / "map.json"
    map_path.write_text(json.dumps(build_map_dict(CORNER_BOXES)))
    route_path = root / "route.csv"
    with open(route_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "z"])
        for i, y in enumerate(CORNER_ROUTE_Y):
            writer.writerow([0.5 * i, 59.0, y, 2.0])
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "map_path": str(map_path),
        "route_path": str(route_path),
        "tx": [0.0, 0.0, 2.0],
    }))
    return {"root": root, "map": map_path, "route": route_path,
            "config": cfg_path}


def run(args):
    return main([str(a) for a in args])


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

    @pytest.mark.parametrize("field, value", [
        ("polarization", "X"), ("eps_r", 0.5),
        ("pl_cap_db", -5.0), ("pl_cap_db", float("nan"))])
    def test_bad_config_value_fails_at_load(self, scenario, tmp_path, capsys,
                                            field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"map_path": str(scenario["map"]),
                                   "route_path": str(scenario["route"]),
                                   field: value}))
        assert run(["--config", cfg, "--output", tmp_path / "o",
                    "predict"]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_compare_length_mismatch(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("index,value\n0,1.0\n1,2.0\n")
        prd = tmp_path / "prd.csv"
        prd.write_text("index,pl_model_db\n0,1.0\n1,2.0\n2,3.0\n")
        assert run(["--output", tmp_path / "o", "compare",
                    "--reference", ref, "--predictions", prd]) == 3
        assert "rows" in capsys.readouterr().err


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

    def test_workers_identical(self, scenario, tmp_path, capsys):
        outs = []
        for name, w in (("w1", 1), ("w3", 3)):
            out = tmp_path / name
            assert run(["--config", scenario["config"], "--workers", w,
                        "--output", out, "predict"]) == 0
            outs.append((out / "predict.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

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


class TestPrintDefaults:
    def test_dump_contains_defaults(self, capsys):
        assert run(["print-defaults"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["freq_hz"] == 5.8e9
        assert dump["tx"] == [0.0, 0.0, 2.0]
        assert dump["polarization"] == "V"

    def test_dump_reflects_config(self, scenario, capsys):
        assert run(["--config", scenario["config"], "print-defaults"]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["map_path"] == str(scenario["map"])

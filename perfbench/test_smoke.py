"""Smoke run of the benchmark on tiny cities, in seconds.

Every workload's code path runs on a 4 x 4 city with a few route positions:
the untraced run, the traced run, the reference check, the counter-drift
check and the refusal to run without the program.  Run from the repository
root::

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import make_references
import refcheck
import run
import scene
import spans

def tiny(workload):
    return dataclasses.replace(workload, n=4, stride=16)


@pytest.fixture(scope="module")
def mods():
    return run.import_program(run.ROOT)


@pytest.fixture(scope="module")
def declared():
    """BENCHMARK.json as parsed."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(params=sorted(run.WORKLOADS))
def workload(request):
    return tiny(run.WORKLOADS[request.param])


@pytest.fixture
def refs(tmp_path, mods, workload):
    directory = tmp_path / "reference"
    make_references.write_reference(mods, workload, str(directory),
                                    str(tmp_path / "make"))
    return directory


def run_tiny(mods, workload, refs, tmp_path, trace, seed=1):
    return run.run(mods, workload, seed, 0.01, trace, str(tmp_path / "work"),
                   reference_dir=str(refs), state_dir=str(tmp_path / "state"))


def test_benchmark_names_the_workloads(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in declared["per_layer"]] == list(
        run.PER_LAYER_UNITS)


def test_scene_matches_the_stated_layout():
    city = scene.city_map(20, seed=7)
    assert len(city["buildings"]) == 400
    assert len(city["faces"]) == 6 * 400          # 12 triangles a building
    heights = [v[2] for v in city["vertices"] if v[2] > 0.0]
    assert min(heights) >= 10.0 and max(heights) <= 40.0
    assert city == scene.city_map(20, seed=7)
    assert city != scene.city_map(20, seed=8)
    points = scene.route_points(20, 5.0)
    assert len(points) == 82
    assert points[0][1:] == (385.0, 500.0, 1.5)
    assert points[52][1:] == (645.0, 500.0, 1.5)
    assert points[53][1:] == (650.0, 505.0, 1.5)
    assert points[-1][1:] == (650.0, 645.0, 1.5)
    assert scene.tx_position(20) == [375.0, 500.0, 2.0]


def test_untraced_run(mods, workload, refs, tmp_path, declared):
    result, record = run_tiny(mods, workload, refs, tmp_path, trace=0)
    assert result["correct"] and result["failed"] == 0, record["notes"]
    positions = record["positions_per_command"]
    commands = 1 + len(record["timings"]["command_wall_s"])
    assert result["attempted"] == positions * commands
    metrics = result["metrics"]
    assert [(name, metrics[name]["unit"]) for name in metrics] == [
        (m["name"], m["unit"]) for m in declared["end_to_end"]]
    assert all(m["value"] > 0 for m in metrics.values())
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy",
                "numba_imports", "kernel", "code_sha256", "seed"):
        assert key in record["env"]


def test_traced_run_reports_every_layer(mods, workload, refs, tmp_path,
                                        declared):
    result, record = run_tiny(mods, workload, refs, tmp_path, trace=1)
    assert result["correct"], record["notes"]
    metrics = result["metrics"]
    assert [(name, metrics[name]["unit"]) for name in metrics] == [
        (m["name"], m["unit"]) for m in declared["per_layer"]]
    # too few positions leave no percentile with 10 samples beyond it
    nulls = [n for n, m in metrics.items() if m["value"] is None]
    samples = metrics["pipeline.position_ms_samples"]["value"]
    tail = ["pipeline.position_ms_tail", "pipeline.position_ms_tail_pct"]
    assert nulls == (tail if samples < 2 * run.TAIL_BEYOND else [])
    assert metrics["pipeline.positions"]["value"] == record[
        "positions_per_command"]
    doppler_calls = metrics["doppler.route_velocities_calls"]["value"]
    assert doppler_calls == (2 if workload.command == "doppler" else 0)
    spans_file = tmp_path / "state" / "spans" / f"{workload.name}-seed1.jsonl"
    assert spans_file.stat().st_size > 0


def test_reference_check_counts_a_wrong_position(mods, tmp_path):
    workload = tiny(run.WORKLOADS["grid400_doppler"])
    refs = tmp_path / "reference"
    make_references.write_reference(mods, workload, str(refs),
                                    str(tmp_path / "make"))
    path = workload.reference(str(refs))
    rows = refcheck.read_rows(path)
    value = float(rows[2]["f_mean_hz"])
    rows[2]["f_mean_hz"] = repr(value * (1.0 + 1e-7))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(",".join(r.values()) + "\n" for r in rows)
    result, _record = run_tiny(mods, workload, refs, tmp_path, trace=0)
    assert not result["correct"]
    assert result["failed"] == 1      # in the check pass
    assert result["metrics"]["correct_fraction"]["value"] < 1.0


def test_tolerance_is_relative_with_a_floor_near_zero():
    want = {"index": "3", "n_paths": "2", "f_mean_hz": "-193.3597829",
            "sigma_d_hz": "6.995659731e-15", "e_abs": "1e-12"}
    close = dict(want, f_mean_hz=repr(-193.3597829 * (1 + 5e-10)),
                 sigma_d_hz="0", e_abs=repr(1e-12 * (1 + 5e-10)))
    assert refcheck.row_matches(close, want)
    assert not refcheck.row_matches(dict(want, n_paths="3"), want)
    assert not refcheck.row_matches(dict(want, e_abs="1.1e-12"), want)
    assert not refcheck.row_matches({"index": "3"}, want)
    rows = [{"index": "0"}, {"index": "2"}]
    assert refcheck.count_unindexed(rows, 3) == 2


def test_counter_drift_is_flagged(mods, tmp_path):
    workload = tiny(run.WORKLOADS["grid100_identify"])
    refs = tmp_path / "reference"
    make_references.write_reference(mods, workload, str(refs),
                                    str(tmp_path / "make"))
    first, _ = run_tiny(mods, workload, refs, tmp_path, trace=1)
    again, _ = run_tiny(mods, workload, refs, tmp_path, trace=1)
    assert first["correct"] and again["correct"]
    store = tmp_path / "state" / "counters.json"
    counters = json.loads(store.read_text())
    (key,) = counters
    counters[key]["kernels.calls"] += 1
    store.write_text(json.dumps(counters))
    drifted, record = run_tiny(mods, workload, refs, tmp_path, trace=1)
    assert not drifted["correct"]
    assert any("kernels.calls" in note for note in record["notes"])


def test_missing_hook_reads_null(mods, tmp_path, capsys):
    workload = tiny(run.WORKLOADS["grid100_identify"])
    runner = run.Runner(mods, workload, 1, str(tmp_path / "work"))
    tracer = spans.Tracer()
    tracer.install(dict(mods, kernels=None))
    try:
        runner.command(1, tracer)
    finally:
        tracer.uninstall()
    metrics = spans.command_metrics(tracer)
    assert "kernels.segment_triangles" in capsys.readouterr().err
    assert metrics["kernels.calls"] is None and metrics["kernels.s"] is None
    assert metrics["identify.candidates_per_position"] is not None


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid100_identify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

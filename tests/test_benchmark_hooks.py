"""The benchmark's trace hooks must keep working on the package.

``perfbench/spans.py`` wraps ``(module, attribute)`` pairs of the package to
time its layers, and its observers read the return values of some of them
to count events.  A renamed function or a changed return shape only shows
there as a warning and a null metric, so these tests resolve every pair and
run the commands the benchmark runs under its tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import grid_scene, write_inputs
from urbanprop import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# already missing: both field models are called through pipeline.total_field
KNOWN_MISSING = {("baselines", "total_field")}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(spans):
    missing = {(mod, attr) for mod, attr, _span, _observer in spans.HOOKS
               if not callable(getattr(importlib.import_module(
                   f"urbanprop.{mod}"), attr, None))}
    assert missing <= KNOWN_MISSING


@pytest.mark.parametrize("command", ["identify", "predict", "doppler"])
def test_traced_command_feeds_every_metric(spans, scenario, tmp_path, capsys,
                                           command):
    modules = {mod: importlib.import_module(f"urbanprop.{mod}")
               for mod, _attr, _span, _observer in spans.HOOKS}
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        code = tracer.root("cli", cli.main, [
            "--config", str(scenario["config"]),
            "--output", str(tmp_path / "out"), command])
    finally:
        tracer.uninstall()
    assert code == 0
    warned = capsys.readouterr().err.splitlines()
    assert all(any(f"{mod}.{attr}" in line for mod, attr in KNOWN_MISSING)
               for line in warned), warned
    assert tracer.observed == {observer for *_hook, observer in spans.HOOKS
                               if observer is not None}
    metrics = spans.command_metrics(tracer)
    assert [name for name, value in metrics.items() if value is None] == []


# (workload, grid n, route step, command, workers) -> kernel calls,
# (segment, triangle) pairs, f_block queries, positions and route_velocities
# calls of its seed-21 command: the pairs read 33,432 / 33,480 / 66,540 when
# every kept row was tested, before the flag queries stopped at a first hit
WORKLOAD_COUNTERS = [
    (("grid400_doppler", 20, 5.0, "doppler", 1), [40, 19896, 2, 82, 2]),
    (("grid1600_predict_w2", 40, 5.0, "predict", 2), [41, 19944, 2, 82, 0]),
    (("grid100_identify", 10, 2.5, "identify", 1), [80, 39648, 3, 163, 0]),
]


@pytest.mark.parametrize("workload, counters", WORKLOAD_COUNTERS,
                         ids=[w[0] for w, _c in WORKLOAD_COUNTERS])
def test_workload_counters(spans, tmp_path, capsys, workload, counters):
    """The exact counters of each benchmark workload's seed-21 command, on
    the scene as the benchmark writes it and with its worker count: one
    ``f_block`` query per block, one ``pipeline.position`` span per route
    position, and ``route_velocities`` only in ``doppler``, where the
    route check and the Doppler pass each call it once."""
    _name, n, step, command, workers = workload
    modules = {mod: importlib.import_module(f"urbanprop.{mod}")
               for mod, _attr, _span, _observer in spans.HOOKS}
    cfg = write_inputs(grid_scene(n, 21, step=step), tmp_path / "in")
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        code = tracer.root("cli", cli.main, [
            "--config", cfg, "--output", str(tmp_path / "out"),
            "--workers", str(workers), command])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = spans.command_metrics(tracer)
    assert [metrics[name] for name in (
        "kernels.calls", "kernels.triangles_tested", "geometry.f_block_calls",
        "pipeline.positions", "doppler.route_velocities_calls")] == counters

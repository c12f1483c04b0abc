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


def test_grid400_doppler_counters(spans, tmp_path, capsys):
    """The kernel and chain-query counters of the seed-21 grid400 doppler
    command, on the scene as the benchmark writes it: 40 kernel calls and
    19,896 (segment, triangle) pairs since the flag queries stop at their
    first hit (67 and 33,432 when every kept row was tested), and one
    ``f_block`` query per block of the 82-position route."""
    modules = {mod: importlib.import_module(f"urbanprop.{mod}")
               for mod, _attr, _span, _observer in spans.HOOKS}
    cfg = write_inputs(grid_scene(20, 21, step=5.0), tmp_path / "in")
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        code = tracer.root("cli", cli.main, [
            "--config", cfg, "--output", str(tmp_path / "out"), "doppler"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = spans.command_metrics(tracer)
    assert [metrics[name] for name in ("kernels.calls", "kernels.triangles_tested",
                                       "geometry.f_block_calls")] == [40, 19896, 2]

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

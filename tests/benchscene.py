"""``perfbench/scene.py``, the benchmark's grid cities, loaded by path (read
only).  It imports no ``urbanprop``, so scripts run without ``src`` on the
path can use it."""

import importlib.util
from pathlib import Path

SCENE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "scene.py"


def grid_module():
    """``perfbench/scene.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_scene", SCENE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

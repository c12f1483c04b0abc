"""Scenario and route loading: what reaches the model is read-only."""

import numpy as np
import pytest

from urbanprop.config import ScenarioConfig, load_config, load_route


def test_loaded_arrays_are_read_only(scenario):
    route = load_route(scenario["route"])
    cfg = load_config(scenario["config"])
    assert route.t.dtype == route.xyz.dtype == cfg.tx.dtype == np.float64
    assert route.xyz.shape == (len(route.t), 3)
    for values in (route.t, route.xyz, cfg.tx, ScenarioConfig().tx):
        with pytest.raises(ValueError):
            values[0] = 1.0

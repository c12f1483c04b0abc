"""Scenario and route loading: what reaches the model is read-only."""

import numpy as np
import pytest

from urbanprop.config import ScenarioConfig, load_config, load_route
from urbanprop.errors import ConfigError


def test_loaded_arrays_are_read_only(scenario):
    route = load_route(scenario["route"])
    cfg = load_config(scenario["config"])
    assert route.t.dtype == route.xyz.dtype == cfg.tx.dtype == np.float64
    assert route.xyz.shape == (len(route.t), 3)
    for values in (route.t, route.xyz, cfg.tx, ScenarioConfig().tx):
        with pytest.raises(ValueError):
            values[0] = 1.0


@pytest.mark.parametrize("tx", [[1.0, 2.0], [float("nan"), 0.0, 0.0],
                                np.array([0.0, np.inf, 2.0]), "xyz",
                                np.array(5.0), np.zeros((1, 3))])
def test_tx_is_checked_where_it_is_built(tx):
    # these built a config: a 2-element or non-finite TX reached the model
    with pytest.raises(ConfigError, match="config field 'tx' must be"):
        ScenarioConfig(tx=tx)


@pytest.mark.parametrize("tx", [[1.0, 2.0, 3.0], (1, 2, 3),
                                np.array([1.0, 2.0, 3.0])])
def test_tx_is_read_only_float64_however_given(tx):
    # a list given here made defaults_dump fail with an AttributeError
    cfg = ScenarioConfig(tx=tx)
    assert cfg.tx.dtype == np.float64 and not cfg.tx.flags.writeable
    assert cfg.defaults_dump()["tx"] == [1.0, 2.0, 3.0]
    assert cfg.tx is not tx

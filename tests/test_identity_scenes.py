"""The byte-identity scene list of ``identity.py`` stays loadable: every
scene's map, route and config pass the program's loaders."""

from identity import scenes, write_inputs
from urbanprop.config import load_config, load_route
from urbanprop.geometry import load_map


def test_every_scene_loads(tmp_path):
    listed = scenes()
    assert len({scene.name for scene in listed}) == len(listed) == 27
    for scene in listed:
        cfg = load_config(write_inputs(scene, tmp_path / scene.name))
        assert len(load_map(cfg.map_path).ids) == len(scene.map["buildings"])
        assert len(load_route(cfg.route_path).t) == len(scene.route) >= 2

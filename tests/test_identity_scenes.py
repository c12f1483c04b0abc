"""The byte-identity scene list of ``identity.py`` stays loadable: every
scene's map, route and config pass the program's loaders; and its
``--compare`` mode reports and judges every differing cell."""

import io
import json

import pytest

from conftest import write_inputs
from identity import compare, scenes
from urbanprop.config import load_config, load_route
from urbanprop.geometry import load_map


def test_every_scene_loads(tmp_path):
    listed = scenes()
    assert len({scene.name for scene in listed}) == len(listed) == 29
    for scene in listed:
        cfg = load_config(write_inputs(scene, tmp_path / scene.name))
        assert len(load_map(cfg.map_path).ids) == len(scene.map["buildings"])
        assert len(load_route(cfg.route_path).t) == len(scene.route) >= 2


PREDICT = ("index,x,los,pl_model_db,n_stages,e_arg\n"
           "0,5,1,61.73895692,0,-1.357497165\n"
           "1,15,0,71.24299109,2,3.141592654\n")
IDENTIFY = [{"bp": None, "index": 0, "los": True, "sides": {"left": [0]},
             "visible": {"left": [0]}},
            {"bp": [1.0, 2.0, 3.0], "index": 1, "los": False,
             "sides": {"left": [0, 4]}, "visible": {"left": [4]}}]


def _tree(root, predict=PREDICT, identify=IDENTIFY, extra=False):
    """A small output tree: one scene's ``predict.csv`` and
    ``identify.jsonl``, and an extra scene's file if asked."""
    (root / "s").mkdir(parents=True)
    (root / "s" / "predict.csv").write_text(predict)
    (root / "s" / "identify.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in identify))
    if extra:
        (root / "t").mkdir()
        (root / "t" / "predict.csv").write_text(PREDICT)
    return str(root)


def _ident(**changes):
    """``IDENTIFY`` with the fields of its second record changed."""
    return [IDENTIFY[0], {**IDENTIFY[1], **changes}]


@pytest.mark.parametrize("after, code, lines", [
    ({}, 0, []),
    # within 1e-9 relative: listed, passes
    ({"predict": PREDICT.replace("71.24299109", "71.2429910901")}, 0,
     ["s/predict.csv row 1 pl_model_db: 71.24299109 -> 71.2429910901 "
      "(relative 1.4e-12)"]),
    ({"predict": PREDICT.replace("71.24299109", "71.24299119")}, 1,
     ["s/predict.csv row 1 pl_model_db: 71.24299109 -> 71.24299119 "
      "(relative 1.4e-09)"]),
    # e_arg across the branch cut: a number far apart
    ({"predict": PREDICT.replace("3.141592654", "-3.141592654")}, 1,
     ["s/predict.csv row 1 e_arg: 3.141592654 -> -3.141592654 "
      "(relative 2)"]),
    ({"predict": PREDICT.replace(",2,3.14", ",3,3.14")}, 1,
     ["s/predict.csv row 1 n_stages: 2 -> 3 (relative inf)"]),
    ({"predict": PREDICT.replace("0,5,1,", "0,5,0,")}, 1,
     ["s/predict.csv row 0 los: 1 -> 0 (relative inf)"]),
    ({"identify": _ident(bp=[1.0, 2.0, 3.0000000001])}, 1,
     ["s/identify.jsonl row 1 bp: [1.0, 2.0, 3.0] -> [1.0, 2.0, 3.0000000001] "
      "(relative inf)"]),
    ({"identify": _ident(visible={"left": []})}, 1,
     ["s/identify.jsonl row 1 visible: {'left': [4]} -> {'left': []} "
      "(relative inf)"]),
    ({"predict": PREDICT.rsplit("1,15", 1)[0]}, 1,
     [f"s/predict.csv row 1 {field}: {value} -> <missing> (relative inf)"
      for field, value in sorted(zip(PREDICT.splitlines()[0].split(","),
                                     PREDICT.splitlines()[2].split(",")))]),
    ({"extra": True}, 1, ["t/predict.csv: only in AFTER/t/predict.csv"]),
])
def test_compare_lists_and_judges_cells(tmp_path, after, code, lines):
    """Every differing cell is printed with its relative difference; a
    number within 1e-9 relative passes, and anything else fails."""
    out = io.StringIO()
    before, changed = _tree(tmp_path / "before"), _tree(tmp_path / "after",
                                                         **after)
    assert compare(before, changed, out) == code
    printed = out.getvalue().splitlines()
    assert printed[:-1] == [line.replace("AFTER", changed) for line in lines]
    files, cells = (3, 0) if after.get("extra") else (2, len(lines))
    assert printed[-1] == (f"{cells} cells differ in {files} files; "
                           f"{code and len(lines)} fail")

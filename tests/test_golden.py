"""Golden files for model format 1, tree-model predictions and
`explain_url` replies.

`tests/data/*_v1.json` and `predictions.json` were written by the
nested-node tree code that format 2 replaced: each recipe in
`predictions.json` trained on `make_ternary_dataset(n=200, seed=21)`,
saved the model, and recorded `predict_proba` on the stored rows as one
batch and row by row. Some rows sit exactly on split thresholds.

A recipe whose training has changed since keeps its format-1 file, which
must still load and predict as recorded, and records the model it trains
now under `retrained`: a format-2 file and its `predict_proba` rows.
`gbt_v2.json` is the `gbt` recipe with splits by second-order gain;
`forest_v2.json` and `extra_v2.json` are the `forest` and `extra`
recipes with each tree's draws made depth by depth.

`explain_replies.json` holds a server's replies over `gbt_v1.json` to
`explain_url` requests for 42 seeded generated URLs, recorded by the
LIME that sent all 500 perturbations to the model in one batch. A change
to LIME's output must say so and record the file again.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.models import load_model, save_model, train_forest, train_gbt, train_tree
from phishguard.models.serialize import FORMAT_VERSION, model_to_dict
from phishguard.server import PhishingServer

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = json.loads((DATA / "predictions.json").read_text())
ROWS = np.array(GOLDEN["rows"])
TRAINERS = {"train_tree": train_tree, "train_forest": train_forest, "train_gbt": train_gbt}
NAMES = sorted(GOLDEN["models"])


def retrain(entry):
    ds = make_ternary_dataset(**GOLDEN["dataset"])
    return TRAINERS[entry["trainer"]](ds, **entry["kwargs"])


@pytest.mark.parametrize("name", NAMES)
def test_v1_file_reproduces_predictions(name):
    entry = GOLDEN["models"][name]
    model = load_model(DATA / entry["file"])
    assert np.array_equal(model.predict_proba(ROWS), entry["predict_proba"])
    single = [model.predict_proba(row) for row in ROWS]
    assert np.array_equal(single, entry["predict_proba_single"])


@pytest.mark.parametrize("name", NAMES)
def test_retrained_model_equals_v1_file(tmp_path, name):
    entry = GOLDEN["models"][name]
    golden = entry.get("retrained", entry)
    model = retrain(entry)
    assert model_to_dict(model) == model_to_dict(load_model(DATA / golden["file"]))
    path = tmp_path / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text())["version"] == FORMAT_VERSION
    assert np.array_equal(load_model(path).predict_proba(ROWS), golden["predict_proba"])


def test_explain_url_replies_byte_identical():
    recorded = json.loads((DATA / "explain_replies.json").read_text())
    server = PhishingServer(load_model(DATA / recorded["model"]))
    assert len(recorded["cases"]) == 42
    for case in recorded["cases"]:
        assert server.handle_line(case["request"]) == case["reply"]

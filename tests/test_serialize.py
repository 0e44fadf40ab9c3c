import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.errors import PhishguardError
from phishguard.models import (
    TrainConfig,
    load_model,
    save_model,
    train_forest,
    train_gbt,
    train_linear,
    train_mlp,
    train_tree,
)
from phishguard.models.serialize import model_from_dict, model_to_dict


def fitted_models():
    ds = make_ternary_dataset(n=150, seed=0)
    return ds, {
        "linear": train_linear(ds),
        "tree": train_tree(ds, max_depth=4),
        "forest": train_forest(ds, n_trees=5, seed=1),
        "gbt": train_gbt(ds, n_rounds=5, max_depth=2),
        "mlp": train_mlp(ds, [8, 1], cfg=TrainConfig(max_epochs=30,
                                                     learning_rate=0.01,
                                                     seed=0)),
    }


@pytest.mark.parametrize("name", ["linear", "tree", "forest", "gbt", "mlp"])
def test_round_trip_preserves_predictions(tmp_path, name):
    ds, models = fitted_models()
    model = models[name]
    path = tmp_path / f"{name}.json"
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(np.asarray(model.predict_proba(ds.X)),
                          np.asarray(restored.predict_proba(ds.X)))
    assert restored.feature_names == model.feature_names


@pytest.mark.parametrize("name", ["linear", "tree", "forest", "gbt", "mlp"])
def test_save_is_byte_identical(tmp_path, name):
    _, models = fitted_models()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_model(models[name], a)
    save_model(models[name], b)
    assert a.read_bytes() == b.read_bytes()


def test_version_guard():
    _, models = fitted_models()
    doc = model_to_dict(models["linear"])
    doc["version"] = 999
    with pytest.raises(PhishguardError):
        model_from_dict(doc)


def test_unknown_kind_rejected():
    with pytest.raises(PhishguardError):
        model_from_dict({"version": 1, "kind": "mystery", "params": {},
                         "feature_names": []})


def test_trees_are_stored_as_node_arrays():
    _, models = fitted_models()
    params = model_to_dict(models["tree"])["params"]
    lengths = {len(params[name]) for name in ("feature", "threshold", "left", "right", "value")}
    assert len(lengths) == 1
    assert "root" not in params


def _cycle(p):
    p["left"][0] = 0


def _feature_out_of_range(p):
    p["feature"][0] = p["n_features"]


def _short_value(p):
    p["value"].pop()


def _leaf_with_child(p):
    leaf = p["feature"].index(-1)
    p["right"][leaf] = 0


@pytest.mark.parametrize("corrupt", [_cycle, _feature_out_of_range, _short_value,
                                     _leaf_with_child])
def test_malformed_node_arrays_rejected(corrupt):
    _, models = fitted_models()
    doc = model_to_dict(models["tree"])
    corrupt(doc["params"])
    with pytest.raises(PhishguardError):
        model_from_dict(doc)

import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard import cli
from phishguard.cli import main
from phishguard.errors import PhishguardError
from phishguard.models import (
    DecisionTree,
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

DATA = Path(__file__).resolve().parent / "data"
FITTED = ["linear", "tree", "forest", "gbt", "mlp"]
V1_FILES = ["tree_v1.json", "forest_v1.json", "gbt_v1.json", "extra_v1.json"]


@functools.lru_cache(maxsize=None)
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


def source_model(name):
    """A fitted model of kind `name`, or the model a format-1 file holds."""
    return load_model(DATA / name) if name.endswith(".json") else fitted_models()[1][name]


def field_names(model) -> set[str]:
    return {f.name for f in dataclasses.fields(model)} - {"feature_names"}


@pytest.mark.parametrize("name", FITTED + V1_FILES)
def test_params_are_the_model_fields(name):
    model = source_model(name)
    params = model_to_dict(model)["params"]
    assert set(params) == field_names(model)
    for member, tree in zip(params.get("members", ()), getattr(model, "members", ())):
        assert set(member) == field_names(tree) == field_names(DecisionTree)


@pytest.mark.parametrize("name", FITTED + V1_FILES)
def test_save_load_save_is_byte_identical(tmp_path, name):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(source_model(name), first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def _missing_field(doc):
    del doc["params"]["bias"]


def _unknown_field(doc):
    doc["params"]["momentum"] = 0.9


def _mistyped_field(doc):
    doc["params"]["bias"] = "0.25"


def _bool_for_a_number(doc):
    doc["params"]["l2"] = True


def _feature_names_in_params(doc):
    doc["params"]["feature_names"] = doc["feature_names"]


def _list_document(doc):
    return [doc]


def _missing_params(doc):
    del doc["params"]


def _params_not_an_object(doc):
    doc["params"] = list(doc["params"].items())


def _feature_names_not_strings(doc):
    doc["feature_names"] = [1, 2]


def _missing_member_field(doc):
    del doc["params"]["members"][0]["threshold"]


def _member_not_an_object(doc):
    doc["params"]["members"][0] = [doc["params"]["members"][0]]


def _mistyped_mode(doc):
    doc["params"]["mode"] = 5


def _one_weight_short(doc):
    doc["params"]["weights"].pop()


def _ragged_layer(doc):
    doc["params"]["weights"][0][0].pop()


def _short_standardization(doc):
    doc["params"]["mean"] = doc["params"]["mean"][:5]
    doc["params"]["scale"] = doc["params"]["scale"][:5]


def _weights_a_matrix(doc):
    doc["params"]["weights"] = [doc["params"]["weights"]]


def _unchained_layers(doc):
    # layers (23, 8) then (7, 1)
    doc["params"]["weights"][1] = doc["params"]["weights"][1][:7]


def _wider_member(doc):
    # a member that takes 30 features and splits on feature 25, which a
    # 23-wide row does not have
    member = doc["params"]["members"][0]
    member["n_features"] = 30
    member["feature"][0] = 25


def _root_index(field, value):
    """Re-save a format-1 tree and set its root's `field` to `value`: a
    fraction that `np.intp` would truncate to a valid index, or a number
    that no index can be."""
    def corrupt(doc):
        doc = model_to_dict(model_from_dict(doc))
        doc["params"][field][0] = value
        return doc
    corrupt.__name__ = f"_{field}_{value}"
    return corrupt


def _v1_root_without_children(doc):
    del doc["params"]["members"][0]["root"]["left"]


# a format-1 tree chained deeper than Python's default recursion limit
DEEP = 1200
LEAF_TEXT = '{"value": [0.5, 0.5]}'


def _deep_v1_root(doc):
    root = json.loads(LEAF_TEXT)
    for _ in range(DEEP):
        root = {"feature": 0, "threshold": 0.5, "left": root, "right": json.loads(LEAF_TEXT)}
    doc["params"]["root"] = root


def _deep_v1_text():
    """A format-1 tree file nested DEEP levels, as text: `json.dumps`
    cannot write it, and whether `json.loads` reads it back depends on
    the Python version."""
    doc = json.loads((DATA / "tree_v1.json").read_text())
    doc["params"]["root"] = "ROOT"
    inner = '{"feature": 0, "threshold": 0.5, "right": %s, "left": ' % LEAF_TEXT
    return json.dumps(doc).replace('"ROOT"', inner * DEEP + LEAF_TEXT + "}" * DEEP)


def _missing_defaulted(field):
    def corrupt(doc):
        del doc["params"][field]
    corrupt.__name__ = f"_missing_defaulted_{field}"
    return corrupt


def _set_param(field, value, label):
    def corrupt(doc):
        doc["params"][field] = value
    corrupt.__name__ = f"_{field}_{label}"
    return corrupt


def _weights_as(label, item):
    def corrupt(doc):
        doc["params"]["weights"][0] = item
    corrupt.__name__ = f"_weight_{label}"
    return corrupt


def _version_true(doc):
    # True == 1, but a bool is no format version
    doc["version"] = True


def _array_item(label, item, *path):
    """Set the array item at `path` under params to `item`; the last
    node of a tree's arrays is a leaf, its first the root."""
    def corrupt(doc):
        array = doc["params"]
        for key in path[:-1]:
            array = array[key]
        array[path[-1]] = item
    corrupt.__name__ = f"_{label}"
    return corrupt


MALFORMED = [
    ("linear", _missing_field),
    ("linear", _unknown_field),
    ("linear", _mistyped_field),
    ("linear", _bool_for_a_number),
    ("linear", _feature_names_in_params),
    ("linear", _list_document),
    ("linear", _missing_params),
    ("linear", _params_not_an_object),
    ("linear", _feature_names_not_strings),
    ("forest", _missing_member_field),
    ("forest", _member_not_an_object),
    ("gbt", _mistyped_mode),
    ("gbt", _one_weight_short),
    ("mlp", _ragged_layer),
    ("forest_v1.json", _v1_root_without_children),
    ("tree_v1.json", _deep_v1_root),
    # a field with a constructor default must still be in the file
    ("linear", _missing_defaulted("mean")),
    ("gbt", _missing_defaulted("base_score")),
    ("mlp", _missing_defaulted("scale")),
    ("tree", _missing_defaulted("task")),
    ("linear", _set_param("scale", None, "null")),
    ("mlp", _set_param("mean", 0.0, "a_number")),
    ("gbt", _weights_as("a_string", "0.1")),
    ("gbt", _weights_as("null", None)),
    ("gbt", _weights_as("nan", float("nan"))),
    ("gbt", _set_param("base_score", float("inf"), "infinite")),
    # an array holds JSON numbers at every depth, as its constructor
    # would otherwise convert what it finds
    ("gbt", _array_item("null_leaf_value", None, "members", 0, "value", -1)),
    ("gbt", _array_item("null_root_threshold", None, "members", 0, "threshold", 0)),
    ("linear", _array_item("string_in_mean", "1.5", "mean", 0)),
    ("linear", _array_item("bool_in_mean", True, "mean", 0)),
    ("linear", _array_item("null_in_mean", None, "mean", 0)),
    ("mlp", _array_item("null_weight", None, "weights", 0, 0, 0)),
    ("mlp", _array_item("bool_bias", False, "biases", 1, 0)),
    # fields of the right types that disagree in shape with each other
    ("linear", _short_standardization),
    ("linear", _weights_a_matrix),
    ("mlp", _unchained_layers),
    ("gbt", _wider_member),
    # node and feature indices are whole numbers in range
    ("tree_v1.json", _root_index("feature", 7.9)),
    ("tree_v1.json", _root_index("left", 1.7)),
    ("tree_v1.json", _root_index("right", 2.5)),
    ("tree_v1.json", _root_index("feature", 1e300)),
    ("tree_v1.json", _root_index("left", 2**64 - 1)),
    ("linear", _version_true),
    ("gbt", _set_param("mode", "bogus", "unknown")),
    # training writes finite weights and a finite, positive standardization
    ("mlp", _array_item("nan_bias", float("nan"), "biases", 0, 0)),
    ("mlp", _array_item("infinite_weight", float("inf"), "weights", 1, 0, 0)),
    ("mlp", _array_item("nan_in_mean", float("nan"), "mean", 0)),
    ("linear", _array_item("infinite_in_mean", float("-inf"), "mean", 0)),
    ("linear", _array_item("infinite_scale", float("inf"), "scale", 0)),
    ("linear", _array_item("zero_scale", 0.0, "scale", 0)),
    ("mlp", _array_item("negative_scale", -1.0, "scale", 0)),
    # a tree's task is one that training knows, its depth a count, and an
    # inner node's threshold finite (at NaN every row would go right)
    ("tree", _set_param("task", "bogus", "unknown")),
    ("gbt", _array_item("unknown_member_task", "bogus", "members", 0, "task")),
    ("tree", _set_param("max_depth", -7, "negative")),
    ("forest", _array_item("negative_member_depth", -1, "members", 0, "max_depth")),
    ("tree", _array_item("nan_root_threshold", float("nan"), "threshold", 0)),
    ("gbt", _array_item("infinite_root_threshold", float("-inf"), "members", 0, "threshold", 0)),
]


def test_nan_leaf_value_loads():
    # a regression tree fitted to NaN targets writes JSON NaN
    doc = model_to_dict(fitted_models()[1]["tree"])
    doc["params"]["value"][-1] = float("nan")
    tree = model_from_dict(json.loads(json.dumps(doc)))
    assert np.isnan(tree.value[-1])


def malformed_doc(name, corrupt):
    if name.endswith(".json"):
        doc = json.loads((DATA / name).read_text())
    else:
        doc = model_to_dict(fitted_models()[1][name])
    corrupted = corrupt(doc)
    return doc if corrupted is None else corrupted


@pytest.mark.parametrize("name, corrupt", MALFORMED,
                         ids=[corrupt.__name__ for _, corrupt in MALFORMED])
def test_malformed_documents_rejected(name, corrupt):
    with pytest.raises(PhishguardError):
        model_from_dict(malformed_doc(name, corrupt))


# a malformed document, or the text of a file
MALFORMED_FILES = {
    "missing_field": ("linear", _missing_field),
    "missing_params": ("linear", _missing_params),
    "list_document": ("linear", _list_document),
    "member_not_an_object": ("forest", _member_not_an_object),
    "not_json": "{not json",
    "nested_too_deep": "[" * 100000,
    "missing_defaulted_field": ("gbt", _missing_defaulted("base_score")),
    "tree_deeper_than_the_stack": _deep_v1_text(),
    "short_standardization": ("linear", _short_standardization),
    "unchained_layers": ("mlp", _unchained_layers),
    "wider_member": ("gbt", _wider_member),
    "null_leaf_value": ("gbt", _array_item("null_leaf_value", None, "members", 0, "value", -1)),
    "null_weight": ("mlp", _array_item("null_weight", None, "weights", 0, 0, 0)),
    "fractional_feature": ("tree_v1.json", _root_index("feature", 7.9)),
    "fractional_left": ("tree_v1.json", _root_index("left", 1.7)),
    "version_true": ("linear", _version_true),
    "unknown_mode": ("forest", _set_param("mode", "bogus", "unknown")),
    "nan_bias": ("mlp", _array_item("nan_bias", float("nan"), "biases", 0, 0)),
    "nan_threshold": ("tree", _array_item("nan_root_threshold", float("nan"), "threshold", 0)),
}


def test_serve_starts_on_a_well_formed_model_file(tmp_path, monkeypatch):
    served = []
    monkeypatch.setattr(cli, "serve", lambda transport, model, *rest, **kw: served.append(model))
    save_model(source_model("gbt_v1.json"), tmp_path / "good.json")
    assert main(["serve", "--model", str(tmp_path / "good.json")]) == 0
    assert [model.kind for model in served] == ["ensemble"]


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_serve_refuses_a_malformed_model_file(tmp_path, capsys, monkeypatch, case):
    # a model that loads must not reach the transport, whose read of the
    # captured stdin would also exit 2
    monkeypatch.setattr(cli, "serve", lambda *args, **kw: pytest.fail("the model was served"))
    text = MALFORMED_FILES[case]
    path = tmp_path / "bad.json"
    path.write_text(text if isinstance(text, str) else json.dumps(malformed_doc(*text)))
    assert main(["serve", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "internal error" not in err

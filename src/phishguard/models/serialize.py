"""Versioned JSON serialization for every trained model kind.

A model file holds the model's own dataclass fields:

    {"version": 2, "kind": "linear", "feature_names": [...],
     "params": {"weights": [...], "bias": 0.25, "loss": "logistic", ...}}

`params` has one entry per field but `feature_names`: an array as its
nested list, a list item by item and an ensemble's member trees as their
own params. A tree's fields are its parallel node arrays (see
`models.tree`). Loading requires exactly those fields, a defaulted one
too, each of its annotation's JSON type, and passes them to the kind's
constructor; anything else raises `PhishguardError`. Format 1 nested
each tree's nodes under "root"; it is still read and converted to node
arrays at load.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from ..errors import PhishguardError
from .ensemble import Ensemble
from .linear import LinearModel
from .mlp import MlpModel
from .tree import LEAF, NODE_ARRAYS, DecisionTree

FORMAT_VERSION = 2

KINDS = {cls.kind: cls for cls in (LinearModel, DecisionTree, Ensemble, MlpModel)}

# the JSON types a field may hold, by its annotation (a bool is no
# number); an array is a list of numbers, or of such lists, at every
# depth, which the constructors turn into a numpy array
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "DecisionTree": (dict,)}


def _holds(annotation: str, value) -> bool:
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_holds(annotation[5:-1], item) for item in value)
    if annotation == "np.ndarray":
        if not isinstance(value, list):
            return False
        # one type lookup per item: a large array is checked at C speed
        types = set(map(type, value))
        if list in types:
            return types == {list} and all(_holds(annotation, item) for item in value)
        return types <= {int, float}
    return type(value) is not bool and isinstance(value, _JSON_TYPES[annotation])


def _v1_node_arrays(root: dict) -> dict:
    """Preorder node arrays of a format-1 nested tree. A v1 leaf held
    [p(legitimate), p(phishing)] or [fitted value]; its last entry is
    the v2 leaf value."""
    nodes = {name: [] for name in NODE_ARRAYS}

    def add(node: dict) -> int:
        i = len(nodes["feature"])
        leaf = "value" in node
        if leaf:
            row = (LEAF, 0.0, i, i, node["value"][-1])
        else:
            row = (node["feature"], node["threshold"], i, i, 0.0)
        for name, item in zip(NODE_ARRAYS, row):
            nodes[name].append(item)
        if not leaf:
            nodes["left"][i] = add(node["left"])
            nodes["right"][i] = add(node["right"])
        return i

    add(root)
    return nodes


def _encode(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if dataclasses.is_dataclass(value):
        return _params(value)
    return value


def _fields(cls) -> dict[str, str]:
    return {f.name: f.type for f in dataclasses.fields(cls) if f.name != "feature_names"}


def _params(model) -> dict:
    return {name: _encode(getattr(model, name)) for name in _fields(model)}


def model_to_dict(model) -> dict:
    return {"version": FORMAT_VERSION, "kind": model.kind,
            "feature_names": list(model.feature_names), "params": _params(model)}


def _build(cls, params, names: tuple[str, ...]):
    if not isinstance(params, dict):
        raise PhishguardError(f"{cls.kind} params must be a JSON object")
    params = dict(params)
    try:
        if "root" in params:  # format 1
            params.update(_v1_node_arrays(params.pop("root")))
        fields = _fields(cls)
        missing, unknown = sorted(fields.keys() - params), sorted(params.keys() - fields)
        if missing or unknown:
            raise PhishguardError(f"{cls.kind} params: missing {missing}, unknown {unknown}")
        for name, value in params.items():
            if not _holds(fields[name], value):
                raise PhishguardError(f"{cls.kind} {name} is not a {fields[name]}: {value!r:.80}")
        if cls is Ensemble:
            params["members"] = [_build(DecisionTree, member, names)
                                 for member in params["members"]]
        return cls(**params, feature_names=names)
    except (TypeError, ValueError, KeyError, IndexError, RecursionError) as exc:
        raise PhishguardError(f"malformed {cls.kind} params: {exc}") from exc


def model_from_dict(doc):
    if not isinstance(doc, dict):
        raise PhishguardError("a model file must hold a JSON object")
    version = doc.get("version")
    # a bool is no version, though True == 1
    if type(version) is not int or version not in (1, FORMAT_VERSION):
        raise PhishguardError(f"unsupported model format version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise PhishguardError(f"unknown model kind {kind!r}")
    names = doc.get("feature_names", [])
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise PhishguardError("feature_names must be a list of strings")
    return _build(KINDS[kind], doc.get("params"), tuple(names))


def save_model(model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True))


def load_model(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # not JSON text, or nested too deep
        raise PhishguardError(f"{path} is not a JSON model file: {exc}") from exc
    return model_from_dict(doc)

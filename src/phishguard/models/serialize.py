"""Versioned JSON serialization for every trained model kind.

Format 2 stores a tree as its parallel node arrays (see `models.tree`):

    {"feature": [...], "threshold": [...], "left": [...], "right": [...],
     "value": [...], "n_features": d, "max_depth": k, "task": "classify"}

An ensemble stores a list of such trees under "members". Format 1
nested each tree's nodes under "root"; it is still read and converted
to node arrays at load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import PhishguardError
from .ensemble import Ensemble
from .linear import LinearModel
from .mlp import MlpModel
from .tree import LEAF, NODE_ARRAYS, DecisionTree

FORMAT_VERSION = 2


def _tree_to_dict(tree: DecisionTree) -> dict:
    doc = {name: getattr(tree, name).tolist() for name in NODE_ARRAYS}
    doc.update(n_features=tree.n_features, max_depth=tree.max_depth, task=tree.task)
    return doc


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


def _tree_from_dict(data: dict, feature_names) -> DecisionTree:
    nodes = _v1_node_arrays(data["root"]) if "root" in data else data
    return DecisionTree(
        **{name: np.asarray(nodes[name]) for name in NODE_ARRAYS},
        n_features=data["n_features"],
        max_depth=data["max_depth"],
        task=data["task"],
        feature_names=tuple(feature_names),
    )


def model_to_dict(model) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "kind": model.kind,
        "feature_names": list(model.feature_names),
    }
    if isinstance(model, LinearModel):
        doc["params"] = {
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "loss": model.loss,
            "regularization": model.regularization,
            "l1": model.l1,
            "l2": model.l2,
            "mean": model.mean.tolist(),
            "scale": model.scale.tolist(),
        }
    elif isinstance(model, DecisionTree):
        doc["params"] = _tree_to_dict(model)
    elif isinstance(model, Ensemble):
        doc["params"] = {
            "mode": model.mode,
            "learning_rate": model.learning_rate,
            "base_score": model.base_score,
            "weights": list(model.weights),
            "members": [_tree_to_dict(t) for t in model.members],
        }
    elif isinstance(model, MlpModel):
        doc["params"] = {
            "weights": [W.tolist() for W in model.weights],
            "biases": [b.tolist() for b in model.biases],
            "mean": model.mean.tolist(),
            "scale": model.scale.tolist(),
        }
    else:
        raise PhishguardError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_dict(doc: dict):
    if doc.get("version") not in (1, FORMAT_VERSION):
        raise PhishguardError(f"unsupported model format version {doc.get('version')}")
    names = tuple(doc.get("feature_names", ()))
    kind = doc["kind"]
    params = doc["params"]
    if kind == "linear":
        return LinearModel(
            weights=np.asarray(params["weights"]),
            bias=params["bias"],
            loss=params["loss"],
            regularization=params["regularization"],
            l1=params["l1"],
            l2=params["l2"],
            mean=np.asarray(params["mean"]),
            scale=np.asarray(params["scale"]),
            feature_names=names,
        )
    if kind == "tree":
        return _tree_from_dict(params, names)
    if kind == "ensemble":
        return Ensemble(
            members=[_tree_from_dict(t, names) for t in params["members"]],
            weights=list(params["weights"]),
            mode=params["mode"],
            learning_rate=params["learning_rate"],
            base_score=params["base_score"],
            feature_names=names,
        )
    if kind == "mlp":
        return MlpModel(
            weights=[np.asarray(W) for W in params["weights"]],
            biases=[np.asarray(b) for b in params["biases"]],
            mean=np.asarray(params["mean"]),
            scale=np.asarray(params["scale"]),
            feature_names=names,
        )
    raise PhishguardError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True))


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text()))

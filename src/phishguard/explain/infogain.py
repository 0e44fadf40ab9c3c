"""Information gain of features with respect to the binary label."""

from __future__ import annotations

import numpy as np

from ..datasets import Dataset
from ..errors import PhishguardError, UnknownFeature


def entropy(labels) -> float:
    """Shannon entropy in bits."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def _discretize(column: np.ndarray) -> np.ndarray:
    """Ternary features pass through; many-valued numeric columns are
    binned into terciles."""
    # np.unique without return_counts imports numpy.ma
    distinct, _ = np.unique(column, return_counts=True)
    if len(distinct) <= 3:
        return column
    lo, hi = np.quantile(column, [1 / 3, 2 / 3])
    binned = np.where(column <= lo, 0, np.where(column <= hi, 1, 2))
    return binned


def information_gain(ds: Dataset, feature: str) -> float:
    """IG(Y, X) = H(Y) - sum_x P(x) H(Y | X = x), log base 2."""
    if feature not in ds.feature_names:
        raise UnknownFeature(feature)
    column = ds.X[:, ds.feature_names.index(feature)]
    # a NaN has no place among a column's levels or terciles; an infinity does
    nan = np.isnan(column)
    if nan.any():
        raise PhishguardError(f"information gain of {feature!r} is undefined: "
                              f"NaN at row {int(np.argmax(nan))}")
    column = _discretize(column)
    h_y = entropy(ds.y)
    conditional = 0.0
    n = len(ds)
    for value, count in zip(*np.unique(column, return_counts=True)):
        conditional += (count / n) * entropy(ds.y[column == value])
    return h_y - conditional


def information_gain_all(ds: Dataset) -> dict[str, float]:
    return {name: information_gain(ds, name) for name in ds.feature_names}

"""Shared model utilities: config, stratified folds, standardization and
the scoring surface."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, NoLogitScale, PhishguardError


@dataclass
class TrainConfig:
    folds: int = 5
    seed: int = 0
    max_epochs: int = 500
    learning_rate: float = 0.1
    early_stop_patience: int = 10

    def __post_init__(self):
        if self.folds < 2:
            raise PhishguardError("folds must be >= 2")
        if self.learning_rate <= 0:
            raise PhishguardError("learning_rate must be positive")


def stratified_fold_indices(y, k: int, seed: int) -> list[np.ndarray]:
    """Assign samples to k folds preserving the class ratio within one
    sample per fold: seeded shuffle within each class, then round-robin."""
    y = np.asarray(y)
    if k < 2:
        raise PhishguardError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k].append(int(sample))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


class Standardizer:
    """Column-wise (x - mean) / std; constant columns map to 0."""

    def __init__(self):
        self.mean = None
        self.scale = None

    def fit(self, X) -> "Standardizer":
        X = np.asarray(X, dtype=float)
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale


def standardization(mean, scale, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A model's `mean` and `scale` over d features as float arrays; None
    is the identity. Either of another shape, a non-finite mean or a
    scale not finite and above 0 raises PhishguardError."""
    mean = np.asarray(np.zeros(d) if mean is None else mean, dtype=float)
    scale = np.asarray(np.ones(d) if scale is None else scale, dtype=float)
    if mean.shape != (d,) or scale.shape != (d,):
        raise PhishguardError(f"mean and scale must hold {d} values, one per weight; "
                              f"got shapes {mean.shape} and {scale.shape}")
    if not (np.all(np.isfinite(mean)) and np.all((0 < scale) & (scale < np.inf))):
        raise PhishguardError("mean must be finite and scale finite and above 0")
    return mean, scale


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class Scorer:
    """The scoring surface every model kind shares. A subclass scores a
    C-ordered matrix: `_logits(X)`, whose sigmoid the base takes, or
    `_proba(X)`; a model of the second sort has no `decision_function`
    (NoLogitScale). The base accepts one row or a matrix, checks the
    width and gives a single row back as a scalar.

    A row scores to the same bits in any batch, alone included: each
    subclass reduces a row on its own (a tree walk, or `np.einsum`,
    whose loops follow the layout, where BLAS `@` rounds a row by its
    place in the batch)."""

    def _score(self, method, x):
        X = np.asarray(x, dtype=float, order="C")
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"expected {self.n_features} features, got shape {X.shape}"
            )
        scores = method(X)
        return scores[0] if single else scores

    def _logits(self, X: np.ndarray) -> np.ndarray:
        raise NoLogitScale(self.kind)

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self._logits(X))

    def decision_function(self, x):
        return self._score(self._logits, x)

    def predict_proba(self, x):
        return self._score(self._proba, x)

    def predict(self, x):
        return (self.predict_proba(x) >= 0.5).astype(int)

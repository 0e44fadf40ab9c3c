"""Tree ensembles: bagged forests, extra-trees, and gradient boosting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..datasets import Dataset
from ..errors import NonFiniteLoss, PhishguardError
from .common import as_matrix, sigmoid
from .tree import DecisionTree, StackedTrees, build_tree


@dataclass
class Ensemble:
    members: list[DecisionTree]
    weights: list[float]
    mode: str  # bagging | extra | boosting
    learning_rate: float = 0.1
    base_score: float = 0.0  # boosting initial logit
    feature_names: tuple[str, ...] = ()

    kind = "ensemble"

    def __post_init__(self):
        if not self.members:
            raise PhishguardError("ensemble needs at least one member")

    @property
    def n_features(self) -> int:
        return self.members[0].n_features

    @cached_property
    def _stack(self) -> StackedTrees:
        return StackedTrees.of(self.members, self.weights)

    def _logits(self, X: np.ndarray) -> np.ndarray:
        # the base score, then each weighted tree in training order, one
        # addition after another: cumsum is sequential where sum may add
        # pairwise, so this is bit-identical to a loop over the trees
        terms = self._stack.leaf_values(X)
        terms[0] += self.base_score
        return np.cumsum(terms, axis=0)[-1]

    def decision_function(self, x):
        """Logit for boosting; not defined for averaging modes."""
        X, single = as_matrix(x, self.n_features)
        logits = self._logits(X)
        return logits[0] if single else logits

    def predict_proba(self, x):
        X, single = as_matrix(x, self.n_features)
        if self.mode == "boosting":
            probs = sigmoid(self._logits(X))
        else:  # the weighted mean: leaf values carry their tree's weight
            probs = self._stack.leaf_values(X).sum(axis=0)
        return probs[0] if single else probs

    def predict(self, x):
        return (np.asarray(self.predict_proba(x)) >= 0.5).astype(int)


def train_forest(
    ds: Dataset,
    n_trees: int = 100,
    mode: str = "bagging",
    max_depth: int = 12,
    min_samples_leaf: int = 1,
    seed: int = 0,
    bootstrap: bool | None = None,
) -> Ensemble:
    """Bagging: bootstrap samples + sqrt(d) feature subset per split.
    Extra: full sample, uniformly random thresholds."""
    if n_trees < 1:
        raise PhishguardError("n_trees must be >= 1")
    if mode not in ("bagging", "extra"):
        raise PhishguardError(f"unknown forest mode {mode!r}")
    if bootstrap is None:
        bootstrap = mode == "bagging"
    rng = np.random.default_rng(seed)
    n, d = ds.X.shape
    subset = max(1, int(np.sqrt(d))) if mode == "bagging" else None
    members = []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(2 ** 63))
        if bootstrap:
            sample = tree_rng.integers(0, n, size=n)
            Xs, ys = ds.X[sample], ds.y[sample]
        else:
            Xs, ys = ds.X, ds.y
        members.append(
            build_tree(
                Xs,
                ys,
                task="classify",
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                split_mode="best" if mode == "bagging" else "random",
                rng=tree_rng,
                n_feature_subset=subset,
                feature_names=ds.feature_names,
            )
        )
    return Ensemble(
        members=members,
        weights=[1.0 / n_trees] * n_trees,
        mode=mode,
        feature_names=ds.feature_names,
    )


def train_gbt(
    ds: Dataset,
    n_rounds: int = 100,
    learning_rate: float = 0.1,
    max_depth: int = 4,
    min_samples_leaf: int = 1,
) -> Ensemble:
    """Gradient boosting on logistic loss.

    Each round fits a regression tree to the negative gradient (y - p)
    of the current logits; leaf values are Newton estimates
    sum(residual) / sum(p(1-p)).
    """
    if n_rounds < 1:
        raise PhishguardError("n_rounds must be >= 1")
    y = ds.y.astype(float)
    base_rate = np.clip(y.mean(), 1e-9, 1 - 1e-9)
    base_score = float(np.log(base_rate / (1.0 - base_rate)))
    logits = np.full(len(y), base_score)

    members = []
    for _ in range(n_rounds):
        p = sigmoid(logits)
        residual = y - p
        hessian = np.maximum(p * (1.0 - p), 1e-12)

        def newton_leaf(indices):
            return float(residual[indices].sum() / hessian[indices].sum())

        tree = build_tree(
            ds.X,
            residual,
            task="regress",
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            leaf_value_fn=newton_leaf,
            feature_names=ds.feature_names,
        )
        update = tree.predict_value(ds.X)
        logits = logits + learning_rate * update
        if not np.all(np.isfinite(logits)):
            raise NonFiniteLoss("boosting diverged")
        members.append(tree)
    return Ensemble(
        members=members,
        weights=[learning_rate] * n_rounds,
        mode="boosting",
        learning_rate=learning_rate,
        base_score=base_score,
        feature_names=ds.feature_names,
    )

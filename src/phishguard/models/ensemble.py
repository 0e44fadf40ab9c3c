"""Tree ensembles: bagged forests, extra-trees, and gradient boosting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..datasets import Dataset
from ..errors import NoLogitScale, NonFiniteLoss, PhishguardError
from .common import Scorer, sigmoid
from .growth import bin_matrix, grow_tree
from .tree import DecisionTree, StackedTrees, build_tree


@dataclass
class Ensemble(Scorer):
    members: list[DecisionTree]
    weights: list[float]
    mode: str  # bagging | extra | boosting
    learning_rate: float = 0.1
    base_score: float = 0.0  # boosting initial logit
    feature_names: tuple[str, ...] = ()

    kind = "ensemble"

    def __post_init__(self):
        if self.mode not in ("bagging", "extra", "boosting"):
            raise PhishguardError(f"unknown ensemble mode {self.mode!r}")
        if not self.members:
            raise PhishguardError("ensemble needs at least one member")
        if len(self.weights) != len(self.members) or not np.all(
                np.isfinite([*self.weights, self.base_score])):
            raise PhishguardError("ensemble needs one finite weight per member, finite base_score")
        # every member reads the rows the ensemble takes
        widths = sorted({member.n_features for member in self.members})
        if len(widths) > 1:
            raise PhishguardError(f"ensemble members take different numbers of features: {widths}")

    @property
    def n_features(self) -> int:
        return self.members[0].n_features

    @cached_property
    def _stack(self) -> StackedTrees:
        return StackedTrees.of(self.members, self.weights)

    def _logits(self, X: np.ndarray) -> np.ndarray:
        """Logit for boosting; not defined for averaging modes."""
        if self.mode != "boosting":
            raise NoLogitScale(f"{self.mode} {self.kind}")
        # the base score, then each weighted tree in training order, one
        # addition after another: cumsum is sequential where sum may add
        # pairwise, so this is bit-identical to a loop over the trees
        terms = self._stack.leaf_values(X)
        terms[0] += self.base_score
        return np.cumsum(terms, axis=0)[-1]

    def _proba(self, X: np.ndarray) -> np.ndarray:
        if self.mode == "boosting":
            return super()._proba(X)
        # the weighted mean: leaf values carry their tree's weight; cumsum
        # adds them in order for one row as for many, where sum would add
        # a single row's trees pairwise
        return np.cumsum(self._stack.leaf_values(X), axis=0)[-1]


def train_forest(
    ds: Dataset,
    n_trees: int = 100,
    mode: str = "bagging",
    max_depth: int = 12,
    seed: int = 0,
) -> Ensemble:
    """Bagging: bootstrap samples + sqrt(d) feature subset per split.
    Extra: full sample, uniformly random thresholds."""
    if n_trees < 1:
        raise PhishguardError("n_trees must be >= 1")
    if mode not in ("bagging", "extra"):
        raise PhishguardError(f"unknown forest mode {mode!r}")
    bagging = mode == "bagging"
    rng = np.random.default_rng(seed)
    n, d = ds.X.shape
    # each tree draws from its own rng: a bagged tree its bootstrap sample,
    # then its splits
    rngs = [np.random.default_rng(rng.integers(2 ** 63)) for _ in range(n_trees)]
    X, y = np.asarray(ds.X, dtype=float), ds.y.astype(float)
    # the trees share one binning of the whole matrix, which holds every
    # level of any sample's columns
    bins = bin_matrix(X, y, "classify")
    members = []
    for tree_rng in rngs:
        nodes = grow_tree(
            X,
            y,
            tree_rng,
            sample=tree_rng.integers(0, n, size=n) if bagging else None,
            task="classify",
            max_depth=max_depth,
            split_mode="best" if bagging else "random",
            n_feature_subset=max(1, int(np.sqrt(d))) if bagging else None,
            bins=bins,
        )
        members.append(DecisionTree(**nodes, n_features=d, max_depth=max_depth,
                                    feature_names=ds.feature_names))
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
) -> Ensemble:
    """Gradient boosting on logistic loss.

    Each round fits a regression tree to the negative gradient g = y - p
    of the current logits, with hessians h = p(1 - p) (at least 1e-12):
    splits maximise XGBoost's second-order gain over each side's sums of
    g and h, and leaf values are Newton estimates sum(g) / sum(h).
    """
    if n_rounds < 1:
        raise PhishguardError("n_rounds must be >= 1")
    y = ds.y.astype(float)
    base_rate = np.clip(y.mean(), 1e-9, 1 - 1e-9)
    base_score = float(np.log(base_rate / (1.0 - base_rate)))
    logits = np.full(len(y), base_score)
    # regression trees bin by the matrix alone, not by the residuals
    bins = bin_matrix(ds.X, y, "regress")

    members = []
    update = np.empty(len(y))
    for _ in range(n_rounds):
        p = sigmoid(logits)
        residual = y - p
        hessian = np.maximum(p * (1.0 - p), 1e-12)
        # growth writes each row's leaf value, which a walk of the new
        # tree over the matrix would read
        tree = build_tree(
            ds.X,
            residual,
            task="regress",
            max_depth=max_depth,
            hessian=hessian,
            feature_names=ds.feature_names,
            _bins=bins,
            _fitted=update,
        )
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

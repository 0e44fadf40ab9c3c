"""CART decision trees with Gini (classification) or squared-error
(regression) splits, plus the random-threshold mode used by extra-trees.

Trees are grown in `growth` (`grow_trees`), a frontier of nodes at a
time, with splits found by `splits` from histograms of the matrix
binned once.

A tree is five parallel node arrays, in preorder (node 0 is the root):
`feature`, `threshold`, `left`, `right` and `value`. An internal node
sends a row to `left` when `x[feature] <= threshold` and to `right`
otherwise; both children come after it. A leaf has `feature == -1` and
`left == right ==` its own index, and `value` holds its output:
p(phishing) for a classify tree, the fitted value for a regress tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..datasets import Dataset
from ..errors import PhishguardError
from .common import as_matrix
from .growth import LEAF, grow_trees
from .splits import _Bins

NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


@dataclass(frozen=True, eq=False)
class StackedTrees:
    """The nodes of one or more trees, concatenated for one walk.

    `roots` is a column holding each tree's node 0 in the concatenation.
    Node i's children are `children[2 * i + 1]` (left) and
    `children[2 * i]` (right), so one gather indexed by the comparison
    takes a step. `value` holds each leaf's value times its tree's
    weight.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    steps: int

    @classmethod
    def of(cls, trees, weights) -> "StackedTrees":
        sizes = [len(tree.feature) for tree in trees]
        roots = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
        offsets = np.repeat(roots, sizes)
        feature = np.concatenate([tree.feature for tree in trees])
        left = np.concatenate([tree.left for tree in trees]) + offsets
        right = np.concatenate([tree.right for tree in trees]) + offsets
        depth, frontier = 0, roots
        while True:
            frontier = frontier[feature[frontier] != LEAF]
            if len(frontier) == 0:
                break
            frontier = np.concatenate([left[frontier], right[frontier]])
            depth += 1
        return cls(
            # a leaf reads column 0; the comparison does not matter
            # because both its children are itself
            feature=np.maximum(feature, 0),
            threshold=np.concatenate([tree.threshold for tree in trees]),
            children=np.stack([right, left], axis=1).ravel(),
            value=np.concatenate([w * tree.value for tree, w in zip(trees, weights)]),
            roots=roots[:, None],
            # the first step also broadcasts the roots to one column per
            # row, so even all-leaf trees take it
            steps=max(depth, 1),
        )

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Weighted value of the leaf each row reaches in each tree, shape
        (trees, rows): every (tree, row) pair steps down one level at a
        time. Gathers use flat indices into `X`'s cells."""
        n, d = X.shape
        cells = X.ravel()
        row_start = np.arange(0, n * d, d)
        node = self.roots
        for _ in range(self.steps):
            go_left = cells[row_start + self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + go_left]
        return self.value[node]


@dataclass(eq=False)
class DecisionTree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_features: int
    max_depth: int
    task: str = "classify"  # classify | regress
    feature_names: tuple[str, ...] = ()

    kind = "tree"
    # the walk gives each row the same bits whatever else is in the batch
    scores_rows_independently = True

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=np.intp)
        self.right = np.asarray(self.right, dtype=np.intp)
        self.value = np.asarray(self.value, dtype=float)
        _check_nodes(self)

    @cached_property
    def _stack(self) -> StackedTrees:
        return StackedTrees.of([self], [1.0])

    def predict_proba(self, x):
        """p(phishing) for a classify tree; the fitted value for a
        regress tree."""
        X, single = as_matrix(x, self.n_features)
        values = self._stack.leaf_values(X)[0]
        return values[0] if single else values

    predict_value = predict_proba  # raw regression output, used by boosting

    def predict(self, x):
        return (np.asarray(self.predict_proba(x)) >= 0.5).astype(int)


def _check_nodes(tree: DecisionTree) -> None:
    """Reject node arrays the walk cannot follow: unequal lengths, a
    feature out of range, a leaf that is not its own child, or a child
    that does not come after its parent (which would allow a cycle)."""
    arrays = [getattr(tree, name) for name in NODE_ARRAYS]
    m = len(tree.feature)
    if m == 0 or any(a.ndim != 1 or len(a) != m for a in arrays):
        raise PhishguardError("tree node arrays must be non-empty and of equal length")
    index = np.arange(m)
    leaf = tree.feature == LEAF
    inner = ~leaf
    if (
        np.any(tree.feature < LEAF)
        or np.any(tree.feature >= tree.n_features)
        or np.any(tree.left[leaf] != index[leaf])
        or np.any(tree.right[leaf] != index[leaf])
        or np.any(tree.left[inner] <= index[inner])
        or np.any(tree.right[inner] <= index[inner])
        or np.any(tree.left >= m)
        or np.any(tree.right >= m)
    ):
        raise PhishguardError("malformed tree node arrays")


def build_tree(
    X,
    y,
    *,
    task: str = "classify",
    max_depth: int = 8,
    min_samples_leaf: int = 1,
    split_mode: str = "best",
    rng: np.random.Generator | None = None,
    n_feature_subset: int | None = None,
    leaf_value_fn=None,
    feature_names: tuple[str, ...] = (),
    _bins: _Bins | None = None,
) -> DecisionTree:
    """Greedy top-down tree induction.

    leaf_value_fn(indices) may override the leaf value, the mean of y;
    it gets each leaf's rows in ascending order, and boosting uses it
    for Newton leaf estimates. `_bins`, the binning of X from
    `_Bins.of`, lets boosting bin its matrix once for every round.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if split_mode == "random" and rng is None:
        rng = np.random.default_rng(0)
    [nodes] = grow_trees(
        X, y, [rng],
        task=task, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
        split_mode=split_mode, n_feature_subset=n_feature_subset,
        leaf_value_fn=leaf_value_fn, bins=_bins,
    )
    return DecisionTree(**nodes, n_features=X.shape[1], max_depth=max_depth,
                        task=task, feature_names=feature_names)


def train_tree(
    ds: Dataset,
    max_depth: int = 8,
    min_samples_leaf: int = 1,
    split_mode: str = "best",
    seed: int = 0,
) -> DecisionTree:
    rng = np.random.default_rng(seed) if split_mode == "random" else None
    return build_tree(
        ds.X,
        ds.y,
        task="classify",
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        split_mode=split_mode,
        rng=rng,
        feature_names=ds.feature_names,
    )

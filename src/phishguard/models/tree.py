"""CART decision trees with Gini (classification, labels 0 and 1) or
second-order gain (regression) splits.

Trees are grown in `growth` (`grow_tree`), a depth at a time. Every
tree, extra-trees included, finds its splits in `splits` from
histograms of the matrix binned once.

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
from .common import Scorer
from .growth import LEAF, grow_tree
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
class DecisionTree(Scorer):
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

    def __post_init__(self):
        self.feature = _node_indices(self.feature)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = _node_indices(self.left)
        self.right = _node_indices(self.right)
        self.value = np.asarray(self.value, dtype=float)
        if self.task not in ("classify", "regress"):
            raise PhishguardError(f"unknown tree task {self.task!r}")
        if type(self.max_depth) is not int or self.max_depth < 0:
            raise PhishguardError(f"tree max_depth {self.max_depth!r} is no int of 0 or more")
        _check_nodes(self)

    @cached_property
    def _stack(self) -> StackedTrees:
        return StackedTrees.of([self], [1.0])

    def _proba(self, X):
        """p(phishing) for a classify tree; the fitted value for a
        regress tree."""
        return self._stack.leaf_values(X)[0]


def _node_indices(values) -> np.ndarray:
    """`values` as indices. A model file may hold any JSON number there:
    one that is no whole number in range is refused, not truncated."""
    values = np.asarray(values)
    in_range = values.dtype.kind == "f" and np.all(abs(values) < 2**62)
    if values.dtype.kind != "i" and not (in_range and np.all(values == np.trunc(values))):
        raise PhishguardError("tree node arrays must hold whole numbers")
    return values.astype(np.intp, copy=False)


def _check_nodes(tree: DecisionTree) -> None:
    """Reject node arrays the walk cannot follow: unequal lengths, a
    feature out of range, a leaf that is not its own child, a child that
    does not come after its parent (which would allow a cycle), or an
    inner node's threshold that is not finite (every row would go right
    at a NaN one). Training writes none of these; a leaf's value may be
    NaN."""
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
        or not np.all(np.isfinite(tree.threshold[inner]))
    ):
        raise PhishguardError("malformed tree node arrays")


def build_tree(
    X,
    y,
    *,
    task: str = "classify",
    max_depth: int = 8,
    hessian=None,
    feature_names: tuple[str, ...] = (),
    _bins: _Bins | None = None,
    _fitted: np.ndarray | None = None,
) -> DecisionTree:
    """Greedy top-down tree induction, with the best split at each node.

    A classification tree takes labels 0 and 1. A regression tree reads
    each row's `hessian` (positive, default 1): splits maximise the
    second-order gain, and a leaf's value is sum(y) / sum(hessian), by
    default the mean. For boosting, `_bins`, the binning of X from
    `_Bins.of`, bins its matrix once for every round, and `_fitted`
    receives each row's leaf value.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    nodes = grow_tree(X, y, task=task, max_depth=max_depth, split_mode="best", hessian=hessian,
                      bins=_bins, fitted=_fitted)
    return DecisionTree(**nodes, n_features=X.shape[1], max_depth=max_depth,
                        task=task, feature_names=feature_names)


def train_tree(ds: Dataset, max_depth: int = 8) -> DecisionTree:
    """A classification tree on every row, with the best split at each node."""
    return build_tree(ds.X, ds.y, max_depth=max_depth, feature_names=ds.feature_names)

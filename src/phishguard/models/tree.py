"""CART decision trees with Gini (classification) or squared-error
(regression) splits, plus the random-threshold mode used by extra-trees.

Tie-breaking is deterministic: among equally good splits the lowest
feature index wins, then the lowest threshold.

A tree is five parallel node arrays, in the order `build_tree` grows the
nodes (preorder, node 0 is the root): `feature`, `threshold`, `left`,
`right` and `value`. An internal node sends a row to `left` when
`x[feature] <= threshold` and to `right` otherwise; both children come
after it. A leaf has `feature == -1` and `left == right ==` its own
index, and `value` holds its output: p(phishing) for a classify tree,
the fitted value for a regress tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..datasets import Dataset
from ..errors import EmptyDataset, PhishguardError
from .common import as_matrix

LEAF = -1
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


def _best_threshold_gini(column, y, min_leaf):
    order = np.argsort(column, kind="stable")
    col = column[order]
    ys = y[order]
    n = len(ys)
    ones = np.cumsum(ys)  # ones in the left block after position i (1-based)
    total_ones = ones[-1]
    sizes_left = np.arange(1, n)
    boundaries = np.flatnonzero(col[1:] > col[:-1])  # split after index i
    if len(boundaries) == 0:
        return None
    nl = sizes_left[boundaries]
    nr = n - nl
    valid = (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None
    boundaries = boundaries[valid]
    nl, nr = nl[valid], nr[valid]
    ones_l = ones[boundaries]
    ones_r = total_ones - ones_l
    gini_l = 1.0 - (ones_l / nl) ** 2 - ((nl - ones_l) / nl) ** 2
    gini_r = 1.0 - (ones_r / nr) ** 2 - ((nr - ones_r) / nr) ** 2
    score = (nl * gini_l + nr * gini_r) / n
    best = int(np.argmin(score))  # argmin takes the first (lowest threshold)
    i = boundaries[best]
    threshold = 0.5 * (col[i] + col[i + 1])
    return float(score[best]), threshold


def _best_threshold_sse(column, y, min_leaf):
    order = np.argsort(column, kind="stable")
    col = column[order]
    ys = y[order]
    n = len(ys)
    csum = np.cumsum(ys)
    csq = np.cumsum(ys ** 2)
    total_sum, total_sq = csum[-1], csq[-1]
    boundaries = np.flatnonzero(col[1:] > col[:-1])
    if len(boundaries) == 0:
        return None
    nl = boundaries + 1
    nr = n - nl
    valid = (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None
    boundaries = boundaries[valid]
    nl, nr = nl[valid], nr[valid]
    sum_l = csum[boundaries]
    sq_l = csq[boundaries]
    sse_l = sq_l - sum_l ** 2 / nl
    sse_r = (total_sq - sq_l) - (total_sum - sum_l) ** 2 / nr
    score = sse_l + sse_r
    best = int(np.argmin(score))
    i = boundaries[best]
    threshold = 0.5 * (col[i] + col[i + 1])
    return float(score[best]), threshold


def _score_random_threshold(column, y, threshold, min_leaf, task):
    left = column <= threshold
    nl = int(left.sum())
    nr = len(y) - nl
    if nl < min_leaf or nr < min_leaf:
        return None
    yl, yr = y[left], y[~left]
    if task == "classify":
        def gini(v):
            p = v.mean()
            return 1.0 - p ** 2 - (1 - p) ** 2

        return (nl * gini(yl) + nr * gini(yr)) / len(y)
    return float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())


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
) -> DecisionTree:
    """Greedy top-down tree induction.

    leaf_value_fn(indices) may override the leaf value, the mean of y;
    boosting uses this for Newton leaf estimates.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise EmptyDataset("cannot grow a tree on no samples")
    if split_mode == "random" and rng is None:
        rng = np.random.default_rng(0)
    d = X.shape[1]
    nodes = {name: [] for name in NODE_ARRAYS}

    def choose_features(generator):
        if n_feature_subset is None or n_feature_subset >= d:
            return np.arange(d)
        return np.sort(generator.choice(d, size=n_feature_subset, replace=False))

    def best_split(indices, depth):
        """(feature, threshold) of the best split, or None for a leaf."""
        ys = y[indices]
        if depth >= max_depth or len(indices) < 2 * min_samples_leaf or np.all(ys == ys[0]):
            return None
        if rng is not None and n_feature_subset is not None:
            features = choose_features(rng)
        else:
            features = np.arange(d)
        best = None  # (score, feature, threshold)
        for j in features:
            column = X[indices, j]
            if split_mode == "random":
                lo, hi = column.min(), column.max()
                if lo == hi:
                    continue
                threshold = float(rng.uniform(lo, hi))
                score = _score_random_threshold(column, ys, threshold, min_samples_leaf, task)
                found = (score, threshold) if score is not None else None
            else:
                scan = _best_threshold_gini if task == "classify" else _best_threshold_sse
                found = scan(column, ys, min_samples_leaf)
            if found is None:
                continue
            score, threshold = found
            if best is None or score < best[0] - 1e-15:
                best = (score, int(j), threshold)
        return None if best is None else best[1:]

    # Depth first, left subtree before right: nodes are numbered, and rng
    # draws made, in preorder. An entry is (indices, depth, parent, side).
    pending = [(np.arange(len(X)), 0, None, None)]
    while pending:
        indices, depth, parent, side = pending.pop()
        node = len(nodes["feature"])
        if parent is not None:
            nodes[side][parent] = node
        split = best_split(indices, depth)
        if split is None:
            if leaf_value_fn is not None:
                value = float(leaf_value_fn(indices))
            else:
                value = float(y[indices].mean())
            row = (LEAF, 0.0, node, node, value)
        else:
            row = (*split, node, node, 0.0)
        for name, item in zip(NODE_ARRAYS, row):
            nodes[name].append(item)
        if split is not None:
            go_left = X[indices, split[0]] <= split[1]
            pending.append((indices[~go_left], depth + 1, node, "right"))
            pending.append((indices[go_left], depth + 1, node, "left"))
    return DecisionTree(**nodes, n_features=d, max_depth=max_depth,
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

"""CART decision trees with Gini (classification) or squared-error
(regression) splits, plus the random-threshold mode used by extra-trees.

Tie-breaking is deterministic: among equally good splits the lowest
feature index wins, then the lowest threshold.

Split search bins the training matrix once per tree, at the root (the
histogram method of LightGBM and of XGBoost's `hist`, with one bin per
distinct value). Each column's distinct values, ascending, are its
bins, and each cell becomes its bin's number within the column, a code
in the smallest unsigned integer type that holds every column's codes.
At a node, `np.bincount` over its rows' codes, each shifted past the
bins of the columns before it, gives the histogram of every candidate
feature at once, and prefix sums over the bins give every candidate
split's left side. A candidate threshold is the midpoint of two
adjacent levels present at the node.

The splits are exactly those of sorting each column at each node and
scanning its prefix sums, so seeded trees and model files do not depend
on the method:
- Gini, labels 0 and 1: per-bin counts are integers, so their prefix
  sums equal the scan's cumulative sums, and each score is the same
  floating-point expression of the same numbers.
- Squared error (boosting residuals) and Gini for other labels: float
  sums depend on the order of the additions, so each feature still adds
  the node's targets one at a time in stable sorted order (a stable
  argsort of the small codes) and reads the running sums at bin ends.
- Ties: within a feature the first (lowest threshold) minimum; across
  features, taken in ascending order, a later feature wins only with a
  score lower by more than 1e-15.
The scan itself is kept in tests/test_tree_ensemble.py as the oracle.
A node with few rows against the matrix's bins (deep nodes over
many-valued columns) sorts its codes instead of counting every bin, so
its cost follows its rows. Per node, the temporaries are the node's
codes, arrays over its present bins, and one feature's rows at a time,
never a float matrix of rows by features. Extra-trees
(`split_mode="random"`) draws one threshold per feature and scores it
on the raw column.

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


@dataclass(frozen=True, eq=False)
class _Bins:
    """Every column of a training matrix binned once, at the root.

    Column j's distinct values, ascending (`np.unique`), are its bins:
    `key[j]` holds each cell's bin number within the column or, when the
    labels are all 0 or 1 (`width` 2), twice that plus the row's label.
    Adding `offset[j]` places the column's bins after those of the
    columns before it on one flat bin axis, so `np.bincount` over a
    node's rows gives the histogram of every feature at once.
    """

    key: np.ndarray  # (features, rows), the smallest unsigned dtype that fits
    offset: np.ndarray  # (features,) where each feature's keys start on the flat axis
    width: int  # histogram columns per bin: 2 (zeros, ones) or 1 (count)
    level: np.ndarray  # (bins,) the value of each bin on the flat axis
    feature: np.ndarray  # (bins,) the feature each bin belongs to

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray, task: str) -> "_Bins":
        width = 2 if task == "classify" and np.all((y == 0) | (y == 1)) else 1
        columns = []
        for column in X.T:
            levels, codes = np.unique(column, return_inverse=True)
            columns.append((levels, codes.astype(np.min_scalar_type(width * len(levels)))))
        sizes = [len(levels) for levels, _ in columns]
        starts = np.cumsum([0] + sizes)[:-1]
        key = np.empty(X.T.shape, dtype=np.min_scalar_type(width * max(sizes, default=0)))
        for j, (_, codes) in enumerate(columns):
            key[j] = codes
        if width == 2:
            key *= 2
            key += y.astype(key.dtype)
        return cls(
            key=key,
            offset=(width * starts).astype(np.min_scalar_type(width * sum(sizes))),
            width=width,
            level=np.concatenate([np.empty(0)] + [levels for levels, _ in columns]),
            feature=np.repeat(np.arange(len(sizes)), sizes),
        )

    def best_split(self, indices, ys, features, task, min_leaf):
        """(feature, threshold) of the best split of the node holding
        rows `indices`, searched over `features` (ascending), or None."""
        m = len(indices)
        if len(features) == len(self.key):
            rows, offset = self.key[:, indices], self.offset
        else:
            rows, offset = np.take(self.key[features], indices, axis=1), self.offset[features]
        present, hist = self._histogram(rows, offset)
        # cum[k]: per histogram column, the rows in present bins before k
        cum = np.zeros((len(hist) + 1, self.width), dtype=np.intp)
        np.cumsum(hist, axis=0, out=cum[1:])
        # a candidate splits after present bin k, before the next present
        # bin k + 1 of the same feature; `>` (not `!=`) never splits off
        # a NaN level, as a scan of the sorted column would not
        feature, level = self.feature[present], self.level[present]
        at = np.flatnonzero((feature[1:] == feature[:-1]) & (level[1:] > level[:-1]))
        if len(at) == 0:
            return None
        feature = feature[at]
        # each selected feature's bins hold every row once, so the bins
        # of the features before this one hold rank times the node's totals
        node_totals = cum[-1] // len(features)
        rank = np.searchsorted(features, feature)
        left = cum[at + 1] - rank[:, None] * node_totals
        nl = left.sum(axis=1)
        # with min_leaf <= 1 every candidate is valid: the present levels
        # on either side hold a row each
        if min_leaf > 1:
            valid = np.flatnonzero((nl >= min_leaf) & (nl <= m - min_leaf))
            if len(valid) == 0:
                return None
            at, feature, rank, left, nl = (a[valid] for a in (at, feature, rank, left, nl))
        # each feature's candidates are groups[g]:groups[g + 1]
        cuts = np.flatnonzero(feature[1:] != feature[:-1]) + 1
        groups = np.concatenate(([0], cuts, [len(feature)]))
        if self.width == 2:
            score = _gini(nl, left[:, 1].astype(float), float(node_totals[1]), m)
        else:
            sums, totals = _running_sums(rows, rank[groups[:-1]], ys, groups, nl)
            if task == "classify":
                score = _gini(nl, sums[:, 0], totals[:, 0], m)
            else:
                score = _sse(nl, sums, totals, m)
        lowest = np.minimum.reduceat(score, groups[:-1])
        _, g = _first_best(zip(lowest.tolist(), range(len(lowest))))
        # within the feature, the first (lowest threshold) of equal scores
        i = groups[g] + int(np.argmin(score[groups[g]:groups[g + 1]]))
        return int(feature[i]), 0.5 * (level[at[i]] + level[at[i] + 1])

    def _histogram(self, rows, offset):
        """The bins present among a node's codes `rows` (one row per
        feature, shifted by that feature's `offset`), ascending on the
        flat axis, and their (bins, width) counts.

        Counting passes over every bin a few times, sorting over every
        code about log2(codes) times. A node counts unless the matrix has
        more than 8 bins per code of the node, as deep nodes over
        many-valued columns do; both give the same result.
        """
        w = self.width
        if len(self.level) <= 8 * rows.size:
            hist = np.zeros(w * len(self.level), dtype=np.intp)
            # bincount copies its input as intp: count runs of features of
            # at most one matrix column's cells, each over its own stretch
            # of the flat axis, to keep that copy and its output small
            step = max(1, self.key.shape[1] // rows.shape[1])
            for start in range(0, len(rows), step):
                base = offset[start]
                keys = rows[start:start + step] + (offset[start:start + step] - base)[:, None]
                counts = np.bincount(keys.ravel())
                hist[base:base + len(counts)] = counts
            hist = hist.reshape(-1, w)
            present = np.flatnonzero(hist.any(axis=1))
            return present, hist[present]
        keys, counts = np.unique(rows + offset[:, None], return_counts=True)
        present, at = np.unique(keys // w, return_inverse=True)
        hist = np.zeros((len(present), w), dtype=np.intp)
        hist[at, keys % w] = counts
        return present, hist


def _running_sums(rows, columns, ys, groups, nl):
    """Running sums of ys and ys**2 after the first `nl` rows of each
    candidate, and their totals, as (candidates, 2) arrays.

    Float sums depend on the order of the additions, so each feature
    adds its rows one at a time in stable sorted order, as a scan of the
    sorted column does; only the reads are per bin. `rows[columns[g]]`
    holds the node's bin numbers of the feature whose candidates are
    `groups[g]:groups[g + 1]`.
    """
    squares = ys ** 2
    sums = np.empty((len(nl), 2))
    totals = np.empty((len(nl), 2))
    for column, start, stop in zip(columns, groups[:-1], groups[1:]):
        order = np.argsort(rows[column], kind="stable")
        read = nl[start:stop] - 1
        for k, values in enumerate((ys, squares)):
            running = np.cumsum(values[order])
            sums[start:stop, k] = running[read]
            totals[start:stop, k] = running[-1]
    return sums, totals


def _gini(nl, ones_l, ones, n):
    """Weighted Gini impurity of splits with `nl` of `n` rows, `ones_l`
    of `ones` positives, on the left."""
    # the left sides, then the right; row counts are exact as floats
    size = np.concatenate((nl, n - nl)).astype(float)
    pos = np.concatenate((ones_l, ones - ones_l))
    p = pos / size
    q = (size - pos) / size
    weighted = size * (1.0 - p * p - q * q)
    return (weighted[:len(nl)] + weighted[len(nl):]) / n


def _sse(nl, sums, totals, n):
    """Squared error of splits with `nl` of `n` rows on the left; `sums`
    and `totals` hold (sum, sum of squares) of the left side and of all
    rows."""
    nr = n - nl
    sum_l, sq_l = sums[:, 0], sums[:, 1]
    total_sum, total_sq = totals[:, 0], totals[:, 1]
    sse_l = sq_l - sum_l ** 2 / nl
    sse_r = (total_sq - sq_l) - (total_sum - sum_l) ** 2 / nr
    return sse_l + sse_r


def _first_best(candidates):
    """The best of the (score, ...) `candidates`, or None if there are
    none. Taken in order, a candidate replaces the best so far only when
    its score is lower by more than 1e-15, so near-ties go to the
    earliest: the lowest feature."""
    best = None
    for candidate in candidates:
        if best is None or candidate[0] < best[0] - 1e-15:
            best = candidate
    return best


def _random_candidates(X, indices, ys, features, rng, min_leaf, task):
    """(score, feature, threshold) of one uniformly drawn threshold per
    non-constant feature, in feature order (extra-trees)."""
    for j in features:
        column = X[indices, j]
        lo, hi = column.min(), column.max()
        if lo == hi:
            continue
        threshold = float(rng.uniform(lo, hi))
        score = _score_random_threshold(column, ys, threshold, min_leaf, task)
        if score is not None:
            yield score, int(j), threshold


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
    _bins: _Bins | None = None,
) -> DecisionTree:
    """Greedy top-down tree induction.

    leaf_value_fn(indices) may override the leaf value, the mean of y;
    boosting uses this for Newton leaf estimates. `_bins`, the binning of
    X from `_Bins.of`, lets boosting bin its matrix once for every round.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) == 0:
        raise EmptyDataset("cannot grow a tree on no samples")
    if split_mode == "random" and rng is None:
        rng = np.random.default_rng(0)
    d = X.shape[1]
    if split_mode != "random":
        bins = _bins if _bins is not None else _Bins.of(X, y, task)
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
        if split_mode == "random":
            best = _first_best(_random_candidates(X, indices, ys, features, rng,
                                                  min_samples_leaf, task))
            return None if best is None else best[1:]
        return bins.best_split(indices, ys, features, task, min_samples_leaf)

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

"""Growing a CART tree a depth at a time (`grow_tree`), after XGBoost's
depth-wise `hist` growth.

Each step searches the tree's next depth (`splits`), then sends every
row of those nodes to its child with one gather and compare. A tree
that draws from its rng (a bagged tree's feature subsets, extra-trees'
thresholds) makes its draws depth by depth, node by node within a depth
(each split's left child before its right): a random forest needs each
node's subset uniform and independent of the others, not drawn in any
particular order (Breiman, 2001). Nodes are numbered as they are made
and renumbered to preorder at the end, so a tree's node arrays are
those of growing it depth first.

A classification tree takes labels 0 and 1: a leaf's value is its
count of ones over its row count, which is the mean exactly. A
regression leaf's sum(y) / sum(hessian) adds the leaf's rows in the
tree's order (ascending for a tree on every row).
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyDataset, PhishguardError
from .splits import _Bins, _starts

LEAF = -1  # a leaf's `feature`


class _NodeTable:
    """The nodes of a tree being grown, numbered in the order they are
    made, a depth at a time: node i is record i of an array that grows
    as it fills. `left` is a split node's left child, whose right child
    is the next node, or a leaf's own number; `number` is a split node's
    threshold or a leaf's value."""

    FIELDS = [("feature", np.int32), ("left", np.int32), ("number", float)]

    def __init__(self):
        self.rows = np.empty(64, dtype=self.FIELDS)
        self.count = 0  # nodes made
        self.depths = []  # the first node of each depth

    def make(self, m) -> np.ndarray:
        """The numbers of the m nodes of the next depth."""
        if self.count + m > len(self.rows):
            # by a quarter, not double: a whole depth's nodes may arrive
            # at once, while the old and new arrays are both held
            grown = np.empty(max(len(self.rows) * 5 // 4, self.count + m), dtype=self.FIELDS)
            grown[:self.count] = self.rows[:self.count]
            self.rows = grown
        self.depths.append(self.count)
        self.count += m
        return np.arange(self.count - m, self.count)

    def set(self, ids, *columns):
        for (name, _), column in zip(self.FIELDS, columns):
            self.rows[name][ids] = column

    def preorder(self) -> dict:
        """The tree's node arrays, numbered in preorder from its root,
        node 0: each node, then its left subtree, then its right."""
        table, self.rows = self.rows[:self.count], None
        m = len(table)
        feature = table["feature"].astype(np.intp)
        inner = feature != LEAF
        left = table["left"].astype(np.intp)  # a leaf's is itself
        # subtree sizes bottom-up, then preorder positions top-down, one
        # depth at a time
        size = np.ones(m, dtype=np.intp)
        split = np.flatnonzero(inner)
        levels = np.split(split, np.searchsorted(split, self.depths[1:]))
        for nodes in reversed(levels):
            size[nodes] += size[left[nodes]] + size[left[nodes] + 1]
        position = np.zeros(m, dtype=np.intp)
        for nodes in levels:
            position[left[nodes]] = position[nodes] + 1
            position[left[nodes] + 1] = position[nodes] + 1 + size[left[nodes]]
        order = np.empty(m, dtype=np.intp)
        order[position] = np.arange(m)
        number = table["number"][order]
        leaf = ~inner[order]
        left = left[order]
        return {
            "feature": feature[order],
            "threshold": np.where(leaf, 0.0, number),
            "left": position[left],
            "right": position[np.where(leaf, left, left + 1)],
            "value": np.where(leaf, number, 0.0),
        }


def bin_matrix(X, y, task: str) -> _Bins:
    """`_Bins.of(X, y, task)`, once a classification's labels `y` are
    checked to be 0 and 1: the bins count each label into its row's keys."""
    if task == "classify" and not np.all((y == 0) | (y == 1)):
        raise PhishguardError("a classification tree takes labels 0 and 1 only")
    return _Bins.of(X, y, task)


def grow_tree(
    X,
    y,
    rng=None,
    *,
    sample=None,
    task: str,
    max_depth: int,
    split_mode: str,
    n_feature_subset: int | None = None,
    hessian=None,
    bins: _Bins | None = None,
    fitted=None,
) -> dict:
    """Node arrays, in preorder, of one tree, which draws from `rng`
    (None for a tree that draws nothing). The tree trains on the rows
    `sample` of X (float), in that order (a bootstrap sample repeats
    rows), or on every row if `sample` is None. Classification takes
    labels `y` of 0 and 1; regression reads each row's `hessian` (1 if
    None). `bins`, the binning of X from `bin_matrix`, lets several
    trees bin X once. A node is a leaf when it holds one row, its
    targets are all equal or it is at `max_depth`, or when no feature
    splits it. `fitted`, an array of one float per row, receives each
    row's leaf value when the tree grows on every row.

    Each step searches the tree's next depth. The tree draws its nodes'
    feature subsets in one call per depth, before the search, and
    extra-trees' thresholds in one call per run of the search
    (`_Bins.best_splits`).
    """
    n_rows, d = X.shape
    if n_rows == 0:
        raise EmptyDataset("cannot grow a tree on no samples")
    classify = task == "classify"
    random = split_mode == "random"
    if random and not classify:
        raise PhishguardError("split_mode='random' (extra-trees) supports task='classify' only")
    if bins is None:
        bins = bin_matrix(X, y, task)
    subsets = rng is not None and n_feature_subset is not None and n_feature_subset < d
    if not classify and hessian is None:
        hessian = np.ones(n_rows)
    # what split search sums per row: classification's labels are in the
    # bins' keys
    targets = (None, None) if classify else (y, hessian)
    table = _NodeTable()

    def make_leaves(ids, rows, starts, at, ys=None):
        """Make the nodes `at` leaves; node i holds rows[starts[i]:starts[i + 1]],
        whose targets are `ys` if given."""
        sizes = np.diff(starts)
        if classify:
            # the mean of 0/1 targets: an exact count over the row count
            ys = y[rows] if ys is None else ys
            values = np.add.reduceat(ys, starts[:-1])[at] / sizes[at]
        else:
            values = [y[rows[a:b]].sum() / hessian[rows[a:b]].sum()
                      for a, b in zip(starts[at], starts[at + 1])]
        table.set(ids[at], LEAF, ids[at], values)
        if fitted is not None:
            leaf = np.zeros(len(sizes), dtype=bool)
            leaf[at] = True
            fitted[rows[np.repeat(leaf, sizes)]] = np.repeat(values, sizes[at])

    def settle(ids, depth, rows, sizes):
        """New nodes of one depth: leaves get their values. The others,
        (rows, ids, sizes), are the next depth, or None if there are none."""
        starts = _starts(sizes)
        ys = y[rows]
        if classify:
            ones = np.add.reduceat(ys, starts[:-1])
            pure = (ones == 0) | (ones == sizes)
        else:
            pure = np.minimum.reduceat(ys, starts[:-1]) == np.maximum.reduceat(ys, starts[:-1])
        leaf = pure | (sizes < 2) | (depth >= max_depth)
        if leaf.any():
            make_leaves(ids, rows, starts, np.flatnonzero(leaf), ys)
        del ys
        if leaf.all():
            return None
        if not leaf.any():
            return rows, ids, sizes
        return rows[np.repeat(~leaf, sizes)], ids[~leaf], sizes[~leaf]

    rows = np.arange(n_rows) if sample is None else sample
    depth = 0
    frontier = settle(table.make(1), depth, rows, np.array([len(rows)]))
    while frontier is not None:
        rows, ids, sizes = frontier
        n = len(sizes)
        starts = _starts(sizes)
        features = None
        if subsets:
            # one uniform key per (node, feature) in one call; a node's
            # n_feature_subset smallest keys pick a uniform subset
            keys = rng.random((n, d))
            features = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :n_feature_subset],
                               axis=1)
            del keys
        split, feature, threshold = bins.best_splits(
            rows, starts, features, *targets, rng if random else None, sample is not None)
        at = np.flatnonzero(split)
        if len(at) < n:
            make_leaves(ids, rows, starts, np.flatnonzero(~split))
        frontier = None
        if len(at):
            # the split nodes' rows by child, left child first, each in
            # order; the other nodes' rows sort last
            code = np.full(n, 2 * len(at), dtype=np.min_scalar_type(2 * len(at) + 1))
            code[at] = np.arange(0, 2 * len(at), 2)
            child = np.repeat(code, sizes)
            child += ~(X[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes))
            counts = np.bincount(child, minlength=2 * len(at))[:2 * len(at)]
            kept = np.argsort(child, kind="stable")[:counts.sum()]
            del child
            children = table.make(2 * len(at))
            table.set(ids[at], feature[at], children[0::2], threshold[at])
            depth += 1
            frontier = settle(children, depth, rows[kept], counts)
            del kept
        del rows
    del bins
    return table.preorder()

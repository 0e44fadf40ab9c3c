"""Growing CART trees a depth at a time (`grow_trees`), after XGBoost's
depth-wise `hist` growth.

Each step searches the next depth of one or more trees together
(`splits`), then sends every row of those nodes to its child with one
gather and compare. A tree that draws from its rng (a bagged tree's
feature subsets, extra-trees' thresholds) makes its draws depth by
depth, node by node within a depth (each split's left child before its
right), whatever trees share its step: a random forest needs each
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

from collections import deque

import numpy as np

from ..errors import EmptyDataset, PhishguardError
from .splits import _Bins, _starts

LEAF = -1  # a leaf's `feature`


class _NodeTable:
    """The nodes of trees being grown, one record each in an array that
    grows as it fills. Node numbers are unique across the trees and
    increase in the order nodes are made. `left` is a split node's left
    child, whose right child is the next node, or a leaf's own number;
    `number` is a split node's threshold or a leaf's value."""

    FIELDS = [("tree", np.int32), ("node", np.int32), ("depth", np.int32),
              ("feature", np.int32), ("left", np.int32), ("number", float)]

    def __init__(self):
        self.rows = np.empty(64, dtype=self.FIELDS)
        self.count = 0

    def add(self, *columns):
        m = len(columns[1])
        if self.count + m > len(self.rows):
            # by a quarter, not double: a whole depth's nodes may arrive
            # at once, while the old and new arrays are both held
            grown = np.empty(max(len(self.rows) * 5 // 4, self.count + m), dtype=self.FIELDS)
            grown[:self.count] = self.rows[:self.count]
            self.rows = grown
        block = self.rows[self.count:self.count + m]
        for (name, _), column in zip(self.FIELDS, columns):
            block[name] = column
        self.count += m

    def trees(self, n_trees) -> list[dict]:
        """Each tree's node arrays, numbered in preorder from its root,
        the first node it made."""
        table = self.rows[:self.count]
        table = table[np.lexsort((table["node"], table["tree"]))]
        self.rows = None  # the sorted copy replaces it
        bounds = np.searchsorted(table["tree"], np.arange(n_trees + 1))
        return [_preorder(table[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _preorder(table) -> dict:
    """Node arrays of one tree's rows of a _NodeTable, sorted by node:
    each node, then its left subtree, then its right."""
    m = len(table)
    depth = table["depth"]
    feature = table["feature"].astype(np.intp)
    inner = feature != LEAF
    left = np.searchsorted(table["node"], table["left"])  # a leaf's is itself
    # subtree sizes bottom-up, then preorder positions top-down, one depth
    # at a time
    size = np.ones(m, dtype=np.intp)
    split = np.flatnonzero(inner)
    split = split[np.argsort(depth[split], kind="stable")]
    levels = np.split(split, np.flatnonzero(np.diff(depth[split])) + 1)
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


def grow_trees(
    X,
    y,
    rngs,
    *,
    samples=None,
    task: str,
    max_depth: int,
    split_mode: str,
    n_feature_subset: int | None = None,
    hessian=None,
    bins: _Bins | None = None,
    fitted=None,
) -> list[dict]:
    """Node arrays, in preorder, of one tree per entry of `rngs`, each
    tree's generator (None for a tree that draws nothing). Tree t trains
    on the rows `samples[t]` of X (float), in that order (a bootstrap
    sample repeats rows), or on every row if `samples` is None.
    Classification takes labels `y` of 0 and 1; regression reads each
    row's `hessian` (1 if None). A node is a leaf
    when it holds one row, its targets are all equal or it is at
    `max_depth`, or when no feature splits it. `fitted`, an array of
    one float per row, receives each row's leaf value when one tree
    grows on every row.

    Each step searches the next depth of each tree in turn, while the
    rows taken fit in one matrix column. A tree draws its nodes' feature
    subsets in one call per depth, before the search, and extra-trees'
    thresholds in one call per run of the search (`_Bins.best_splits`).
    """
    n_rows, d = X.shape
    if n_rows == 0:
        raise EmptyDataset("cannot grow a tree on no samples")
    classify = task == "classify"
    # the bins count each label into its row's keys
    if classify and not np.all((y == 0) | (y == 1)):
        raise PhishguardError("a classification tree takes labels 0 and 1 only")
    random = split_mode == "random"
    if random and not classify:
        raise PhishguardError("split_mode='random' (extra-trees) supports task='classify' only")
    subsets = rngs[0] is not None and n_feature_subset is not None and n_feature_subset < d
    if bins is None:
        bins = _Bins.of(X, y, task)
    if not classify and hessian is None:
        hessian = np.ones(n_rows)
    # what split search sums per row: classification's labels are in the
    # bins' keys
    targets = (None, None) if classify else (y, hessian)
    # per tree, the nodes of its next depth, (rows, nodes, sizes, depth),
    # or None
    pending = [None] * len(rngs)
    table = _NodeTable()
    made = len(rngs)  # node numbers given out; tree t's root is node t

    def make_leaves(owner, ids, depth, rows, starts, at, ys=None):
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
        table.add(owner[at], ids[at], depth[at], LEAF, ids[at], values)
        if fitted is not None:
            leaf = np.zeros(len(sizes), dtype=bool)
            leaf[at] = True
            fitted[rows[np.repeat(leaf, sizes)]] = np.repeat(values, sizes[at])

    def settle(owner, ids, depth, rows, sizes):
        """New nodes of one depth, in order of their trees: leaves get
        their values, the others are their tree's next depth."""
        starts = _starts(sizes)
        ys = y[rows]
        if classify:
            ones = np.add.reduceat(ys, starts[:-1])
            pure = (ones == 0) | (ones == sizes)
        else:
            pure = np.minimum.reduceat(ys, starts[:-1]) == np.maximum.reduceat(ys, starts[:-1])
        leaf = pure | (depth >= max_depth) | (sizes < 2)
        if leaf.any():
            make_leaves(owner, ids, depth, rows, starts, np.flatnonzero(leaf), ys)
        del ys
        grow = np.flatnonzero(~leaf)
        if len(grow) == len(sizes) and owner[0] == owner[-1]:
            pending[owner[0]] = (rows, ids, sizes, depth[0])
        else:
            for t in dict.fromkeys(owner[grow].tolist()):
                mine = grow[owner[grow] == t]
                keep = np.zeros(len(sizes), dtype=bool)
                keep[mine] = True
                pending[t] = (rows[np.repeat(keep, sizes)], ids[mine], sizes[mine], depth[mine[0]])

    for t in range(len(rngs)):
        rows = np.arange(n_rows) if samples is None else samples[t]
        settle(np.array([t]), np.array([t]), np.zeros(1, dtype=np.intp), rows,
               np.array([len(rows)]))

    queue = deque(t for t in range(len(rngs)) if pending[t] is not None)
    while queue:
        # the next depth of each tree in turn, within one matrix column of rows
        trees, groups, total = [], [], 0
        while queue and (not groups or total + len(pending[queue[0]][0]) <= n_rows):
            trees.append(queue.popleft())
            groups.append(pending[trees[-1]])
            pending[trees[-1]] = None
            total += len(groups[-1][0])
        rows, ids, sizes, depth = zip(*groups)
        del groups
        counts = [len(part) for part in ids]
        if len(trees) == 1:
            rows, ids, sizes = rows[0], ids[0], sizes[0]
        else:
            rows, ids, sizes = np.concatenate(rows), np.concatenate(ids), np.concatenate(sizes)
        owner, depth = np.repeat(trees, counts), np.repeat(depth, counts)
        n = len(sizes)
        starts = _starts(sizes)
        features = None
        if subsets:
            # one uniform key per (node, feature) in one call per tree; a
            # node's n_feature_subset smallest keys pick a uniform subset
            keys = np.concatenate([rngs[t].random((m, d)) for t, m in zip(trees, counts)])
            features = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :n_feature_subset],
                               axis=1)
            del keys
        split, feature, threshold = bins.best_splits(
            rows, starts, features, *targets, rngs if random else None, owner, samples is not None)
        at = np.flatnonzero(split)
        if len(at) < n:
            make_leaves(owner, ids, depth, rows, starts, np.flatnonzero(~split))
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
            children = np.arange(made, made + 2 * len(at))
            made += len(children)
            table.add(owner[at], ids[at], depth[at], feature[at], children[0::2], threshold[at])
            settle(np.repeat(owner[at], 2), children, np.repeat(depth[at] + 1, 2), rows[kept],
                   counts)
            del kept
        del rows
        queue.extend(t for t in trees if pending[t] is not None)
    del bins
    return table.trees(len(rngs))

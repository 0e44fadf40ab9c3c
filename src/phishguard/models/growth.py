"""Growing CART trees a frontier of nodes at a time (`grow_trees`),
after XGBoost's depth-wise `hist` growth.

Each step searches every node of the frontier together (`splits`), then
sends every frontier row to its child with one gather and compare. A
tree that draws nothing from an rng (`train_tree`, every boosting
round) puts a whole depth in one frontier. The trees of a bagged forest
draw a feature subset at every node, in the preorder of depth-first
growth, so they grow in lockstep instead: one node of each tree per
step, each tree's nodes taken in that preorder, so every tree makes the
same draws as when grown alone. Extra-trees, which draw their
thresholds, grow the same way. Nodes are numbered as they are made and
renumbered to preorder at the end, so a tree's node arrays are those of
growing it depth first.

A leaf's value with 0/1 labels is its count of ones over its row count,
which is the mean exactly; any other mean, and `leaf_value_fn`, get the
leaf's rows in the tree's order (ascending for a tree on every row).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import EmptyDataset
from .splits import _Bins, _first_best, _random_candidates, _starts

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
            grown = np.empty(max(2 * len(self.rows), self.count + m), dtype=self.FIELDS)
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
    min_samples_leaf: int,
    split_mode: str,
    n_feature_subset: int | None = None,
    leaf_value_fn=None,
    bins: _Bins | None = None,
) -> list[dict]:
    """Node arrays, in preorder, of one tree per entry of `rngs`, each
    tree's generator (None for a tree that draws nothing). Tree t trains
    on the rows `samples[t]` of X (float), in that order (a bootstrap
    sample repeats rows), or on every row if `samples` is None.

    Each step searches a frontier of nodes at once: the next group of
    each tree in turn, while the rows taken fit in one matrix column. A
    tree that draws from its rng at every node (a feature subset, or
    extra-trees' thresholds) offers one node at a time, in preorder, so
    its draws come in the order of growing it depth first; any other
    tree offers every node of its next depth. Nodes are numbered as they
    are made and renumbered to preorder at the end.
    """
    n_rows, d = X.shape
    if n_rows == 0:
        raise EmptyDataset("cannot grow a tree on no samples")
    random = split_mode == "random"
    subsets = rngs[0] is not None and n_feature_subset is not None and n_feature_subset < d
    one_at_a_time = random or subsets
    if not random and bins is None:
        bins = _Bins.of(X, y, task)
    two = task == "classify" and bool(np.all((y == 0) | (y == 1)))
    # the search reads the targets of counted 0/1 labels from the bins
    search_ys = random or not two
    # per tree, groups of nodes still to split, (rows, nodes, sizes,
    # depth), the last one taken first
    pending = [[] for _ in rngs]
    table = _NodeTable()
    made = len(rngs)  # node numbers given out; tree t's root is node t

    def make_leaves(owner, ids, depth, rows, starts, at, ys=None):
        """Make the nodes `at` leaves; node i holds rows[starts[i]:starts[i + 1]],
        whose targets are `ys` if given."""
        if leaf_value_fn is None and two:
            # the mean of 0/1 targets: an exact count over the row count
            ys = y[rows] if ys is None else ys
            values = np.add.reduceat(ys, starts[:-1])[at] / np.diff(starts)[at]
        elif leaf_value_fn is None:
            values = [y[rows[a:b]].mean() for a, b in zip(starts[at], starts[at + 1])]
        else:
            values = [leaf_value_fn(rows[a:b]) for a, b in zip(starts[at], starts[at + 1])]
        table.add(owner[at], ids[at], depth[at], LEAF, ids[at], values)

    def settle(owner, ids, depth, rows, sizes):
        """New nodes, in order of their trees: leaves get their values, the
        others wait in their tree's pending list."""
        starts = _starts(sizes)
        ys = y[rows]
        if two:
            ones = np.add.reduceat(ys, starts[:-1])
            pure = (ones == 0) | (ones == sizes)
        else:
            pure = np.minimum.reduceat(ys, starts[:-1]) == np.maximum.reduceat(ys, starts[:-1])
        leaf = pure | (depth >= max_depth) | (sizes < 2 * min_samples_leaf)
        if leaf.any():
            make_leaves(owner, ids, depth, rows, starts, np.flatnonzero(leaf), ys)
        del ys
        grow = np.flatnonzero(~leaf)
        if one_at_a_time:
            # pushed last to first, so that each tree takes them in preorder
            for i in grow[::-1].tolist():
                pending[owner[i]].append((rows[starts[i]:starts[i + 1]].copy(), ids[i:i + 1],
                                          sizes[i:i + 1], depth[i]))
        elif len(grow) == len(sizes) and owner[0] == owner[-1]:
            pending[owner[0]].append((rows, ids, sizes, depth[0]))
        else:
            for t in dict.fromkeys(owner[grow].tolist()):
                mine = grow[owner[grow] == t]
                keep = np.zeros(len(sizes), dtype=bool)
                keep[mine] = True
                pending[t].append((rows[np.repeat(keep, sizes)], ids[mine], sizes[mine],
                                   depth[mine[0]]))

    for t in range(len(rngs)):
        rows = np.arange(n_rows) if samples is None else samples[t]
        settle(np.array([t]), np.array([t]), np.zeros(1, dtype=np.intp), rows,
               np.array([len(rows)]))

    queue = deque(t for t in range(len(rngs)) if pending[t])
    while queue:
        # the next group of each tree in turn, within one matrix column of rows
        trees, groups, total = [], [], 0
        while queue and (not groups or total + len(pending[queue[0]][-1][0]) <= n_rows):
            trees.append(queue.popleft())
            groups.append(pending[trees[-1]].pop())
            total += len(groups[-1][0])
        if len(groups) == 1:
            rows, ids, sizes, depth = groups[0]
            owner = np.full(len(ids), trees[0])
            depth = np.full(len(ids), depth)
        else:
            rows, ids, sizes, depth = zip(*groups)
            counts = [len(part) for part in ids]
            rows, ids, sizes = np.concatenate(rows), np.concatenate(ids), np.concatenate(sizes)
            owner, depth = np.repeat(trees, counts), np.repeat(depth, counts)
        del groups
        n = len(sizes)
        starts = _starts(sizes)
        ys = y[rows] if search_ys else None
        features = None
        if subsets:
            features = np.sort([rngs[t].choice(d, size=n_feature_subset, replace=False)
                                for t in owner.tolist()], axis=1)
        if random:
            split = np.zeros(n, dtype=bool)
            feature = np.zeros(n, dtype=np.intp)
            threshold = np.zeros(n)
            for i, t in enumerate(owner.tolist()):
                a, b = starts[i], starts[i + 1]
                best = _first_best(_random_candidates(
                    X, rows[a:b], ys[a:b], range(d) if features is None else features[i],
                    rngs[t], min_samples_leaf, task))
                if best is not None:
                    split[i], feature[i], threshold[i] = True, best[1], best[2]
        else:
            split, feature, threshold = bins.best_splits(rows, starts, features, ys, task,
                                                         min_samples_leaf)
        del ys
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
        queue.extend(t for t in trees if pending[t])
    del bins
    return table.trees(len(rngs))

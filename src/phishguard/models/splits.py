"""Split search for CART trees: the training matrix binned once, and
histograms over a frontier of nodes.

Tie-breaking is deterministic: among equally good splits the lowest
feature index wins, then the lowest threshold.

Split search bins the training matrix once, at the root (the histogram
method of LightGBM and of XGBoost's `hist`, with one bin per distinct
value). Each column's distinct values, ascending, are its bins, and
each cell becomes its bin's number within the column, a code in the
smallest unsigned integer type that holds every column's codes. A
forest bins the whole matrix once for all its trees: a bootstrap
sample's levels are among the matrix's, and only levels present at a
node make thresholds. Each code shifted to its own (node, feature)
stretch of a flat bin axis, one `np.bincount` gives every histogram of
a frontier, and prefix sums over the bins give every candidate split's
left side. A candidate threshold is the midpoint of two adjacent levels
present at the node. A frontier is counted in one of two ways:
- In the matrix's row order, when it is one tree's, grown on the
  matrix's own rows (each boosting round, `build_tree`, an extra-tree)
  and searched over every feature, and its histograms (nodes times bins
  times label width) fit in one matrix column of entries. An array of
  each row's node, a spare one past the end for rows already in leaves,
  shifts the rows' codes, one feature at a time in one reused buffer,
  and one bincount per feature (two in regression) counts every node
  with no gather.
- In runs of nodes, from their rows' gathered codes, otherwise: a
  bootstrap sample repeats rows, and extra-trees that share a growth
  step hold the same rows in their frontiers. bincount copies its input
  as intp, so a run holds at most one matrix column's cells (rows times
  features); a node with more cells is a run of its own and counts a
  few features at a time. A run with more than 8 bins per cell (deep
  nodes over many-valued columns) sorts its codes instead of counting
  every bin, so its cost follows its rows.
No temporary is a float matrix of rows by features.

Classification splits (labels 0 and 1) minimise weighted Gini
impurity; regression splits (boosting's rounds) maximise XGBoost's
second-order gain G_L²/H_L + G_R²/H_R - G²/H (Chen & Guestrin, 2016)
over each side's sums of the rows' targets g and hessians h. The splits
are exactly those of scanning each column at each node, the oracle kept
in tests/test_tree_ensemble.py, so model files do not depend on the
method:
- Gini: per-bin counts of zeros and ones are integers, so their prefix
  sums equal the scan's cumulative sums, and each score is the same
  floating-point expression of the same numbers.
- The gain: `np.bincount(weights=...)` adds each bin's g and h in the
  node's row order, which growth keeps ascending, so a count in the
  matrix's row order adds them in the same order. Running sums over a
  segment's present bins, ascending, give the left side's and (the
  last) the node's. Float sums depend on the order of additions; this
  is the scan's.
- Ties: within a feature the first (lowest threshold) minimum; across
  features, taken in ascending order, a later feature wins only with a
  score lower by more than 1e-15.
Extra-trees (`split_mode="random"`, classification only) draw one
threshold per feature of each node, uniformly between its least and
greatest present non-NaN level, and score it with the mean-label Gini
of the raw-column scorer they used before. A tree's draws for a run of
nodes are one call to its rng, node by node and features in order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InfiniteCell


@dataclass(frozen=True, eq=False)
class _Bins:
    """Every column of a training matrix binned once, at the root.

    Column j's distinct values, ascending (`np.unique`), are its bins,
    `level[start[j]:start[j] + size[j]]`. `key[j]` holds each cell's bin
    number within the column or, for classification (`width` 2, labels
    0 and 1), twice that plus the row's label; a regression search sums
    the targets and hessians of each bin's rows.
    """

    key: np.ndarray  # (features, rows), the smallest unsigned dtype that fits
    start: np.ndarray  # (features,) where each feature's bins start in `level`
    size: np.ndarray  # (features,) bins per feature
    width: int  # key codes per bin: 2 (label 0, label 1) to classify, else 1
    level: np.ndarray  # (bins,) the value of each bin

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray, task: str) -> "_Bins":
        width = 2 if task == "classify" else 1
        columns = []
        for j, column in enumerate(X.T):
            levels, codes = np.unique(column, return_inverse=True)
            # the midpoint of a finite level and inf is inf, which cannot
            # send the inf rows to the other side
            if np.isinf(levels).any():
                row = int(np.flatnonzero(np.isinf(column))[0])
                raise InfiniteCell(row, j, float(column[row]))
            columns.append((levels, codes.astype(np.min_scalar_type(width * len(levels)))))
        size = np.array([len(levels) for levels, _ in columns], dtype=np.intp)
        key = np.empty(X.T.shape, dtype=np.min_scalar_type(width * max(size, default=0)))
        for j, (_, codes) in enumerate(columns):
            key[j] = codes
        if width == 2:
            key *= 2
            key += y.astype(key.dtype)
        return cls(
            key=key,
            start=np.cumsum(size) - size,
            size=size,
            width=width,
            level=np.concatenate([np.empty(0)] + [levels for levels, _ in columns]),
        )

    def best_splits(self, rows, starts, features, g, h, rngs, owner, sampled):
        """(split, feature, threshold) of the best split of each node of a
        frontier. Node i holds the matrix rows `rows[starts[i]:starts[i + 1]]`
        and is searched over `features[i]` (ascending), or over every
        feature if `features` is None. A regression search sums the
        targets `g` and hessians `h`, one per matrix row (both None for
        classification, which counts labels). `split[i]` is False where no
        feature splits node i. `rngs` is None, or the trees' generators:
        then each feature offers one threshold drawn from
        `rngs[owner[i]]` (extra-trees) instead of every midpoint.
        `sampled` is True when the trees train on bootstrap samples, whose
        rows repeat matrix rows.

        A frontier of one tree on the matrix's own rows, searched over
        every feature, is counted in the matrix's row order in one run
        while its histograms (nodes times bins times label width) fit in
        one matrix column of entries. Other nodes are searched in runs of
        gathered cells: a node with more cells (rows times features) than
        the matrix has rows is a run of its own, counted a few features at
        a time, and the others are taken together while their cells fit
        in that bound. bincount copies its input as intp, so no count
        copies more than one matrix column's worth of cells.
        """
        n = len(starts) - 1
        k = len(self.key) if features is None else features.shape[1]
        split = np.zeros(n, dtype=bool)
        feature = np.zeros(n, dtype=np.intp)
        threshold = np.zeros(n)
        if k == 0:
            return split, feature, threshold
        limit = self.key.shape[1]
        sizes = np.diff(starts)
        # one node per matrix row: a bootstrap sample repeats rows, and
        # several trees' frontiers may hold the same row
        if (not sampled and features is None and owner[0] == owner[-1]
                and n * self.width * len(self.level) <= limit):
            present, hist = _present(self._count_rows(rows, sizes, g, h), h is None)
            return self._search(present, hist, sizes, None, rngs, owner)
        ends = np.cumsum(sizes) * k
        i = 0
        while i < n:
            before = ends[i - 1] if i else 0
            if ends[i] - before > limit:
                j, step = i + 1, max(1, limit // int(sizes[i]))
            else:
                j, step = int(np.searchsorted(ends, before + limit, side="right")), k
            a, b = starts[i], starts[j]
            run = None if features is None else features[i:j]
            cells = rows[a:b]
            ys, hs = (None, None) if h is None else (g[cells], h[cells])
            split[i:j], feature[i:j], threshold[i:j] = self._search(
                *self._count_run(cells, sizes[i:j], run, ys, hs, step), sizes[i:j], run, rngs,
                owner[i:j])
            i = j
        return split, feature, threshold

    def _segments(self, nn, features):
        """Each segment's feature, of nodes of `features` (every feature if
        None), and where the segments' bins start on a flat axis, one
        after another, then the end of the last."""
        k = len(self.key) if features is None else features.shape[1]
        feature = np.tile(np.arange(k), nn) if features is None else features.ravel()
        return feature, _starts(self.size[feature])

    def _count_rows(self, rows, sizes, g, h):
        """The dense histograms of a frontier of one tree's nodes, node i
        holding the next `sizes[i]` of `rows`, counted in the matrix's row
        order. Each row's node, or a spare node past the end for rows not
        in the frontier, shifts its bin to the node's stretch of the
        feature's bins, so one bincount per feature (two in regression,
        weighted by g and h) counts every node without gathering a cell.
        A node's rows are ascending, so a bin's g and h are added in the
        node's row order."""
        w = self.width
        n = len(sizes)
        node = np.full(self.key.shape[1], n, dtype=np.intp)
        node[rows] = np.repeat(np.arange(n), sizes)
        hist = np.empty((n, len(self.level), 2), dtype=np.intp if h is None else float)
        position = np.empty_like(node)
        for f, (a, m) in enumerate(zip(self.start.tolist(), self.size.tolist())):
            np.multiply(node, w * m, out=position)
            position += self.key[f]
            if h is None:
                counts = np.bincount(position, minlength=2 * n * m)[:2 * n * m]
                hist[:, a:a + m] = counts.reshape(n, m, 2)
                continue
            for j, v in enumerate((g, h)):
                hist[:, a:a + m, j] = np.bincount(position, v, n * m)[:n * m].reshape(n, m)
        return hist.reshape(-1, 2)

    def _count_run(self, rows, sizes, features, ys, hs, step):
        """The present bins and histograms of a run of nodes, node i
        holding the next `sizes[i]` of `rows`, with targets `ys` and
        hessians `hs` in that order (None to classify), counted `step`
        features at a time from the rows' gathered cells."""
        w = self.width
        nn = len(sizes)
        k = len(self.key) if features is None else features.shape[1]
        _, bounds = self._segments(nn, features)
        node = np.repeat(np.arange(nn), sizes) if nn > 1 else None

        def index(c, stop):
            """Positions on the flat axis of the rows' bins on features
            c..stop-1 of their node, the first of feature c at 0."""
            if features is None:
                # every node has every feature: a node's segments start
                # where the node before it ends
                index = np.take(self.key[c:stop], rows, axis=1)
                index = index + w * (bounds[c:stop, None] - bounds[c])
                if nn > 1:
                    index += w * bounds[k] * node
                return index
            if nn == 1:
                codes = np.take(self.key[features[0, c:stop]], rows, axis=1)
                return codes + w * (bounds[c:stop, None] - bounds[c])
            codes = self.key.ravel()[features[node].T * self.key.shape[1] + rows]
            return codes + w * bounds[:-1].reshape(nn, k)[node].T

        # per bin, classification's counts of labels 0 and 1 or
        # regression's sums of targets g and hessians h, which bincount
        # adds in the node's row order
        classify = hs is None
        if bounds[-1] > 8 * len(rows) * k:
            # more than 8 bins per cell, as deep nodes over many-valued
            # columns have: sorting costs what the rows do
            return _sorted_histograms(index(0, k).ravel(), ys, hs, k)
        hist = np.zeros((int(bounds[-1]), 2), dtype=np.intp if classify else float)
        # each cell's weight, for `step` features of the rows
        weights = [] if classify else [np.tile(v, step) for v in (ys, hs)]
        for c in range(0, k, step):
            cells = index(c, min(c + step, k)).ravel()
            if classify:
                counts = np.bincount(cells)
                hist.ravel()[2 * bounds[c]:2 * bounds[c] + len(counts)] = counts
            for j, v in enumerate(weights):
                counts = np.bincount(cells, weights=v[:len(cells)])
                hist[bounds[c]:bounds[c] + len(counts), j] = counts
        del cells, counts, weights
        return _present(hist, classify)

    def _search(self, present, hist, sizes, features, rngs, owner):
        """best_splits of a run of nodes from the histograms of their
        present bins: node i holds `sizes[i]` rows and draws from
        `rngs[owner[i]]`. Segment s is node s // k on its feature s % k,
        of k; `present` are the numbers of its bins on the flat axis of
        `_segments`, ascending, and `hist` their rows."""
        nn = len(sizes)
        k = len(self.key) if features is None else features.shape[1]
        feature, bounds = self._segments(nn, features)
        classify = self.width == 2
        segment = np.searchsorted(bounds, present, side="right") - 1
        level = self.level[(self.start[feature] - bounds[:-1])[segment] + present]
        del present
        # every segment holds each row of its node once, so it has a
        # present bin; segment s's are first[s]:first[s + 1]
        first = np.searchsorted(segment, np.arange(len(feature) + 1))
        if rngs is None:
            # a candidate splits after present bin p, before the next
            # present bin of the same segment; `>` (not `!=`) never splits
            # off a NaN level, as a scan of the sorted column would not
            at = np.flatnonzero((segment[1:] == segment[:-1]) & (level[1:] > level[:-1]))
        else:
            # one draw per segment whose present levels differ, node by
            # node, features in order: one uniform call per tree draws what
            # a call per feature would. The candidate splits after the last
            # present bin at or below the draw (a NaN level never is one).
            lo = np.fmin.reduceat(level, first[:-1])
            hi = np.fmax.reduceat(level, first[:-1])
            drawn = np.full(len(feature), np.nan)
            draw = lo < hi
            tree = np.repeat(owner, k)
            for t in dict.fromkeys(owner.tolist()):
                s = np.flatnonzero(draw & (tree == t))
                drawn[s] = rngs[t].uniform(lo[s], hi[s])
            below = np.add.reduceat(level <= drawn[segment], first[:-1])
            at = (first[:-1] + below - 1)[draw]
        split = np.zeros(nn, dtype=bool)
        if len(at) == 0:
            return split, 0, 0.0
        owner = segment[at]
        del segment
        if classify:
            # running counts over the run's present bins; the counts before
            # segment s, edges[s], are those of the segments before it
            cum = np.cumsum(hist, axis=0, out=hist)
            edges = cum[first - 1]
            edges[0] = 0
            left = cum[at]
            del cum, hist
            left -= edges[owner]
            nl = left[:, 0] + left[:, 1]
            m = sizes[owner // k]
            # a midpoint leaves a row on each side, as the present levels on
            # either side hold one each; a draw may leave the right empty
            if rngs is not None:
                valid = np.flatnonzero((nl >= 1) & (nl < m))
                if len(valid) == 0:
                    return split, 0, 0.0
                at, owner, left, nl, m = (a[valid] for a in (at, owner, left, nl, m))
            ones_l, ones = left[:, 1], np.diff(edges[:, 1])[owner]
            score = (_gini if rngs is None else _mean_gini)(nl, ones_l, ones, m)
            del left, nl, m, ones_l, ones
        else:
            # running sums over each segment's present bins, ascending, from
            # its first (segments of one length together); the last is the node's
            lengths = np.diff(first)
            for length in np.flatnonzero(np.bincount(lengths)).tolist():
                bins = first[:-1][lengths == length, None] + np.arange(length)
                hist[bins] = np.cumsum(hist[bins], axis=1)
            total = hist[first[1:] - 1]
            # minus the second-order gain, less the node's G²/H
            g_l, h_l = hist[at].T
            g_r, h_r = (total[owner] - hist[at]).T
            score = -(g_l * g_l / h_l + g_r * g_r / h_r)
        # per segment, the lowest score and its first (lowest threshold)
        # candidate, as np.argmin takes it: the first NaN if there is one
        low = np.full(len(feature), np.inf)
        nan = np.isnan(score)
        if nan.any():
            # minimum.at flags NaN as an invalid operation; set them apart
            np.minimum.at(low, owner[~nan], score[~nan])
            low[owner[nan]] = np.nan
        else:
            np.minimum.at(low, owner, score)
        each = low[owner]
        hit = score == each
        if nan.any():
            hit |= nan & np.isnan(each)
        del score, each, nan
        hits = np.flatnonzero(hit)
        pick = np.full(len(feature), len(at))
        np.minimum.at(pick, owner[hits], hits)
        del owner, hit, hits
        # across a node's features, taken in ascending order, the rule of
        # _first_best: the first lowest score wins unless another lies
        # within 1e-15 above it, which only the rule itself can settle
        found = (pick < len(at)).reshape(nn, k)
        low = low.reshape(nn, k)
        best = low.min(axis=1)[:, None]
        column = np.argmax(low == best, axis=1)
        unsure = found & ((low != best) & (low - 1e-15 <= best) | ~np.isfinite(low))
        for i in np.flatnonzero(unsure.any(axis=1)).tolist():
            column[i] = _first_best((low[i, c], c) for c in np.flatnonzero(found[i]).tolist())[1]
        split = found.any(axis=1)
        threshold = np.zeros(nn)
        if rngs is None:
            # the winning segments' first best candidates
            pick = at[pick.reshape(nn, k)[np.arange(nn), column][split]]
            threshold[split] = 0.5 * (level[pick] + level[pick + 1])
        else:
            threshold[split] = drawn.reshape(nn, k)[np.arange(nn), column][split]
        return split, column if features is None else features[np.arange(nn), column], threshold


def _starts(sizes) -> np.ndarray:
    """Where each of consecutive runs of the given sizes starts, then the
    end of the last."""
    starts = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    return starts


def _present(hist, classify):
    """The bins of dense histograms that count a row or, in regression,
    whose hessians sum above 0, and their histograms."""
    present = np.flatnonzero(hist[:, 0] + hist[:, 1] if classify else hist[:, 1])
    return present, hist[present]


def _sorted_histograms(cells, ys, hs, k):
    """_present of the histograms of a run's `cells`, positions on its flat
    bin axis, k features per row (targets `ys` and hessians `hs`, None to
    classify), by sorting the cells instead of counting every bin; both
    give the same histograms."""
    keys, inverse, counts = np.unique(cells, return_inverse=True, return_counts=True)
    if hs is None:
        present, bins = np.unique(keys // 2, return_inverse=True)
        hist = np.zeros((len(present), 2), dtype=np.intp)
        hist[bins, keys % 2] = counts
        return present, hist
    # one key per bin: the keys are the present bins
    return keys, np.array([np.bincount(inverse, weights=np.tile(v, k)) for v in (ys, hs)]).T


def _gini(nl, ones_l, ones, n):
    """Weighted Gini impurity of splits with `nl` of `n` rows, `ones_l`
    of `ones` positives, on the left."""

    def weighted(size, pos):
        # size * (1 - p * p - q * q) with p = pos / size and
        # q = (size - pos) / size, in place, operation for operation; row
        # counts are exact as floats
        p = pos / size
        q = size - pos
        q /= size
        p *= p
        q *= q
        impurity = np.subtract(1.0, p, out=p)
        impurity -= q
        impurity *= size
        return impurity

    score = weighted(nl.astype(float), ones_l)
    score += weighted(np.subtract(n, nl, dtype=float), ones - ones_l)
    score /= n
    return score


def _mean_gini(nl, ones_l, ones, n):
    """_gini as extra-trees' raw-column scorer wrote it, from each side's
    mean label p: (nl * g(pl) + nr * g(pr)) / n, g(p) = 1 - p² - (1 - p)².
    It squared float64 scalars with C pow, as float_power does; `** 2` on
    an array multiplies, which rounds differently now and then."""

    def g(p):
        return 1.0 - np.float_power(p, 2) - np.float_power(1 - p, 2)

    return (nl * g(ones_l / nl) + (n - nl) * g((ones - ones_l) / (n - nl))) / n


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

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset
from phishguard.errors import EmptyDataset, InfiniteCell, PhishguardError
from phishguard.models import build_tree, train_forest, train_gbt, train_tree
from phishguard.models.common import sigmoid
from phishguard.models.ensemble import Ensemble
from phishguard.models.serialize import model_to_dict
from phishguard.models.splits import _mean_gini
from phishguard.models.tree import LEAF, NODE_ARRAYS, DecisionTree


def xor_dataset():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = (X[:, 0] != X[:, 1]).astype(int)
    return Dataset(X, y, ("a", "b"))


def brute_force_gini(column, y, min_leaf=1):
    """Independent O(n^2) oracle for the prefix-sum split scan."""
    best = None
    values = np.unique(column)
    for lo, hi in zip(values[:-1], values[1:]):
        t = 0.5 * (lo + hi)
        left = column <= t
        nl, nr = int(left.sum()), int((~left).sum())
        if nl < min_leaf or nr < min_leaf:
            continue

        def gini(v):
            if len(v) == 0:
                return 0.0
            p = v.mean()
            return 1.0 - p ** 2 - (1.0 - p) ** 2

        score = (nl * gini(y[left]) + nr * gini(y[~left])) / len(y)
        if best is None or score < best[0] - 1e-15:
            best = (score, t)
    return best


# The per-column split scans that the binned search in build_tree
# replaced. Each sorts one column at one node and scans its prefix sums;
# they are the oracle for the binned search, which must pick the same
# splits bit for bit.


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


def _score_random_threshold(column, y, threshold, min_leaf):
    """Gini of splitting the raw `column` at `threshold`, from each side's
    mean label, as extra-trees scored a drawn threshold before they
    searched histograms; None if a side has fewer than min_leaf rows."""
    left = column <= threshold
    nl = int(left.sum())
    nr = len(y) - nl
    if nl < min_leaf or nr < min_leaf:
        return None

    def gini(v):
        p = v.mean()
        return 1.0 - p ** 2 - (1 - p) ** 2

    return (nl * gini(y[left]) + nr * gini(y[~left])) / len(y)


def _random_threshold(rng):
    """Extra-trees' scan of one raw column: a threshold drawn uniformly
    between its least and greatest non-NaN value, if they differ."""

    def scan(column, y, min_leaf):
        if np.isnan(column).all():
            return None
        lo, hi = np.nanmin(column), np.nanmax(column)
        if lo == hi:
            return None
        threshold = float(rng.uniform(lo, hi))
        score = _score_random_threshold(column, y, threshold, min_leaf)
        return None if score is None else (score, threshold)

    return scan


def reference_tree(X, y, *, task="classify", max_depth=8, min_samples_leaf=1,
                   rng=None, n_feature_subset=None, split_mode="best"):
    """build_tree as it was before binning: every candidate column of
    every node is sorted and scanned on its own (or, with
    split_mode="random", offers one threshold drawn from `rng`), nodes
    are numbered in preorder and the feature subsets and thresholds are
    drawn in preorder."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    if split_mode == "random":
        scan = _random_threshold(rng)
    else:
        scan = _best_threshold_gini if task == "classify" else _best_threshold_sse
    nodes = {name: [] for name in NODE_ARRAYS}

    def grow(indices, depth):
        node = len(nodes["feature"])
        for name in NODE_ARRAYS:
            nodes[name].append(None)
        ys = y[indices]
        best = None
        if depth < max_depth and len(indices) >= 2 * min_samples_leaf and not np.all(ys == ys[0]):
            features = np.arange(d)
            if rng is not None and n_feature_subset is not None and n_feature_subset < d:
                features = np.sort(rng.choice(d, size=n_feature_subset, replace=False))
            for j in features:
                found = scan(X[indices, j], ys, min_samples_leaf)
                if found is not None and (best is None or found[0] < best[0] - 1e-15):
                    best = (found[0], int(j), found[1])
        if best is None:
            row = (LEAF, 0.0, node, node, float(ys.mean()))
        else:
            _, j, threshold = best
            go_left = X[indices, j] <= threshold
            left = grow(indices[go_left], depth + 1)
            right = grow(indices[~go_left], depth + 1)
            row = (j, threshold, left, right, 0.0)
        for name, item in zip(NODE_ARRAYS, row):
            nodes[name][node] = item
        return node

    grow(np.arange(len(X)), 0)
    return DecisionTree(**nodes, n_features=d, max_depth=max_depth, task=task)


def random_split_problem(rng):
    """Columns of mixed kinds and a target for one task, with tree
    settings, drawn from `rng`."""
    n = int(rng.integers(2, 250))
    kinds = rng.choice(["ternary", "many", "signed_zero", "binary", "constant", "nan"],
                       size=int(rng.integers(1, 7)))
    columns = []
    for kind in kinds:
        if kind == "ternary":
            column = rng.choice([-1.0, 0.0, 1.0], size=n)
        elif kind == "many":  # more levels than a uint8 code holds
            column = rng.integers(0, 400, size=n).astype(float)
        elif kind == "signed_zero":
            column = rng.choice([-0.0, 0.0, 0.5, -1.5], size=n)
        elif kind == "binary":
            column = rng.choice([0.0, 1.0], size=n)
        elif kind == "constant":
            column = np.full(n, 2.0)
        else:
            column = rng.choice([np.nan, -1.0, 0.0, 3.0], size=n)
        columns.append(column)
    X = np.column_stack(columns)
    target = rng.choice(["labels", "wide_labels", "regress", "cancelling"])
    if target == "labels":
        task, y = "classify", (X[:, 0] + rng.normal(0, 1, n) > 0).astype(float)
    elif target == "wide_labels":  # classify labels outside {0, 1}
        task, y = "classify", rng.integers(0, 3, size=n).astype(float)
    elif target == "regress":
        task, y = "regress", rng.normal(0, 1, n).round(int(rng.integers(0, 4)))
    else:  # float sums that depend on the order of the additions
        task, y = "regress", rng.choice([1e16, -1e16, 1.0, 3.0, 0.5], size=n)
    settings = {
        "task": task,
        "max_depth": int(rng.integers(0, 9)),
        "min_samples_leaf": int(rng.choice([1, 1, 2, 5])),
        "n_feature_subset": int(rng.integers(1, X.shape[1] + 1)) if rng.random() < 0.4 else None,
    }
    return X, y, settings


def document(tree):
    """The model file text of `tree`; unlike ==, it tells -0.0 from 0.0."""
    return json.dumps(model_to_dict(tree))


def reference_forest(ds, *, n_trees, max_depth, min_samples_leaf, seed, mode="bagging",
                     bootstrap=None):
    """train_forest with its trees built one at a time: each tree draws its
    bootstrap sample (if any) from its own seeded rng, and reference_tree
    grows it on that sample, drawing feature subsets (bagging) or
    thresholds (extra) from the same rng."""
    if bootstrap is None:
        bootstrap = mode == "bagging"
    rng = np.random.default_rng(seed)
    n, d = ds.X.shape
    if mode == "bagging":
        draws = {"n_feature_subset": max(1, int(np.sqrt(d)))}
    else:
        draws = {"split_mode": "random"}
    members = []
    for _ in range(n_trees):
        tree_rng = np.random.default_rng(rng.integers(2 ** 63))
        sample = tree_rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        members.append(reference_tree(ds.X[sample], ds.y[sample], max_depth=max_depth,
                                      min_samples_leaf=min_samples_leaf, rng=tree_rng,
                                      **draws))
    return Ensemble(members=members, weights=[1.0 / n_trees] * n_trees, mode=mode,
                    feature_names=ds.feature_names)


def forest_problem(seed):
    """Ternary columns and one 60-level column, few enough rows that a
    bootstrap sample misses some of its levels."""
    ds = make_ternary_dataset(n=160, n_features=9, seed=seed)
    X = ds.X.copy()
    X[:, 8] = np.random.default_rng(seed).integers(0, 60, size=len(X))
    return Dataset(X, ds.y, ds.feature_names)


class TestBinnedSplitSearch:
    def test_matches_per_column_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(150):
            X, y, settings = random_split_problem(rng)
            seed = int(rng.integers(2 ** 32))
            subset = settings["n_feature_subset"] is not None
            binned = build_tree(X, y, **settings,
                                rng=np.random.default_rng(seed) if subset else None)
            oracle = reference_tree(X, y, **settings,
                                    rng=np.random.default_rng(seed) if subset else None)
            assert document(binned) == document(oracle), (trial, settings)

    def test_nan_targets_match_oracle(self):
        # a NaN target makes every score of its node NaN; np.argmin, and
        # so the oracle, takes the first NaN
        rng = np.random.default_rng(31)
        for trial in range(20):
            X = rng.choice([-1.0, 0.0, 1.0, 2.0], size=(60, 4))
            y = rng.normal(size=60)
            y[rng.choice(60, size=int(rng.integers(1, 4)), replace=False)] = np.nan
            settings = dict(task="regress", max_depth=int(rng.integers(1, 5)))
            assert document(build_tree(X, y, **settings)) == \
                document(reference_tree(X, y, **settings)), trial

    def test_random_mode_matches_raw_column_oracle(self):
        rng = np.random.default_rng(2025)
        seen = set()
        for trial in range(300):
            X, y, settings = random_split_problem(rng)
            seed = int(rng.integers(2 ** 32))
            if settings["task"] != "classify":
                continue
            seen.add((bool(np.all((y == 0) | (y == 1))), settings["n_feature_subset"] is None))
            binned = build_tree(X, y, **settings, split_mode="random",
                                rng=np.random.default_rng(seed))
            oracle = reference_tree(X, y, **settings, split_mode="random",
                                    rng=np.random.default_rng(seed))
            assert document(binned) == document(oracle), (trial, settings)
        # 0/1 and wide labels, each with and without feature subsets
        assert len(seen) == 4

    def test_drawn_split_scores_as_the_raw_column_scorer(self):
        # the scalar scorer's `p ** 2` is C pow, which rounds differently
        # from p * p for some means, such as 8 / 41
        rng = np.random.default_rng(41)
        nl, nr = rng.integers(1, 120, size=(2, 3000))
        ones_l, ones_r = rng.integers(0, nl + 1), rng.integers(0, nr + 1)
        nl[0], ones_l[0] = 41, 8
        want = []
        for a, b, c, d in zip(nl.tolist(), ones_l.tolist(), nr.tolist(), ones_r.tolist()):
            column = np.repeat([0.0, 1.0], [a, c])
            y = np.concatenate([np.arange(a) < b, np.arange(c) < d]).astype(float)
            want.append(_score_random_threshold(column, y, 0.5, 1))
        got = _mean_gini(nl, ones_l, ones_l + ones_r, nl + nr)
        assert np.array_equal(got, want)

    def test_random_mode_refuses_regression(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(PhishguardError):
            build_tree(X, np.array([0.5, 1.5, 2.5, 4.0]), task="regress", split_mode="random",
                       rng=np.random.default_rng(0))

    def test_no_features_gives_one_leaf(self):
        X, y = np.zeros((5, 0)), np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        assert document(build_tree(X, y)) == document(reference_tree(X, y))

    def test_matches_oracle_on_uci_shaped_data(self):
        ds = make_ternary_dataset(n=2000, seed=13)
        assert document(build_tree(ds.X, ds.y, max_depth=10)) == \
            document(reference_tree(ds.X, ds.y, max_depth=10))
        residual = ds.y - np.random.default_rng(0).random(len(ds))
        assert document(build_tree(ds.X, residual, task="regress", max_depth=4)) == \
            document(reference_tree(ds.X, residual, task="regress", max_depth=4))


class TestSplitScan:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            column = rng.choice([-1.0, 0.0, 1.0, 2.0], size=40)
            y = rng.integers(0, 2, size=40).astype(float)
            fast = _best_threshold_gini(column, y, 1)
            slow = brute_force_gini(column, y, 1)
            if slow is None:
                assert fast is None
            else:
                assert fast[0] == pytest.approx(slow[0], abs=1e-12)
                assert fast[1] == pytest.approx(slow[1], abs=1e-12)

    def test_constant_column_no_split(self):
        assert _best_threshold_gini(np.ones(10), np.arange(10) % 2, 1) is None
        assert _best_threshold_sse(np.ones(10), np.arange(10.0), 1) is None

    def test_sse_known_value(self):
        # column [0,0,1,1], y [0,0,5,5]: splitting at 0.5 gives SSE 0
        found = _best_threshold_sse(np.array([0.0, 0.0, 1.0, 1.0]),
                                    np.array([0.0, 0.0, 5.0, 5.0]), 1)
        assert found[0] == pytest.approx(0.0)
        assert found[1] == pytest.approx(0.5)

    def test_min_leaf_respected(self):
        column = np.array([0.0, 1.0, 1.0, 1.0])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        assert _best_threshold_gini(column, y, 2) is None


class TestDecisionTree:
    def test_xor_depth2_perfect(self):
        ds = xor_dataset()
        tree = train_tree(ds, max_depth=2)
        assert np.mean(tree.predict(ds.X) == ds.y) == 1.0

    def test_depth_zero_majority_leaf(self):
        ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([1, 1, 0]), ("a",))
        tree = train_tree(ds, max_depth=0)
        assert tree.feature[0] == LEAF
        assert tree.predict_proba(np.array([5.0])) == pytest.approx(2 / 3)

    def test_pure_node_stops(self):
        ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 1]), ("a",))
        tree = train_tree(ds, max_depth=8)
        assert tree.feature[0] == LEAF

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDataset):
            build_tree(np.zeros((0, 2)), np.zeros(0))

    def test_tie_break_lowest_feature(self):
        # both features split the labels identically; feature 0 must win
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = build_tree(X, y, max_depth=1)
        assert tree.feature[0] == 0

    def test_training_data_freed_without_cycle_collector(self):
        # a reference cycle would keep every fit's data alive until the
        # cycle collector happens to run, raising peak memory in CV
        ds = make_ternary_dataset(n=100, seed=1)
        X = ds.X.copy()
        alive = weakref.ref(X)
        gc.disable()
        try:
            build_tree(X, ds.y, max_depth=3)
            del X
            assert alive() is None
        finally:
            gc.enable()

    def test_determinism(self):
        ds = make_ternary_dataset(n=200, seed=2)
        a = train_tree(ds, max_depth=6)
        b = train_tree(ds, max_depth=6)
        assert np.array_equal(a.predict_proba(ds.X), b.predict_proba(ds.X))

    def test_batch_single_agree(self):
        ds = make_ternary_dataset(n=100, seed=1)
        tree = train_tree(ds, max_depth=4)
        batch = tree.predict_proba(ds.X)
        for i in range(0, 100, 17):
            assert tree.predict_proba(ds.X[i]) == pytest.approx(batch[i])


class TestForest:
    def test_bagging_beats_chance(self):
        ds = make_ternary_dataset(seed=4)
        forest = train_forest(ds, n_trees=30, seed=0)
        assert np.mean(forest.predict(ds.X) == ds.y) > 0.8

    def test_extra_trees_beats_chance(self):
        ds = make_ternary_dataset(seed=4)
        forest = train_forest(ds, n_trees=30, mode="extra", seed=0)
        assert np.mean(forest.predict(ds.X) == ds.y) > 0.8

    def test_single_tree_forest_without_bootstrap_equals_tree(self):
        ds = make_ternary_dataset(n=150, seed=7)
        forest = train_forest(ds, n_trees=1, mode="bagging", seed=0,
                              bootstrap=False)
        # a degenerate one-tree forest is still feature-subsampled, so just
        # check probabilities average correctly (weight 1.0 on one member)
        member = forest.members[0]
        assert np.array_equal(forest.predict_proba(ds.X),
                              member.predict_proba(ds.X))

    @pytest.mark.parametrize("n_trees", [1, 3, 7])
    @pytest.mark.parametrize("max_depth", [0, 3, 12])
    @pytest.mark.parametrize("min_samples_leaf", [1, 5])
    def test_bagging_matches_trees_built_one_by_one(self, n_trees, max_depth, min_samples_leaf):
        for seed in (0, 1, 2):
            ds = forest_problem(seed)
            settings = dict(n_trees=n_trees, max_depth=max_depth,
                            min_samples_leaf=min_samples_leaf, seed=seed + 10)
            assert document(train_forest(ds, mode="bagging", **settings)) == \
                document(reference_forest(ds, **settings)), seed

    @pytest.mark.parametrize("n_trees", [1, 3, 7])
    @pytest.mark.parametrize("bootstrap", [False, True])
    def test_extra_matches_trees_built_one_by_one(self, n_trees, bootstrap):
        for seed in (0, 1, 2):
            ds = forest_problem(seed)
            X = ds.X.copy()
            X[np.random.default_rng(seed).random(len(X)) < 0.1, 3] = np.nan
            ds = Dataset(X, ds.y, ds.feature_names)
            settings = dict(n_trees=n_trees, max_depth=12, min_samples_leaf=1 + 2 * seed,
                            seed=seed + 10, bootstrap=bootstrap)
            assert document(train_forest(ds, mode="extra", **settings)) == \
                document(reference_forest(ds, mode="extra", **settings)), seed

    def test_extra_trees_fit_nan_cells(self):
        ds = make_ternary_dataset(n=300, seed=3)
        X = ds.X.copy()
        X[::7, 0] = np.nan
        X[:, 5] = np.nan
        forest = train_forest(Dataset(X, ds.y, ds.feature_names), n_trees=5, mode="extra",
                              seed=0)
        assert np.all(np.isfinite(forest.predict_proba(X)))
        for tree in forest.members:
            inner = np.flatnonzero(tree.feature != LEAF)
            assert 0 in tree.feature[inner] and 5 not in tree.feature[inner]
            for node in inner.tolist():
                column = X[:, tree.feature[node]]
                assert np.nanmin(column) <= tree.threshold[node] <= np.nanmax(column)
            # each leaf holds the training rows that the predict walk,
            # sending NaN right, brings to it
            reached = [_leaf_of(tree, row) for row in X]
            for leaf in np.flatnonzero(tree.feature == LEAF).tolist():
                rows = [i for i, r in enumerate(reached) if r == leaf]
                assert tree.value[leaf] == ds.y[rows].sum() / len(rows)

    def test_single_row_scores_as_in_a_batch(self):
        ds = make_ternary_dataset(n=2000, seed=13)
        forest = train_forest(ds, n_trees=15, seed=0)
        single = [forest.predict_proba(row) for row in ds.X]
        assert np.array_equal(single, forest.predict_proba(ds.X))

    def test_seed_determinism(self):
        ds = make_ternary_dataset(n=200, seed=5)
        a = train_forest(ds, n_trees=10, seed=3)
        b = train_forest(ds, n_trees=10, seed=3)
        assert np.array_equal(a.predict_proba(ds.X), b.predict_proba(ds.X))

    def test_probability_range(self):
        ds = make_ternary_dataset(n=200, seed=5)
        probs = train_forest(ds, n_trees=15, seed=1).predict_proba(ds.X)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_bad_args(self):
        ds = make_ternary_dataset(n=50, seed=0)
        with pytest.raises(PhishguardError):
            train_forest(ds, n_trees=0)
        with pytest.raises(PhishguardError):
            train_forest(ds, mode="boosted")


def _leaf_of(tree, x):
    """The leaf of `tree` that the row x reaches, one node at a time."""
    node = 0
    while tree.feature[node] != LEAF:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return node


class TestGbt:
    def test_base_score_is_log_odds(self):
        ds = make_ternary_dataset(n=200, seed=8)
        model = train_gbt(ds, n_rounds=1, max_depth=0)
        rate = ds.y.mean()
        assert model.base_score == pytest.approx(np.log(rate / (1 - rate)))

    def test_depth_zero_round_is_near_noop(self):
        # with one depth-0 tree the Newton step at the root keeps the mean
        # prediction at the base rate
        ds = make_ternary_dataset(n=200, seed=8)
        model = train_gbt(ds, n_rounds=1, max_depth=0, learning_rate=1.0)
        probs = model.predict_proba(ds.X)
        assert np.allclose(probs, probs[0])
        assert probs[0] == pytest.approx(ds.y.mean(), abs=1e-6)

    def test_training_loss_monotone_nonincreasing(self):
        ds = make_ternary_dataset(n=300, seed=9)
        model = train_gbt(ds, n_rounds=40, max_depth=3, learning_rate=0.2)
        y = ds.y.astype(float)
        logits = np.full(len(y), model.base_score)

        def bce(z):
            p = np.clip(sigmoid(z), 1e-12, 1 - 1e-12)
            return -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))

        losses = [bce(logits)]
        for tree, weight in zip(model.members, model.weights):
            logits = logits + weight * tree.predict_value(ds.X)
            losses.append(bce(logits))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_fits_training_set_well(self):
        ds = make_ternary_dataset(n=300, seed=10)
        model = train_gbt(ds, n_rounds=100, max_depth=4)
        assert np.mean(model.predict(ds.X) == ds.y) > 0.9

    def test_decision_function_matches_manual_sum(self):
        ds = make_ternary_dataset(n=100, seed=11)
        model = train_gbt(ds, n_rounds=5, max_depth=2)
        manual = np.full(len(ds), model.base_score)
        for tree, weight in zip(model.members, model.weights):
            manual += weight * tree.predict_value(ds.X)
        assert np.allclose(model.decision_function(ds.X), manual)
        # the vectorised walk adds the trees in the loop's order, bit for bit
        assert np.array_equal(model.decision_function(ds.X), manual)
        assert np.allclose(model.predict_proba(ds.X), sigmoid(manual))


@pytest.mark.parametrize("fit", [
    lambda ds: train_tree(ds),
    lambda ds: train_forest(ds, n_trees=3),
    lambda ds: train_forest(ds, n_trees=3, mode="extra"),
    lambda ds: train_gbt(ds, n_rounds=3),
], ids=["tree", "bagging", "extra", "gbt"])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_cell_is_refused(fit, value):
    ds = make_ternary_dataset(n=200, seed=1)
    X = ds.X.copy()
    X[[3, 9], 2] = value
    with pytest.raises(InfiniteCell, match=f"{value} at row 3 of the training matrix, column 2") as raised:
        fit(Dataset(X, ds.y, ds.feature_names))
    assert (raised.value.row, raised.value.column) == (3, 2)


# Bounds on the peak tracemalloc memory of each fit on 11,055 UCI-shaped
# rows, in MB, from peaks measured (numpy 2.4) with trees grown one node
# at a time: growing a frontier of nodes at once must keep its
# temporaries as small. Extra-trees were measured when they scored
# drawn thresholds on the raw columns (1.68 MB); searching histograms
# adds the binning of the matrix.
PEAK_BOUND_MB = {"tree": 1.1 * 0.88, "forest": 1.1 * 4.90, "gbt": 1.1 * 1.72,
                 "extra": 1.25 * 1.68}


@pytest.mark.parametrize("kind, fit", [
    ("tree", lambda ds: train_tree(ds, max_depth=12)),
    ("forest", lambda ds: train_forest(ds, n_trees=5)),
    ("extra", lambda ds: train_forest(ds, n_trees=5, mode="extra")),
    ("gbt", lambda ds: train_gbt(ds, n_rounds=10)),
])
def test_fit_peak_memory(kind, fit):
    ds = make_ternary_dataset(n=11055, seed=5)
    tracemalloc.start()
    try:
        fit(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND_MB[kind] * 1e6

import gc
import weakref

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset
from phishguard.errors import EmptyDataset, PhishguardError
from phishguard.models import build_tree, train_forest, train_gbt, train_tree
from phishguard.models.common import sigmoid
from phishguard.models.tree import LEAF, _best_threshold_gini, _best_threshold_sse


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

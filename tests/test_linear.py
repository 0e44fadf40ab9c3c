import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishguard.datasets import Dataset
from phishguard.errors import InvalidM, PhishguardError, SingleClassDataset
from phishguard.models import (
    LinearModel,
    TrainConfig,
    average_fold_coefficients,
    select_features_by_coefficient,
    train_linear,
)
from phishguard.models.common import Standardizer, sigmoid, stratified_fold_indices
from phishguard.models.linear import _loss_and_grad, _run_sgd, _soft_threshold

from conftest import make_ternary_dataset


def separable_dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    # push the classes apart so they are strictly separable
    X[:, 0] += np.where(y == 1, 2.0, -2.0)
    return Dataset(X, y, ("a", "b", "c"))


def reference_sgd(X, y, w, b, loss, l1, l2, cfg):
    """`_run_sgd`'s loop as it was when each step also computed the loss
    value and ran the l1 threshold at l1 = 0: its oracle."""
    rng = np.random.default_rng(cfg.seed)
    t = 0
    for _ in range(cfg.max_epochs):
        for i in rng.permutation(len(y)):
            t += 1
            lr = cfg.learning_rate / (1.0 + 1e-3 * t)
            _, gw, gb = _loss_and_grad(w, b, X[i : i + 1], y[i : i + 1], loss, l2)
            w = _soft_threshold(w - lr * gw, lr * l1)
            b -= lr * gb
    return w, b


class TestSigmoid:
    def test_known_value(self):
        # sigmoid(0.5) = 1/(1+e^-0.5), verified with an independent calc
        assert sigmoid(0.5) == pytest.approx(0.6224593312, abs=1e-9)
        assert sigmoid(0.0) == 0.5

    def test_extremes_stay_finite(self):
        assert sigmoid(1000.0) == pytest.approx(1.0)
        assert sigmoid(-1000.0) == pytest.approx(0.0)


class TestStratifiedFolds:
    def test_partition(self):
        y = np.array([0] * 30 + [1] * 20)
        folds = stratified_fold_indices(y, 5, seed=0)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(50))

    def test_class_ratio_within_one(self):
        y = np.array([0] * 31 + [1] * 19)
        for fold in stratified_fold_indices(y, 5, seed=3):
            n1 = int(np.sum(y[fold]))
            n0 = len(fold) - n1
            assert abs(n0 - 31 / 5) < 1.0 + 1e-9
            assert abs(n1 - 19 / 5) < 1.0 + 1e-9

    def test_seed_determinism(self):
        y = np.array([0, 1] * 25)
        a = stratified_fold_indices(y, 5, seed=7)
        b = stratified_fold_indices(y, 5, seed=7)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))


class TestTrainLinear:
    @pytest.mark.parametrize("loss", ["logistic", "hinge", "squared"])
    def test_separable_perfect_accuracy(self, loss):
        ds = separable_dataset()
        model = train_linear(ds, loss=loss)
        assert np.mean(model.predict(ds.X) == ds.y) == 1.0

    def test_sgd_matches_direction(self):
        ds = separable_dataset()
        model = train_linear(ds, loss="logistic", sgd=True,
                             cfg=TrainConfig(max_epochs=50, seed=1))
        assert np.mean(model.predict(ds.X) == ds.y) >= 0.95

    @pytest.mark.parametrize("loss, l1, l2", [("logistic", 0.0, 0.0)])
    def test_sgd_steps_match_the_reference_loop_bit_for_bit(self, loss, l1, l2):
        ds = make_ternary_dataset(n=300, seed=4)
        X, y = Standardizer().fit(ds.X).transform(ds.X), ds.y.astype(float)
        cfg = TrainConfig(max_epochs=3, seed=2)
        w, b = _run_sgd(X, y, np.zeros(X.shape[1]), 0.0, cfg)
        w_ref, b_ref = reference_sgd(X, y, np.zeros(X.shape[1]), 0.0, loss, l1, l2, cfg)
        assert (w.tobytes(), float(b).hex()) == (w_ref.tobytes(), float(b_ref).hex())

    @pytest.mark.parametrize("loss, regularization", [
        ("hinge", "none"), ("squared", "none"),
        ("logistic", "l1"), ("logistic", "l2"), ("logistic", "elastic")])
    def test_sgd_refuses_other_losses_and_regularizers(self, loss, regularization):
        with pytest.raises(PhishguardError, match="SGD"):
            train_linear(separable_dataset(), loss=loss, regularization=regularization,
                         l1=0.01, l2=0.01, cfg=TrainConfig(max_epochs=1), sgd=True)

    def test_logistic_beats_chance_on_ternary(self):
        ds = make_ternary_dataset(seed=5)
        model = train_linear(ds, loss="logistic")
        assert np.mean(model.predict(ds.X) == ds.y) > 0.7

    def test_l1_sparsifies(self):
        ds = make_ternary_dataset(seed=3)
        dense = train_linear(ds, loss="logistic")
        sparse = train_linear(ds, loss="logistic", regularization="l1", l1=0.2)
        assert np.sum(sparse.weights == 0.0) > np.sum(dense.weights == 0.0)

    def test_l2_shrinks_toward_zero(self):
        ds = make_ternary_dataset(seed=3)
        free = train_linear(ds, loss="logistic")
        heavy = train_linear(ds, loss="logistic", regularization="l2", l2=100.0)
        assert np.linalg.norm(heavy.weights) < 0.05 * np.linalg.norm(free.weights)

    def test_elastic_between(self):
        ds = make_ternary_dataset(seed=3)
        model = train_linear(ds, loss="logistic", regularization="elastic",
                             l1=0.05, l2=0.05)
        assert np.all(np.isfinite(model.weights))

    def test_single_class_rejected(self):
        ds = Dataset(np.zeros((5, 2)), np.ones(5, dtype=int), ("a", "b"))
        with pytest.raises(SingleClassDataset):
            train_linear(ds)

    def test_unknown_loss_rejected(self):
        with pytest.raises(PhishguardError):
            train_linear(separable_dataset(), loss="absolute")

    def test_determinism(self):
        ds = make_ternary_dataset(seed=9)
        a = train_linear(ds, cfg=TrainConfig(seed=4))
        b = train_linear(ds, cfg=TrainConfig(seed=4))
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_logistic_gradient_against_finite_difference(self):
        from phishguard.models.linear import _loss_and_grad

        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, size=40).astype(float)
        w = rng.normal(size=4) * 0.3
        b = 0.1
        value, gw, gb = _loss_and_grad(w, b, X, y, "logistic", l2=0.01)
        eps = 1e-6
        for j in range(4):
            wp = w.copy(); wp[j] += eps
            wm = w.copy(); wm[j] -= eps
            vp, _, _ = _loss_and_grad(wp, b, X, y, "logistic", l2=0.01)
            vm, _, _ = _loss_and_grad(wm, b, X, y, "logistic", l2=0.01)
            assert gw[j] == pytest.approx((vp - vm) / (2 * eps), abs=1e-6)
        vp, _, _ = _loss_and_grad(w, b + eps, X, y, "logistic", l2=0.01)
        vm, _, _ = _loss_and_grad(w, b - eps, X, y, "logistic", l2=0.01)
        assert gb == pytest.approx((vp - vm) / (2 * eps), abs=1e-6)


class TestPredictApi:
    def test_single_and_batch_agree(self):
        model = LinearModel(weights=np.array([1.0, -2.0]), bias=0.5)
        x = np.array([0.3, 0.1])
        assert model.predict_proba(x) == pytest.approx(
            model.predict_proba(x[None, :])[0]
        )

    def test_probability_matches_hand_sigmoid(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0)
        assert model.predict_proba(np.array([0.5])) == pytest.approx(0.6224593312)


class TestFoldAveragedCoefficients:
    def test_shape_and_determinism(self):
        ds = make_ternary_dataset(n=200, seed=1)
        w1 = average_fold_coefficients(ds, TrainConfig(folds=5, seed=2))
        w2 = average_fold_coefficients(ds, TrainConfig(folds=5, seed=2))
        assert w1.shape == (23,)
        assert np.array_equal(w1, w2)

    def test_recovers_informative_features(self):
        # conftest puts all the signal in the first 8 columns
        ds = make_ternary_dataset(n=800, seed=6)
        w = average_fold_coefficients(ds, TrainConfig(folds=5, seed=0))
        top8 = set(select_features_by_coefficient(w, 8))
        assert len(top8 & set(range(8))) >= 6


class TestSelectFeatures:
    def test_simple_ordering(self):
        picked = select_features_by_coefficient([0.1, -3.0, 2.0], 2)
        assert picked == [1, 2]

    def test_tie_prefers_lower_index(self):
        picked = select_features_by_coefficient([1.0, -1.0, 1.0], 2)
        assert picked == [0, 1]

    def test_invalid_m(self):
        with pytest.raises(InvalidM):
            select_features_by_coefficient([1.0, 2.0], 0)
        with pytest.raises(InvalidM):
            select_features_by_coefficient([1.0, 2.0], 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
           st.data())
    def test_selected_dominate_unselected(self, ws, data):
        m = data.draw(st.integers(1, len(ws)))
        picked = select_features_by_coefficient(ws, m)
        assert len(picked) == m == len(set(picked))
        rest = [j for j in range(len(ws)) if j not in picked]
        if rest:
            assert min(abs(ws[j]) for j in picked) >= max(abs(ws[j]) for j in rest) - 1e-12


def test_standardizer_constant_column():
    X = np.array([[1.0, 5.0], [1.0, 7.0]])
    Z = Standardizer().fit(X).transform(X)
    assert np.array_equal(Z[:, 0], [0.0, 0.0])
    assert Z[:, 1] == pytest.approx([-1.0, 1.0])

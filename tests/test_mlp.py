import hashlib

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset
from phishguard.errors import PhishguardError
from phishguard.models import TrainConfig, train_linear, train_mlp
from phishguard.models.mlp import MlpModel, bce_loss, loss_and_gradients


class TestBceLoss:
    def test_hand_computed_value(self):
        # -(log 0.8 + log 0.6) / 2, computed independently
        expected = -(np.log(0.8) + np.log(0.6)) / 2
        assert bce_loss([1, 0], [0.8, 0.4]) == pytest.approx(expected)

    def test_perfect_prediction_near_zero(self):
        assert bce_loss([1, 0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_in_label_flip(self):
        assert bce_loss([1], [0.3]) == pytest.approx(bce_loss([0], [0.7]))


class TestGradients:
    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(0)
        weights = [rng.normal(size=(4, 5)) * 0.5, rng.normal(size=(5, 1)) * 0.5]
        biases = [rng.normal(size=5) * 0.1, rng.normal(size=1) * 0.1]
        model = MlpModel(weights, biases)
        X = rng.normal(size=(20, 4))
        # keep pre-activations away from the ReLU kink so the finite
        # difference is well defined
        y = rng.integers(0, 2, size=20).astype(float)
        _, grads_W, grads_b = loss_and_gradients(model, X, y)
        eps = 1e-5

        def loss_at():
            return loss_and_gradients(model, X, y)[0]

        for l in range(2):
            W = model.weights[l]
            for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
                orig = W[idx]
                W[idx] = orig + eps
                up = loss_at()
                W[idx] = orig - eps
                down = loss_at()
                W[idx] = orig
                assert grads_W[l][idx] == pytest.approx(
                    (up - down) / (2 * eps), abs=1e-4
                )
            b = model.biases[l]
            orig = b[0]
            b[0] = orig + eps
            up = loss_at()
            b[0] = orig - eps
            down = loss_at()
            b[0] = orig
            assert grads_b[l][0] == pytest.approx((up - down) / (2 * eps), abs=1e-4)


class TestScoring:
    # recorded when scoring ran a layer loop of its own, apart from
    # training's forward pass
    @pytest.mark.parametrize("seed, hidden, proba_sha256, logit_sha256", [
        (0, [32], "69e3fbf587916f909187c678e27d47251835ed73ca7e6911abbbd6fa09f14bdd",
         "476c34ca97b1ed8d85c769cfc30fcd9be08e08259e5134c5d47cecec8a828767"),
        (1, [16, 8], "9e73166c644c87621e189807ccfb1ae88bbbdcb0ecfa79323ee5a2a329411c41",
         "4319441c469bd4b58c53be0dd81e2d9623d257ddc97e6e81a28a058026664e11"),
        (2, [], "d00e66f7498ea3020e3304158b2545549f1a9c7cc65711b293414e0e0404d0d8",
         "3f8035b933b9b4b5c7d8578944384f0edfcab4ea9bb9c841d474a7c315acf67c"),
    ])
    def test_a_fixed_model_scores_to_the_same_bits(self, seed, hidden, proba_sha256,
                                                   logit_sha256):
        rng = np.random.default_rng(seed)
        sizes = [23, *hidden, 1]
        weights = [rng.normal(0, 1 / np.sqrt(a), size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        biases = [rng.normal(0, 0.1, size=k) for k in sizes[1:]]
        model = MlpModel(weights, biases, mean=rng.normal(0, 0.2, 23),
                         scale=rng.uniform(0.5, 1.5, 23))
        X = np.random.default_rng(99).integers(-1, 2, size=(64, 23)).astype(float)
        assert hashlib.sha256(model.predict_proba(X).tobytes()).hexdigest() == proba_sha256
        assert hashlib.sha256(model.decision_function(X).tobytes()).hexdigest() == logit_sha256


class TestTrainMlp:
    def test_no_hidden_layer_matches_logistic(self):
        # an MLP with layer_sizes=[1] is exactly logistic regression; both
        # optimizers should land on near-identical predictions
        ds = make_ternary_dataset(n=300, seed=1)
        cfg = TrainConfig(max_epochs=4000, learning_rate=0.02,
                          early_stop_patience=10, seed=0)
        mlp = train_mlp(ds, [1], cfg=cfg, early_stopping=False)
        logit = train_linear(ds, loss="logistic",
                             cfg=TrainConfig(max_epochs=5000))
        p_mlp = mlp.predict_proba(ds.X)
        p_log = logit.predict_proba(ds.X)
        # both must reach the same (convex) optimum
        assert np.max(np.abs(p_mlp - p_log)) < 2e-3
        assert bce_loss(ds.y, p_mlp) == pytest.approx(bce_loss(ds.y, p_log),
                                                      abs=1e-5)

    def test_learns_xor(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25)
        y = (X[:, 0] != X[:, 1]).astype(int)
        ds = Dataset(X, y, ("a", "b"))
        model = train_mlp(ds, [8, 1],
                          cfg=TrainConfig(max_epochs=2000, learning_rate=0.05,
                                          seed=3),
                          early_stopping=False)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_seed_determinism(self):
        ds = make_ternary_dataset(n=200, seed=2)
        cfg = TrainConfig(max_epochs=100, learning_rate=0.01, seed=5)
        a = train_mlp(ds, [16, 1], cfg=cfg)
        b = train_mlp(ds, [16, 1], cfg=cfg)
        assert np.array_equal(a.predict_proba(ds.X), b.predict_proba(ds.X))

    def test_early_stopping_restores_best(self):
        ds = make_ternary_dataset(n=300, seed=6)
        cfg = TrainConfig(max_epochs=500, learning_rate=0.05,
                          early_stop_patience=5, seed=1)
        model = train_mlp(ds, [16, 1], cfg=cfg, early_stopping=True)
        probs = model.predict_proba(ds.X)
        assert np.all((probs > 0.0) & (probs < 1.0))
        assert np.mean(model.predict(ds.X) == ds.y) > 0.7

    def test_output_layer_must_be_one(self):
        ds = make_ternary_dataset(n=50, seed=0)
        with pytest.raises(PhishguardError):
            train_mlp(ds, [8, 2])

    def test_single_and_batch_agree(self):
        ds = make_ternary_dataset(n=100, seed=3)
        model = train_mlp(ds, [8, 1], cfg=TrainConfig(max_epochs=50,
                                                      learning_rate=0.01,
                                                      seed=0))
        batch = model.predict_proba(ds.X)
        assert model.predict_proba(ds.X[7]) == pytest.approx(batch[7])

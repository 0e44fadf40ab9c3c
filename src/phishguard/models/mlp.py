"""A small feed-forward network trained with Adam on binary cross-entropy.

Hidden layers use ReLU, the output is a single sigmoid unit. Training is
full-batch and deterministic per seed at any BLAS thread count, with
early stopping on a held-out 10% split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset
from ..errors import NonFiniteLoss, PhishguardError
from .common import Scorer, Standardizer, TrainConfig, sigmoid, standardization


@dataclass
class MlpModel(Scorer):
    weights: list[np.ndarray]  # W[l] of shape (fan_in, fan_out)
    biases: list[np.ndarray]
    mean: np.ndarray = None
    scale: np.ndarray = None
    feature_names: tuple[str, ...] = ()

    kind = "mlp"

    def __post_init__(self):
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        if not self.weights or any(W.ndim != 2 for W in self.weights):
            raise PhishguardError("an MLP needs one or more 2-D weight matrices")
        shapes = [W.shape for W in self.weights]
        if shapes[-1][1] != 1:
            raise PhishguardError("output layer must have one unit")
        # each layer takes the units of the one before it
        if any(fan_out != fan_in for (_, fan_out), (fan_in, _) in zip(shapes, shapes[1:])):
            raise PhishguardError(f"MLP layers do not chain: weight shapes {shapes}")
        if [b.shape for b in self.biases] != [(fan_out,) for _, fan_out in shapes]:
            raise PhishguardError(f"MLP biases {[b.shape for b in self.biases]} do not "
                                  f"match the layers' units {[s[1] for s in shapes]}")
        if not all(np.all(np.isfinite(p)) for p in (*self.weights, *self.biases)):
            raise PhishguardError("non-finite MLP weights or biases")
        self.mean, self.scale = standardization(self.mean, self.scale, shapes[0][0])

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def _forward(self, X):
        """Each layer's input, X first, and its pre-activation. Hidden
        layers apply ReLU; the output unit's sigmoid is left to the
        caller. einsum reduces each row on its own, so a row's bits do
        not depend on its batch or on the BLAS thread count."""
        inputs, pre = [X], []
        for W, b in zip(self.weights, self.biases):
            if pre:
                inputs.append(np.maximum(pre[-1], 0.0))
            pre.append(np.einsum("ij,jk->ik", inputs[-1], W) + b)
        return inputs, pre

    def _logits(self, X):
        """The output unit's pre-activation."""
        return self._forward((X - self.mean) / self.scale)[1][-1][:, 0]


def bce_loss(y_true, y_prob) -> float:
    """Binary cross-entropy -[y log p + (1-y) log(1-p)], averaged."""
    y_true = np.asarray(y_true, dtype=float)
    p = np.clip(np.asarray(y_prob, dtype=float), 1e-12, 1 - 1e-12)
    return float(-np.mean(y_true * np.log(p) + (1 - y_true) * np.log(1 - p)))


def loss_and_gradients(model: MlpModel, X, y):
    """Mean BCE over the batch and analytic gradients per layer.

    X is expected in the model's standardized space (i.e. already
    (x - mean) / scale); training handles that internally.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    inputs, pre = model._forward(np.asarray(X, dtype=float))
    p = sigmoid(pre[-1][:, 0])
    loss = bce_loss(y, p)

    grads_W = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    # output delta: dL/dz = (p - y) / n for sigmoid + BCE
    delta = ((p - y) / n)[:, None]
    for l in range(len(model.weights) - 1, -1, -1):
        grads_W[l] = np.einsum("ni,nk->ik", inputs[l], delta)
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = np.einsum("nk,ik->ni", delta, model.weights[l]) * (pre[l - 1] > 0)
    return loss, grads_W, grads_b


def train_mlp(
    ds: Dataset,
    layer_sizes: list[int],
    cfg: TrainConfig | None = None,
    early_stopping: bool = True,
) -> MlpModel:
    """Adam on BCE; early stopping on a seeded 10% validation split."""
    cfg = cfg or TrainConfig(max_epochs=300, learning_rate=0.01)
    if layer_sizes[-1] != 1:
        raise PhishguardError("layer_sizes must end in 1")

    scaler = Standardizer().fit(ds.X)
    X = scaler.transform(ds.X)
    y = ds.y.astype(float)

    rng = np.random.default_rng(cfg.seed)
    sizes = [X.shape[1]] + list(layer_sizes)
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / sizes[l]), size=(sizes[l], sizes[l + 1]))
        for l in range(len(sizes) - 1)
    ]
    biases = [np.zeros(sizes[l + 1]) for l in range(len(sizes) - 1)]
    model = MlpModel(weights, biases, feature_names=ds.feature_names)

    if early_stopping and len(y) >= 10:
        order = rng.permutation(len(y))
        n_val = max(1, len(y) // 10)
        val_idx, train_idx = order[:n_val], order[n_val:]
    else:
        val_idx = np.array([], dtype=int)
        train_idx = np.arange(len(y))
    X_train, y_train = X[train_idx], y[train_idx]
    X_val, y_val = X[val_idx], y[val_idx]

    # Adam state, one moment array per parameter array
    params = [*weights, *biases]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_val = np.inf
    best_params = None
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        loss, grads_W, grads_b = loss_and_gradients(model, X_train, y_train)
        if not np.isfinite(loss):
            raise NonFiniteLoss("MLP training loss became non-finite")
        for i, (p, g) in enumerate(zip(params, [*grads_W, *grads_b])):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g ** 2
            m_hat = m[i] / (1 - beta1 ** epoch)
            v_hat = v[i] / (1 - beta2 ** epoch)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

        if len(val_idx):
            val_loss = bce_loss(y_val, sigmoid(model._forward(X_val)[1][-1][:, 0]))
            if val_loss < best_val - 1e-9:
                best_val = val_loss
                best_params = [p.copy() for p in params]
                stale = 0
            else:
                stale += 1
                if stale >= cfg.early_stop_patience:
                    break

    if best_params is not None:
        layers = len(weights)
        model.weights, model.biases = best_params[:layers], best_params[layers:]
    model.mean, model.scale = scaler.mean, scaler.scale
    return model

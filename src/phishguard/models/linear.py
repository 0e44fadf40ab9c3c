"""Linear classifiers trained by full-batch gradient descent.

Losses: logistic (binary cross-entropy), hinge, squared. Regularizers:
none, l1, l2, elastic. L1 is handled by proximal soft-thresholding after
each gradient step, so no subgradient hackery is needed. A seeded SGD
schedule trains the unregularized logistic loss (the `sgd` kind).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets import Dataset
from ..errors import (
    InvalidM,
    NonFiniteLoss,
    PhishguardError,
    SingleClassDataset,
)
from .common import (Scorer, Standardizer, TrainConfig, sigmoid, standardization,
                     stratified_fold_indices)

LOSSES = ("logistic", "hinge", "squared")
REGULARIZERS = ("none", "l1", "l2", "elastic")


@dataclass
class LinearModel(Scorer):
    weights: np.ndarray
    bias: float
    loss: str = "logistic"
    regularization: str = "none"
    l1: float = 0.0
    l2: float = 0.0
    mean: np.ndarray = field(default=None)
    scale: np.ndarray = field(default=None)
    feature_names: tuple[str, ...] = ()

    kind = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1:
            raise PhishguardError(f"linear weights must be a vector, not of shape "
                                  f"{self.weights.shape}")
        self.mean, self.scale = standardization(self.mean, self.scale, len(self.weights))
        if not np.all(np.isfinite(self.weights)) or not np.isfinite(self.bias):
            raise PhishguardError("non-finite linear model parameters")

    @property
    def n_features(self) -> int:
        return len(self.weights)

    def _logits(self, X):
        return np.einsum("ij,j->i", (X - self.mean) / self.scale, self.weights) + self.bias


def _loss_and_grad(w, b, X, y, loss: str, l2: float):
    """Mean loss over the batch plus the smooth l2 term, with gradients.

    y is in {0,1}; hinge uses the +-1 encoding internally.
    """
    n = len(y)
    margins = X @ w + b
    if loss == "logistic":
        p = sigmoid(margins)
        eps = 1e-12
        residual = (p - y) / n
        mean_loss = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
    elif loss == "squared":
        target = 2.0 * y - 1.0
        diff = margins - target
        residual = diff / n
        mean_loss = 0.5 * np.mean(diff ** 2)
    elif loss == "hinge":
        target = 2.0 * y - 1.0
        slack = np.maximum(0.0, 1.0 - target * margins)
        residual = np.where(slack > 0, -target, 0.0) / n
        mean_loss = np.mean(slack)
    else:
        raise PhishguardError(f"unknown loss {loss!r}")
    grad_w = X.T @ residual + l2 * w
    grad_b = float(np.sum(residual))
    return mean_loss + 0.5 * l2 * float(w @ w), grad_w, grad_b


def _soft_threshold(w, amount):
    return np.sign(w) * np.maximum(np.abs(w) - amount, 0.0)


def train_linear(
    ds: Dataset,
    loss: str = "logistic",
    regularization: str = "none",
    l1: float = 0.0,
    l2: float = 0.0,
    cfg: TrainConfig | None = None,
    sgd: bool = False,
) -> LinearModel:
    """Minimize the regularized empirical risk with deterministic
    full-batch descent (backtracking line search), or, when `sgd` is
    set, the unregularized logistic loss with a seeded SGD schedule."""
    cfg = cfg or TrainConfig()
    if loss not in LOSSES:
        raise PhishguardError(f"unknown loss {loss!r}")
    if regularization not in REGULARIZERS:
        raise PhishguardError(f"unknown regularization {regularization!r}")
    if sgd and (loss, regularization) != ("logistic", "none"):
        raise PhishguardError("SGD trains the logistic loss with no regularization only")
    if regularization == "none":
        l1 = l2 = 0.0
    elif regularization == "l1":
        l2 = 0.0
    elif regularization == "l2":
        l1 = 0.0

    classes = sorted(set(ds.y.tolist()))
    if len(classes) < 2:
        raise SingleClassDataset(f"labels present: {classes}")

    scaler = Standardizer().fit(ds.X)
    X = scaler.transform(ds.X)
    y = ds.y.astype(float)

    d = X.shape[1]
    w = np.zeros(d)
    b = 0.0

    if sgd:
        w, b = _run_sgd(X, y, w, b, cfg)
    else:
        w, b = _run_batch(X, y, w, b, loss, l1, l2, cfg)

    if not (np.all(np.isfinite(w)) and np.isfinite(b)):
        raise NonFiniteLoss("training diverged; lower the learning rate")
    return LinearModel(
        weights=w,
        bias=b,
        loss=loss,
        regularization=regularization,
        l1=l1,
        l2=l2,
        mean=scaler.mean,
        scale=scaler.scale,
        feature_names=ds.feature_names,
    )


def _run_batch(X, y, w, b, loss, l1, l2, cfg):
    step = 1.0
    value, grad_w, grad_b = _loss_and_grad(w, b, X, y, loss, l2)
    for _ in range(cfg.max_epochs):
        # backtracking line search on the smooth part (Armijo)
        grad_sq = float(grad_w @ grad_w) + grad_b ** 2
        if grad_sq < 1e-18 and l1 == 0.0:
            break
        while True:
            w_new = _soft_threshold(w - step * grad_w, step * l1)
            b_new = b - step * grad_b
            new_value, new_gw, new_gb = _loss_and_grad(w_new, b_new, X, y, loss, l2)
            if not np.isfinite(new_value):
                raise NonFiniteLoss("objective became non-finite")
            if new_value <= value - 1e-4 * step * grad_sq or step < 1e-12:
                break
            step *= 0.5
        if l1 == 0.0 and abs(value - new_value) < 1e-12 * max(1.0, abs(value)):
            w, b, value, grad_w, grad_b = w_new, b_new, new_value, new_gw, new_gb
            break
        moved = float(np.abs(w_new - w).max()) + abs(b_new - b)
        w, b, value, grad_w, grad_b = w_new, b_new, new_value, new_gw, new_gb
        step *= 2.0  # let the step recover after backtracks
        if l1 > 0.0 and moved < 1e-12:
            break
    return w, b


def _run_sgd(X, y, w, b, cfg):
    """Logistic-loss steps on one row at a time, in a fresh seeded order
    each epoch, with the learning rate decaying as 1 / (1 + 1e-3 t)."""
    rng = np.random.default_rng(cfg.seed)
    n = len(y)
    t = 0
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            lr = cfg.learning_rate / (1.0 + 1e-3 * t)
            xi = X[i : i + 1]
            residual = sigmoid(xi @ w + b) - y[i : i + 1]
            w = w - lr * (xi.T @ residual)
            b -= lr * float(residual[0])
        if not (np.all(np.isfinite(w)) and np.isfinite(b)):
            raise NonFiniteLoss("SGD diverged")
    return w, b


def average_fold_coefficients(ds: Dataset, cfg: TrainConfig | None = None) -> np.ndarray:
    """Mean of per-fold logistic coefficients over stratified folds.

    Each fold's model is fit on the fold's complement.
    """
    cfg = cfg or TrainConfig()
    folds = stratified_fold_indices(ds.y, cfg.folds, cfg.seed)
    weight_sum = np.zeros(ds.X.shape[1])
    for fold in folds:
        keep = np.ones(len(ds), dtype=bool)
        keep[fold] = False
        train_idx = np.flatnonzero(keep)
        model = train_linear(ds.subset(train_idx), loss="logistic", cfg=cfg)
        weight_sum += model.weights
    return weight_sum / cfg.folds


def select_features_by_coefficient(w_bar, m: int) -> list[int]:
    """Indices of the m largest |w|, descending; ties prefer lower index."""
    w_bar = np.asarray(w_bar, dtype=float)
    if not 1 <= m <= len(w_bar):
        raise InvalidM(f"m must be in [1, {len(w_bar)}], got {m}")
    order = sorted(range(len(w_bar)), key=lambda j: (-abs(w_bar[j]), j))
    return order[:m]

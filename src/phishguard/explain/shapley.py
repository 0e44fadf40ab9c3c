"""Shapley-value attributions: exact enumeration, the linear closed form,
and a Monte-Carlo permutation estimate.

Absent features are imputed with the background mean, so all three
methods estimate the same quantity and can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..datasets import Dataset
from ..errors import DimensionMismatch, TooManyFeatures
from ..models.linear import LinearModel


@dataclass
class ShapExplanation:
    base_value: float
    attributions: np.ndarray
    method: str  # exact | linear | sampled
    standard_errors: np.ndarray | None = None

    @property
    def total(self) -> float:
        return float(self.base_value + self.attributions.sum())


def _as_scorer(scorer):
    """Accept a trained model or a callable over (n, d) matrices."""
    if callable(scorer):
        return scorer
    return lambda X: np.asarray(scorer.predict_proba(X))


def _background_mean(background) -> np.ndarray:
    if isinstance(background, Dataset):
        return background.X.mean(axis=0)
    arr = np.asarray(background, dtype=float)
    if arr.ndim == 2:
        return arr.mean(axis=0)
    return arr


# the most features shap_exact enumerates: 2^15 rows
EXACT_FEATURE_CAP = 15


def shap_exact(scorer, x, background) -> ShapExplanation:
    """Full 2^n subset enumeration with the combinatorial Shapley weight,
    for at most EXACT_FEATURE_CAP features."""
    f = _as_scorer(scorer)
    x = np.asarray(x, dtype=float)
    mu = _background_mean(background)
    n = len(x)
    if n > EXACT_FEATURE_CAP:
        raise TooManyFeatures(f"{n} features exceeds the enumeration cap {EXACT_FEATURE_CAP}")
    if len(mu) != n:
        raise DimensionMismatch("background dimension differs from x")

    n_subsets = 1 << n
    # row s imputes features absent from bitmask s with the background mean
    rows = np.tile(mu, (n_subsets, 1))
    masks = (np.arange(n_subsets)[:, None] >> np.arange(n)) & 1
    rows = np.where(masks.astype(bool), x, rows)
    values = np.asarray(f(rows), dtype=float)

    fact = [factorial(i) for i in range(n + 1)]
    size = masks.sum(axis=1)
    phis = np.zeros(n)
    for j in range(n):
        bit = 1 << j
        without = np.flatnonzero((np.arange(n_subsets) & bit) == 0)
        s = size[without]
        weight = np.array(
            [fact[si] * fact[n - si - 1] / fact[n] for si in s]
        )
        phis[j] = float(np.sum(weight * (values[without | bit] - values[without])))
    return ShapExplanation(
        base_value=float(values[0]), attributions=phis, method="exact"
    )


def shap_linear(model: LinearModel, x, background) -> ShapExplanation:
    """Closed form on the logit scale: phi_j = w_j (x_j - mu_j), with the
    model's internal standardization folded in."""
    x = np.asarray(x, dtype=float)
    mu = _background_mean(background)
    if len(x) != model.n_features or len(mu) != model.n_features:
        raise DimensionMismatch("x/background dimension differs from the model")
    effective_w = model.weights / model.scale
    phis = effective_w * (x - mu)
    base = float(effective_w @ (mu - model.mean) + model.bias)
    return ShapExplanation(base_value=base, attributions=phis, method="linear")


def shap_sampled(scorer, x, background, n_samples: int = 1000, seed: int = 0) -> ShapExplanation:
    """Monte-Carlo permutation estimate with per-feature standard errors."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    f = _as_scorer(scorer)
    x = np.asarray(x, dtype=float)
    mu = _background_mean(background)
    n = len(x)
    rng = np.random.default_rng(seed)

    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    batch = 512
    done = 0
    base_value = float(np.asarray(f(mu[None, :]))[0])
    while done < n_samples:
        b = min(batch, n_samples - done)
        perms = np.stack([rng.permutation(n) for _ in range(b)])
        # rows: for each permutation, n+1 prefix states from empty to
        # full; state k takes x on the features of rank below k
        ranks = np.argsort(perms, axis=1)
        rows = np.where(ranks[:, None, :] < np.arange(n + 1)[None, :, None], x, mu)
        values = np.asarray(f(rows.reshape(b * (n + 1), n))).reshape(b, n + 1)
        deltas = np.diff(values, axis=1)  # contribution of perms[:, step]
        for step in range(n):
            js = perms[:, step]
            np.add.at(sums, js, deltas[:, step])
            np.add.at(sq_sums, js, deltas[:, step] ** 2)
        done += b

    phis = sums / n_samples
    variance = np.maximum(sq_sums / n_samples - phis ** 2, 0.0)
    se = np.sqrt(variance / n_samples)
    return ShapExplanation(
        base_value=base_value,
        attributions=phis,
        method=f"sampled(n={n_samples}, seed={seed})",
        standard_errors=se,
    )

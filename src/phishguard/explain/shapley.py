"""Shapley-value attributions: exact enumeration, the linear closed form,
and a Monte-Carlo permutation estimate.

Absent features are imputed with the background mean, so all three
methods estimate the same quantity and can be checked against each other.
The scorer is a callable over (n, d) matrices; the background is a
baseline row, or a matrix whose column means are the baseline.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from ..errors import DimensionMismatch, TooManyFeatures
from ..models.linear import LinearModel


def _background_mean(background) -> np.ndarray:
    arr = np.asarray(background, dtype=float)
    if arr.ndim == 2:
        return arr.mean(axis=0)
    return arr


# the most features shap_exact enumerates: 2^15 rows
EXACT_FEATURE_CAP = 15


def shap_exact(scorer, x, background) -> np.ndarray:
    """Full 2^n subset enumeration with the combinatorial Shapley weight,
    for at most EXACT_FEATURE_CAP features."""
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
    values = np.asarray(scorer(rows), dtype=float)

    fact = [factorial(i) for i in range(n + 1)]
    # the Shapley weight of a subset of s features that lacks feature j
    by_size = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    size = masks.sum(axis=1)
    phis = np.zeros(n)
    for j in range(n):
        bit = 1 << j
        without = np.flatnonzero((np.arange(n_subsets) & bit) == 0)
        weight = by_size[size[without]]
        phis[j] = float(np.sum(weight * (values[without | bit] - values[without])))
    return phis


def shap_linear(model: LinearModel, x, background) -> np.ndarray:
    """Closed form on the logit scale: phi_j = w_j (x_j - mu_j), with the
    model's internal standardization folded in."""
    x = np.asarray(x, dtype=float)
    mu = _background_mean(background)
    if len(x) != model.n_features or len(mu) != model.n_features:
        raise DimensionMismatch("x/background dimension differs from the model")
    effective_w = model.weights / model.scale
    return effective_w * (x - mu)


def shap_sampled(scorer, x, background, n_samples: int = 1000,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo permutation estimate: (attributions, per-feature
    standard errors)."""
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    x = np.asarray(x, dtype=float)
    mu = _background_mean(background)
    n = len(x)
    rng = np.random.default_rng(seed)

    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    batch = 512
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        perms = np.stack([rng.permutation(n) for _ in range(b)])
        # rows: for each permutation, n+1 prefix states from empty to
        # full; state k takes x on the features of rank below k
        ranks = np.argsort(perms, axis=1)
        rows = np.where(ranks[:, None, :] < np.arange(n + 1)[None, :, None], x, mu)
        values = np.asarray(scorer(rows.reshape(b * (n + 1), n))).reshape(b, n + 1)
        deltas = np.diff(values, axis=1)  # contribution of perms[:, step]
        for step in range(n):
            js = perms[:, step]
            np.add.at(sums, js, deltas[:, step])
            np.add.at(sq_sums, js, deltas[:, step] ** 2)
        done += b

    phis = sums / n_samples
    variance = np.maximum(sq_sums / n_samples - phis ** 2, 0.0)
    return phis, np.sqrt(variance / n_samples)

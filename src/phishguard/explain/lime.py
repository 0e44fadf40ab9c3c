"""Local linear surrogates fitted to proximity-weighted perturbations."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..datasets import distinct_rows
from ..errors import DegeneratePerturbations
from ..models.common import Standardizer

# the surrogate's ridge penalty
PENALTY = 1e-3


@lru_cache(maxsize=16)
def _perturbation_plan(seed, n_perturb: int, d: int, n_background: int):
    """Which cells each perturbation resamples, and from which background
    row: read-only, since every call with the same key shares them."""
    rng = np.random.default_rng(seed)
    flips = rng.random((n_perturb, d)) < 0.5
    rows = rng.integers(0, n_background, size=(n_perturb, d))
    flips.flags.writeable = rows.flags.writeable = False
    return flips, rows


def lime_explain(
    scorer,
    x,
    background,
    n_perturb: int = 500,
    seed: int = 0,
) -> np.ndarray:
    """The coefficients, one per feature, of a weighted ridge surrogate
    fitted around x for a scorer over (n, d) matrices.

    Perturbations resample each feature from its marginal in the
    background matrix with probability 1/2; proximity is a Gaussian
    kernel of width 0.75 * sqrt(d) on the Euclidean distance between
    standardized vectors. The perturbation plan is drawn once per (seed,
    n_perturb, d, background rows). The scorer must score a row to the
    same bits in any batch, as every model's `predict_proba` does
    (`models.common.Scorer`): it sees each bit-distinct perturbation
    once, with the same result as scoring them all.
    """
    if n_perturb < 50:
        raise ValueError("n_perturb must be >= 50")
    x = np.asarray(x, dtype=float)
    B = np.asarray(background, dtype=float)
    d = len(x)
    kernel_width = 0.75 * np.sqrt(d)

    flips, rows = _perturbation_plan(seed, n_perturb, d, len(B))
    draws = B[rows, np.arange(d)]
    Z = np.where(flips, draws, x)
    if np.all(Z == Z[0]):
        raise DegeneratePerturbations("all perturbations are identical")

    scaler = Standardizer().fit(B)
    Zs = scaler.transform(Z)
    xs = scaler.transform(x)
    dist_sq = ((Zs - xs) ** 2).sum(axis=1)
    proximity = np.exp(-dist_sq / kernel_width ** 2)

    first, inverse = distinct_rows(Z)
    targets = np.asarray(scorer(Z[first]), dtype=float)[inverse]
    # weighted ridge on [Zs | 1]; the intercept column is not penalized
    design = np.hstack([Zs, np.ones((n_perturb, 1))])
    W = proximity[:, None]
    gram = design.T @ (W * design)
    reg = PENALTY * np.eye(d + 1)
    reg[d, d] = 0.0
    coef = np.linalg.solve(gram + reg, design.T @ (proximity * targets))
    return coef[:d]

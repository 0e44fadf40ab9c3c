"""Local linear surrogates fitted to proximity-weighted perturbations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import Dataset
from ..errors import DegeneratePerturbations
from .shapley import _as_scorer


@dataclass
class LimeExplanation:
    weights: np.ndarray  # surrogate coefficients, one per feature
    intercept: float
    kernel_width: float
    n_perturbations: int
    penalty: float
    seed: int

    def ranking(self) -> list[int]:
        """Feature indices sorted by |weight| descending."""
        return sorted(range(len(self.weights)), key=lambda j: -abs(self.weights[j]))


def lime_explain(
    scorer,
    x,
    background,
    n_perturb: int = 500,
    kernel_width: float | None = None,
    penalty: float = 1e-3,
    seed: int = 0,
) -> LimeExplanation:
    """Fit a weighted ridge surrogate around x.

    Perturbations resample each feature from its background marginal with
    probability 1/2; proximity is a Gaussian kernel on the Euclidean
    distance between standardized vectors.
    """
    if n_perturb < 50:
        raise ValueError("n_perturb must be >= 50")
    f = _as_scorer(scorer)
    x = np.asarray(x, dtype=float)
    B = background.X if isinstance(background, Dataset) else np.asarray(background, dtype=float)
    if B.ndim == 1:
        B = B[None, :]
    d = len(x)
    if kernel_width is None:
        kernel_width = 0.75 * np.sqrt(d)

    rng = np.random.default_rng(seed)
    flips = rng.random((n_perturb, d)) < 0.5
    draws = B[rng.integers(0, len(B), size=(n_perturb, d)), np.arange(d)]
    Z = np.where(flips, draws, x)
    if np.all(Z == Z[0]):
        raise DegeneratePerturbations("all perturbations are identical")

    mean = B.mean(axis=0)
    std = B.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Zs = (Z - mean) / std
    xs = (x - mean) / std
    dist_sq = ((Zs - xs) ** 2).sum(axis=1)
    proximity = np.exp(-dist_sq / kernel_width ** 2)

    targets = np.asarray(f(Z), dtype=float)
    # weighted ridge on [Zs | 1]; the intercept column is not penalized
    design = np.hstack([Zs, np.ones((n_perturb, 1))])
    W = proximity[:, None]
    gram = design.T @ (W * design)
    reg = penalty * np.eye(d + 1)
    reg[d, d] = 0.0
    coef = np.linalg.solve(gram + reg, design.T @ (proximity * targets))
    return LimeExplanation(
        weights=coef[:d],
        intercept=float(coef[d]),
        kernel_width=float(kernel_width),
        n_perturbations=n_perturb,
        penalty=penalty,
        seed=seed,
    )

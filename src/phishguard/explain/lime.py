"""Local linear surrogates fitted to proximity-weighted perturbations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

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


@lru_cache(maxsize=16)
def _perturbation_plan(seed, n_perturb: int, d: int, n_background: int):
    """Which cells each perturbation resamples, and from which background
    row: read-only, since every call with the same key shares them."""
    rng = np.random.default_rng(seed)
    flips = rng.random((n_perturb, d)) < 0.5
    rows = rng.integers(0, n_background, size=(n_perturb, d))
    flips.flags.writeable = rows.flags.writeable = False
    return flips, rows


def _scores_rows_independently(scorer) -> bool:
    """Whether the scorer gives a row the same bits in any batch, one row
    included. Tree models declare it; matrix-vector products (linear,
    MLP) round a row differently by its place in the batch, and a plain
    callable is not assumed to."""
    model = getattr(scorer, "__self__", scorer)
    return getattr(model, "scores_rows_independently", False)


@lru_cache(maxsize=16)
def _key_multipliers(d: int) -> np.ndarray:
    # any values are correct, since keys only order rows and every merge
    # is checked bit for bit; random odd ones make unequal rows collide
    # (and so possibly miss a merge) about never
    multipliers = np.random.default_rng(d).integers(
        1, 2 ** 63, size=d, dtype=np.uint64) | np.uint64(1)
    multipliers.flags.writeable = False
    return multipliers


def _distinct_rows(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse): the index of one row per bit-distinct row of Z,
    and each row's place in `first`, so Z[first][inverse] is Z bit for
    bit."""
    bits = np.ascontiguousarray(Z).view(np.uint64)
    # fold the high half down (small floats such as -1.0 and 1.0 differ
    # only there), then a key in wrapping uint64 arithmetic, so
    # bit-equal rows get equal keys
    keys = (bits ^ (bits >> np.uint64(32))) @ _key_multipliers(bits.shape[1])
    order = np.argsort(keys, kind="stable")
    ordered = bits[order]
    starts = np.ones(len(Z), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(Z), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


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
    distance between standardized vectors. The perturbation plan is drawn
    once per (seed, n_perturb, d, background rows); a scorer that scores
    rows independently (tree models) sees each bit-distinct perturbation
    once, with the same result as scoring them all.
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

    plan = _perturbation_plan
    if not isinstance(seed, Integral):
        plan = plan.__wrapped__  # None or a Generator draws afresh each call
    flips, rows = plan(seed, n_perturb, d, len(B))
    draws = B[rows, np.arange(d)]
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

    if _scores_rows_independently(scorer):
        first, inverse = _distinct_rows(Z)
        targets = np.asarray(f(Z[first]), dtype=float)[inverse]
    else:
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

"""Hybrid feature fusion: composite weights from information gain and
Shapley importance magnitudes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyFeatureSets, PhishguardError


@dataclass
class FusionWeights:
    f_ig: frozenset[str]
    f_xai: frozenset[str]
    f_final: frozenset[str]
    weights: dict[str, float]

    def vector(self, feature_names) -> np.ndarray:
        """Per-feature weights in the given order; a feature outside
        F_final weighs 0, so a ranking by weight never leads with it."""
        return np.array(
            [self.weights.get(name, 0.0) for name in feature_names]
        )


def _minmax(values: dict[str, float]) -> dict[str, float]:
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
    span = hi - lo
    if span == 0:
        return {k: 0.0 for k in values}
    return {k: (v - lo) / span for k, v in values.items()}


def _median(values) -> float:
    """np.median of a non-empty sequence, NaN if any value is NaN: the
    middle value, or the mean of the two middle values as np.median
    takes it. np.median's NaN check imports numpy.ma, 8 ms at startup."""
    ordered = sorted(map(float, values))
    if any(map(math.isnan, ordered)):
        return math.nan
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _above_median(values: dict[str, float]) -> frozenset[str]:
    median = _median(values.values())
    return frozenset(k for k, v in values.items() if v > median)


def fuse_weights(
    ig: dict[str, float], shap_importance: dict[str, float], alpha: float = 0.5
) -> FusionWeights:
    """w_j = alpha * IG_j + beta * |phi_j| over F_IG union F_XAI.

    IG and |phi| are min-max normalized first since bits and logits are
    not commensurable. A side's term is zero for features the side did
    not select.
    """
    if not 0.0 <= alpha <= 1.0:
        raise PhishguardError("alpha must be in [0, 1]")
    beta = 1.0 - alpha
    abs_phi = {k: abs(v) for k, v in shap_importance.items()}
    f_ig = _above_median(ig) if ig else frozenset()
    f_xai = _above_median(abs_phi) if abs_phi else frozenset()
    f_final = f_ig | f_xai
    if not f_final:
        raise EmptyFeatureSets("no features above either median")

    norm_ig = _minmax(ig)
    norm_phi = _minmax(abs_phi)
    weights = {}
    for name in sorted(f_final):
        ig_term = norm_ig.get(name, 0.0) if name in f_ig else 0.0
        phi_term = norm_phi.get(name, 0.0) if name in f_xai else 0.0
        weights[name] = alpha * ig_term + beta * phi_term
    return FusionWeights(
        f_ig=f_ig,
        f_xai=f_xai,
        f_final=f_final,
        weights=weights,
    )

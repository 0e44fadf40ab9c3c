"""Attribution methods: information gain, Shapley values, LIME, fusion."""

from .fusion import FusionWeights, fuse_weights
from .infogain import entropy, information_gain, information_gain_all
from .lime import lime_explain
from .shapley import shap_exact, shap_linear, shap_sampled

__all__ = [
    "FusionWeights",
    "fuse_weights",
    "entropy",
    "information_gain",
    "information_gain_all",
    "lime_explain",
    "shap_exact",
    "shap_linear",
    "shap_sampled",
]

"""Attribution methods: information gain, Shapley values, LIME, fusion."""

from .fusion import FusionWeights, fuse_weights
from .infogain import entropy, information_gain, information_gain_all
from .lime import LimeExplanation, lime_explain
from .shapley import ShapExplanation, shap_exact, shap_linear, shap_sampled

__all__ = [
    "FusionWeights",
    "fuse_weights",
    "entropy",
    "information_gain",
    "information_gain_all",
    "LimeExplanation",
    "lime_explain",
    "ShapExplanation",
    "shap_exact",
    "shap_linear",
    "shap_sampled",
]

"""Trainable models: linear, decision tree, ensembles, MLP."""

from .common import Standardizer, TrainConfig, sigmoid, stratified_fold_indices
from .ensemble import Ensemble, train_forest, train_gbt
from .linear import (
    LinearModel,
    average_fold_coefficients,
    select_features_by_coefficient,
    train_linear,
)
from .mlp import MlpModel, bce_loss, loss_and_gradients, train_mlp
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .tree import DecisionTree, build_tree, train_tree

__all__ = [
    "Standardizer",
    "TrainConfig",
    "sigmoid",
    "stratified_fold_indices",
    "Ensemble",
    "train_forest",
    "train_gbt",
    "LinearModel",
    "average_fold_coefficients",
    "select_features_by_coefficient",
    "train_linear",
    "MlpModel",
    "bce_loss",
    "loss_and_gradients",
    "train_mlp",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "save_model",
    "DecisionTree",
    "build_tree",
    "train_tree",
]

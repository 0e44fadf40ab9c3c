"""Confusion-matrix statistics, ROC/AUC, and cross-validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import EmptyInput, InfiniteCell, LengthMismatch, PhishguardError, SingleClassInput
from .models.common import stratified_fold_indices


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class RocCurve:
    points: list[tuple[float, float]]  # (FPR, TPR), thresholds descending
    thresholds: list[float]


@dataclass(frozen=True)
class CvResult:
    scores: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        return float(np.std(self.scores))


def confusion(labels, predictions) -> ConfusionMatrix:
    """Counts with class 1 (phishing) as positive."""
    labels = np.asarray(labels, dtype=int)
    predictions = np.asarray(predictions, dtype=int)
    if len(labels) != len(predictions):
        raise LengthMismatch(f"{len(labels)} labels vs {len(predictions)} predictions")
    if len(labels) == 0:
        raise EmptyInput("no samples")
    tp = int(np.sum((labels == 1) & (predictions == 1)))
    fp = int(np.sum((labels == 0) & (predictions == 1)))
    fn = int(np.sum((labels == 1) & (predictions == 0)))
    tn = int(np.sum((labels == 0) & (predictions == 0)))
    return ConfusionMatrix(tp, fp, fn, tn)


def prf1(cm: ConfusionMatrix) -> dict:
    """Accuracy, precision, recall, F1. A 0/0 division gives 0."""
    if cm.total == 0:
        raise EmptyInput("empty confusion matrix")

    def safe_div(num, den):
        if den == 0:
            return 0.0
        return num / den

    precision = safe_div(cm.tp, cm.tp + cm.fp)
    recall = safe_div(cm.tp, cm.tp + cm.fn)
    f1 = safe_div(2 * precision * recall, precision + recall)
    return {
        "accuracy": (cm.tp + cm.tn) / cm.total,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def roc_auc(labels, scores) -> tuple[RocCurve, float]:
    """ROC over all distinct thresholds; AUC by trapezoidal integration.

    Tied scores move between thresholds together, which makes the
    trapezoid area equal the pairwise-comparison probability with ties
    counted as one half.
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if len(labels) != len(scores):
        raise LengthMismatch(f"{len(labels)} labels vs {len(scores)} scores")
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassInput("both classes must be present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]

    # one point per block of equal scores, after its last sample
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), len(labels) - 1)
    starts = np.concatenate(([0], ends[:-1] + 1))
    tp = np.cumsum(sorted_labels == 1)[ends]
    fp = np.cumsum(sorted_labels == 0)[ends]
    xs = np.concatenate(([0.0], fp / n_neg))
    ys = np.concatenate(([0.0], tp / n_pos))
    points = list(zip(xs.tolist(), ys.tolist()))
    thresholds = [float("inf")] + sorted_scores[starts].tolist()
    # the trapezoid rule as numpy's trapezoid computes it; that function
    # is missing before numpy 2.0
    auc = float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())
    return RocCurve(points, thresholds), auc


def auc_pairwise(labels, scores) -> float:
    """Brute-force pairwise oracle: P(score_pos > score_neg) with ties
    counted 1/2. Kept independent of the trapezoid path on purpose."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise SingleClassInput("both classes must be present")
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(wins / (len(pos) * len(neg)))


def accuracy_metric(labels, probabilities) -> float:
    predictions = (np.asarray(probabilities) >= 0.5).astype(int)
    return prf1(confusion(labels, predictions))["accuracy"]


def auc_metric(labels, probabilities) -> float:
    return roc_auc(labels, probabilities)[1]


def cross_validate(trainer, ds: Dataset, metrics: dict, k: int = 5,
                   seed: int = 0) -> dict[str, CvResult]:
    """Train on each fold complement, score the held-out fold.

    `trainer(train_ds)` returns a model with predict_proba; each of
    `metrics`, a dict of functions `metric(labels, probabilities)` that
    return a scalar, scores the same k fold models. The result holds a
    `CvResult` under each metric's key.
    """
    folds = stratified_fold_indices(ds.y, k, seed)
    all_idx = np.arange(len(ds))
    scores = {name: [] for name in metrics}
    for fold_no, fold in enumerate(folds):
        train_idx = np.setdiff1d(all_idx, fold)
        try:
            model = trainer(ds.subset(train_idx))
            probs = model.predict_proba(ds.X[fold])
            for name, score in metrics.items():
                scores[name].append(float(score(ds.y[fold], probs)))
        except PhishguardError as exc:
            if isinstance(exc, InfiniteCell):  # name the dataset's row
                exc = InfiniteCell(int(train_idx[exc.row]), exc.column, exc.value,
                                   "the dataset")
            # prefix the message in place: not every error class can be
            # rebuilt from one message string
            exc.args = (f"fold {fold_no}: {exc}",)
            raise exc
    return {name: CvResult(values) for name, values in scores.items()}


def metrics_table(rows: dict[str, dict]) -> str:
    """Aligned plain-text table with the standard column order."""
    columns = ("Accuracy", "Precision", "Recall", "F1", "ROC AUC")
    keys = ("accuracy", "precision", "recall", "f1", "auc")
    width = max(len(name) for name in rows) if rows else 5
    header = "Model".ljust(width) + "".join(c.rjust(12) for c in columns)
    lines = [header]
    for name, values in rows.items():
        cells = "".join(f"{values.get(k, float('nan')):12.4f}" for k in keys)
        lines.append(name.ljust(width) + cells)
    return "\n".join(lines)

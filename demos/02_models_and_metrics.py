"""Train each model family on a ternary dataset and compare them with
stratified cross-validation.

Run:  python3 demos/02_models_and_metrics.py
"""

import numpy as np

from phishguard.datasets import Dataset
from phishguard.features import CANONICAL_FEATURES
from phishguard.metrics import (
    accuracy_metric,
    auc_metric,
    confusion,
    cross_validate,
    metrics_table,
    prf1,
    roc_auc,
)
from phishguard.models import (
    TrainConfig,
    train_forest,
    train_gbt,
    train_linear,
    train_mlp,
    train_tree,
)


def make_dataset(n=800, seed=0):
    """Ternary features, label driven by the first eight columns."""
    rng = np.random.default_rng(seed)
    X = rng.choice([-1, 0, 1], size=(n, 23)).astype(float)
    weights = np.zeros(23)
    weights[:8] = rng.uniform(0.8, 2.0, size=8)
    y = (X @ weights + rng.normal(0, 1, size=n) > 0).astype(int)
    return Dataset(X, y, CANONICAL_FEATURES)


ds = make_dataset()

trainers = {
    "logistic": lambda d: train_linear(d, loss="logistic"),
    "svm (hinge)": lambda d: train_linear(d, loss="hinge",
                                          regularization="l2", l2=1e-3),
    "tree": lambda d: train_tree(d, max_depth=8),
    "forest": lambda d: train_forest(d, n_trees=50, seed=0),
    "extra-trees": lambda d: train_forest(d, n_trees=50, mode="extra", seed=0),
    "gbt": lambda d: train_gbt(d, n_rounds=100, max_depth=3),
    "mlp": lambda d: train_mlp(d, [16, 1],
                               TrainConfig(max_epochs=200, learning_rate=0.01)),
}

rows = {}
for name, trainer in trainers.items():
    cv = cross_validate(trainer, ds, {"accuracy": accuracy_metric, "auc": auc_metric},
                        k=5, seed=0)
    acc, auc = cv["accuracy"], cv["auc"]
    model = trainer(ds)
    stats = prf1(confusion(ds.y, model.predict(ds.X)))
    stats["accuracy"] = acc.mean  # report held-out, not resubstitution
    stats["auc"] = auc.mean
    rows[name] = stats
    print(f"{name:>12}: cv accuracy {acc.mean:.4f} +- {acc.std:.4f}")

print()
print(metrics_table(rows))

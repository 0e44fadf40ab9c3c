"""Explain a prediction three ways (information gain, Shapley values,
a local surrogate) and fuse the global scores into feature weights.

Run:  python3 demos/03_explanations_and_fusion.py
"""

import numpy as np

from phishguard.datasets import Dataset
from phishguard.explain import (
    fuse_weights,
    information_gain_all,
    lime_explain,
    shap_linear,
    shap_sampled,
)
from phishguard.features import CANONICAL_FEATURES
from phishguard.models import train_linear

rng = np.random.default_rng(0)
X = rng.choice([-1, 0, 1], size=(600, 23)).astype(float)
weights = np.zeros(23)
weights[:8] = rng.uniform(0.8, 2.0, size=8)
y = (X @ weights + rng.normal(0, 1, size=600) > 0).astype(int)
ds = Dataset(X, y, CANONICAL_FEATURES)
model = train_linear(ds)
x = ds.X[0]

# --- information gain: global, model-free --------------------------------
ig = information_gain_all(ds)
top_ig = sorted(ig.items(), key=lambda t: -t[1])[:5]
print("top-5 features by information gain (bits):")
for name, gain in top_ig:
    print(f"  {name:>28}: {gain:.4f}")

# --- Shapley values: local, on the logit scale ---------------------------
# absent features take the background mean, whose score is the base
mean = ds.X.mean(axis=0)
closed = shap_linear(model, x, mean)
sampled, errors = shap_sampled(model.decision_function, x, mean, n_samples=2000, seed=0)
base = float(model.decision_function(mean))
print(f"\nlocal accuracy: base + sum(phi) = {base + closed.sum():.6f}, "
      f"f(x) = {float(model.decision_function(x)):.6f}")
j = int(np.argmax(np.abs(closed)))
print(f"largest attribution: {ds.feature_names[j]} "
      f"closed-form {closed[j]:+.4f}, "
      f"sampled {sampled[j]:+.4f} "
      f"(SE {errors[j]:.4f})")

# --- local surrogate ------------------------------------------------------
lime = lime_explain(model.predict_proba, x, ds.X, n_perturb=1000, seed=0)
print("\nsurrogate top-3 features:",
      [ds.feature_names[k] for k in np.argsort(-np.abs(lime), kind="stable")[:3]])

# --- fusion: composite per-feature weights --------------------------------
importance = {
    name: float(np.mean(np.abs(
        np.array([shap_linear(model, row, mean)[k] for row in ds.X[:100]])
    )))
    for k, name in enumerate(ds.feature_names)
}
fused = fuse_weights(ig, importance, alpha=0.5)
print(f"\nfused feature set has {len(fused.f_final)} members "
      f"(IG side {len(fused.f_ig)}, Shapley side {len(fused.f_xai)})")
for name, w in sorted(fused.weights.items(), key=lambda t: -t[1])[:5]:
    print(f"  {name:>28}: weight {w:.4f}")

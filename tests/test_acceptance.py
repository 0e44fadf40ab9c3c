"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Criteria 1-3 need the published phishing-websites CSV (11,055 rows, 30
features plus a Result column). It is not redistributable with this
repository; point PHISHGUARD_UCI_CSV at a local copy or place it at
data/uci_phishing.csv. Without it those three tests fail with a clear
diagnostic rather than being skipped or faked.
"""

import json
import threading
import time

import numpy as np

from conftest import UCI_DEFAULT, UCI_ENV_VAR, make_ternary_dataset, uci_csv_path
from phishguard.datasets import Dataset, class_distribution, load_csv
from phishguard.explain import (
    entropy,
    information_gain,
    shap_exact,
    shap_linear,
    shap_sampled,
)
from phishguard.features import parse_url
from phishguard.generate import (
    FEATURE_DOMAIN_GENERATORS,
    GenerationConfig,
    count_feature_triggers,
    generate_feature_rich_domains,
    generate_synthetic_urls,
    normalize_url,
)
from phishguard.metrics import auc_pairwise, confusion, prf1, roc_auc
from phishguard.models import LinearModel, train_gbt, train_linear
from phishguard.models.common import stratified_fold_indices
from phishguard.models.mlp import MlpModel, loss_and_gradients
from phishguard.models.tree import build_tree
from phishguard.robustness import (
    AttackSpec,
    apf,
    build_contexts,
    inject_attack,
    run_strategy,
)
from phishguard.server import PhishingServer


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _require_uci(number: int):
    path = uci_csv_path()
    if path is None:
        report(
            number,
            False,
            f"reference CSV unavailable: set {UCI_ENV_VAR} or place the "
            f"11,055-row phishing-websites CSV at {UCI_DEFAULT} "
            "(offline sandbox cannot download it)",
        )
    return path


def _fold_metrics(ds, trainer, folds=5, seed=0):
    """Accuracy and AUC per held-out fold, one training per fold."""
    fold_idx = stratified_fold_indices(ds.y, folds, seed)
    all_idx = np.arange(len(ds))
    accs, aucs = [], []
    for fold in fold_idx:
        train_idx = np.setdiff1d(all_idx, fold)
        model = trainer(ds.subset(train_idx))
        probs = np.asarray(model.predict_proba(ds.X[fold]))
        cm = confusion(ds.y[fold], (probs >= 0.5).astype(int))
        accs.append(prf1(cm)["accuracy"])
        aucs.append(roc_auc(ds.y[fold], probs)[1])
    return float(np.mean(accs)), float(np.mean(aucs)), accs


def test_acceptance_01_uci_ingestion():
    path = _require_uci(1)
    started = time.perf_counter()
    ds = load_csv(path, provenance="UCI")
    elapsed = time.perf_counter() - started
    counts = class_distribution(ds)
    ok = len(ds) == 5849 and counts == (3019, 2830) and elapsed < 5.0
    report(1, ok, f"{len(ds)} unique samples, classes {counts}, {elapsed:.2f}s")


_UCI_LOGREG_ACCS = {}


def test_acceptance_02_uci_logistic_cv():
    path = _require_uci(2)
    ds = load_csv(path, provenance="UCI")
    started = time.perf_counter()
    acc, auc, fold_accs = _fold_metrics(
        ds, lambda d: train_linear(d, loss="logistic"), folds=5, seed=0
    )
    elapsed = time.perf_counter() - started
    _UCI_LOGREG_ACCS["folds"] = fold_accs
    ok = abs(acc - 0.92) <= 0.02 and auc >= 0.95 and elapsed < 60.0
    report(2, ok, f"cv accuracy {acc:.4f} (target 0.92 +- 0.02), "
                  f"auc {auc:.4f} (>= 0.95), {elapsed:.1f}s")


def test_acceptance_03_uci_gbt_cv():
    path = _require_uci(3)
    ds = load_csv(path, provenance="UCI")
    started = time.perf_counter()
    acc, auc, fold_accs = _fold_metrics(
        ds,
        lambda d: train_gbt(d, n_rounds=500, learning_rate=0.1, max_depth=4),
        folds=5,
        seed=0,
    )
    elapsed = time.perf_counter() - started
    logreg_accs = _UCI_LOGREG_ACCS.get("folds")
    if logreg_accs is None:
        _, _, logreg_accs = _fold_metrics(
            ds, lambda d: train_linear(d, loss="logistic"), folds=5, seed=0
        )
    beats_linear = float(np.mean(fold_accs)) > float(np.mean(logreg_accs))
    ok = acc >= 0.94 and auc >= 0.98 and beats_linear and elapsed < 300.0
    report(3, ok, f"cv accuracy {acc:.4f} (>= 0.94), auc {auc:.4f} (>= 0.98), "
                  f"beats linear: {beats_linear}, {elapsed:.0f}s")


def test_acceptance_04_shapley_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_linear = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 11))
        w = rng.normal(size=d)
        bias = float(rng.normal())
        x = rng.normal(size=d)
        B = rng.normal(size=(30, d))
        model = LinearModel(weights=w, bias=bias)
        scorer = lambda X: np.asarray(X) @ w + bias
        exact = shap_exact(scorer, x, B)
        closed = shap_linear(model, x, B)
        worst_linear = max(worst_linear, float(np.max(np.abs(exact - closed))))
    linear_ok = worst_linear < 1e-9

    sampled_ok = True
    for trial in range(20):
        X = rng.choice([-1.0, 0.0, 1.0], size=(60, 8))
        y = rng.integers(0, 2, size=60)
        tree = build_tree(X, y, max_depth=3)
        x = rng.choice([-1.0, 0.0, 1.0], size=8)
        B = rng.choice([-1.0, 0.0, 1.0], size=(30, 8))
        exact = shap_exact(tree.predict_proba, x, B)
        sampled, standard_errors = shap_sampled(tree.predict_proba, x, B,
                                                n_samples=10_000, seed=trial)
        bound = 3 * standard_errors + 1e-9
        if np.any(np.abs(sampled - exact) > bound):
            sampled_ok = False
            break
    elapsed = time.perf_counter() - started
    ok = linear_ok and sampled_ok and elapsed < 120.0
    report(4, ok, f"linear max dev {worst_linear:.2e} (< 1e-9), sampled within "
                  f"3 SE: {sampled_ok}, {elapsed:.0f}s")


def test_acceptance_05_shapley_local_accuracy():
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(1000):
        d = int(rng.integers(2, 9))
        x = rng.normal(size=d)
        B = rng.normal(size=(20, d))
        # phi0 is the score of the baseline, the background's column means
        baseline = B.mean(axis=0)
        if i % 2 == 0:
            w = rng.normal(size=d)
            bias = float(rng.normal())
            model = LinearModel(weights=w, bias=bias)
            phis = shap_linear(model, x, B)
            phi0 = float(model.decision_function(baseline))
            target = float(model.decision_function(x))
        else:
            coef = rng.normal(size=d)

            def scorer(X, c=coef):
                X = np.asarray(X)
                return np.tanh(X @ c) + X[:, 0] * X[:, -1]

            phis = shap_exact(scorer, x, B)
            phi0 = float(scorer(baseline[None, :])[0])
            target = float(scorer(x[None, :])[0])
        worst = max(worst, abs(phi0 + phis.sum() - target))
    ok = worst < 1e-9
    report(5, ok, f"max |phi0 + sum(phi) - f(x)| = {worst:.2e} (< 1e-9) "
                  "over 1000 instances")


def test_acceptance_06_auc_oracle_equivalence():
    rng = np.random.default_rng(2)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = rng.choice([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0], size=n)
        _, trapezoid = roc_auc(labels, scores)
        worst = max(worst, abs(trapezoid - auc_pairwise(labels, scores)))
        checked += 1
    ok = worst < 1e-9
    report(6, ok, f"max |trapezoid - pairwise| = {worst:.2e} (< 1e-9) "
                  "over 1000 instances with ties")


def test_acceptance_07_information_gain_properties():
    rng = np.random.default_rng(3)
    ok = True
    detail = "IG(copy) = H(Y), IG(constant) = 0, 0 <= IG <= H(Y) over 1000 datasets"
    for i in range(1000):
        n = int(rng.integers(4, 40))
        X = rng.choice([-1.0, 0.0, 1.0], size=(n, 3))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # column 0: exact copy of the label; column 1: constant
        X[:, 0] = y
        X[:, 1] = 1.0
        ds = Dataset(X, y, ("copy", "const", "noise"))
        h_y = entropy(y)
        if abs(information_gain(ds, "copy") - h_y) > 1e-12:
            ok, detail = False, f"dataset {i}: IG(label copy) != H(Y)"
            break
        if abs(information_gain(ds, "const")) > 1e-12:
            ok, detail = False, f"dataset {i}: IG(constant) != 0"
            break
        g = information_gain(ds, "noise")
        if not (-1e-12 <= g <= h_y + 1e-12):
            ok, detail = False, f"dataset {i}: IG out of [0, H(Y)]"
            break
    report(7, ok, detail)


def test_acceptance_08_mlp_gradient_check():
    rng = np.random.default_rng(4)
    # two hidden layers, 3-sample batch
    weights = [rng.normal(size=(5, 6)) * 0.5, rng.normal(size=(6, 4)) * 0.5,
               rng.normal(size=(4, 1)) * 0.5]
    biases = [rng.normal(size=6) * 0.1, rng.normal(size=4) * 0.1,
              rng.normal(size=1) * 0.1]
    model = MlpModel(weights, biases)
    X = rng.normal(size=(3, 5))
    y = np.array([1.0, 0.0, 1.0])
    _, grads_W, grads_b = loss_and_gradients(model, X, y)
    eps = 1e-5
    worst = 0.0

    def loss():
        return loss_and_gradients(model, X, y)[0]

    for l in range(3):
        for arr, grads in ((model.weights[l], grads_W[l]),
                           (model.biases[l], grads_b[l])):
            flat = arr.reshape(-1)
            gflat = np.asarray(grads).reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss()
                flat[idx] = orig - eps
                down = loss()
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                denom = max(abs(fd), abs(gflat[idx]), 1e-6)
                worst = max(worst, abs(gflat[idx] - fd) / denom)
    ok = worst < 1e-4
    report(8, ok, f"max relative gradient error {worst:.2e} (< 1e-4), "
                  "2 hidden layers, batch of 3")


def test_acceptance_09_mcp_serial_equivalence():
    started = time.perf_counter()
    ds = make_ternary_dataset(n=300, seed=0)
    urls = [f"http://host{i}.example.com/path{i}?q={i}" for i in range(64)]

    def run_serial():
        server = PhishingServer(train_linear(ds))
        lines = [server.handle_line(json.dumps(
            {"id": f"req-{i}", "tool": "classify_url",
             "arguments": {"url": urls[i]}})) for i in range(64)]
        return server, lines

    _, serial_lines = run_serial()

    server = PhishingServer(train_linear(ds))
    concurrent_lines = [None] * 64

    def worker(i):
        concurrent_lines[i] = server.handle_line(json.dumps(
            {"id": f"req-{i}", "tool": "classify_url",
             "arguments": {"url": urls[i]}}))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started

    identical = all(a.encode() == b.encode()
                    for a, b in zip(concurrent_lines, serial_lines))
    context_ids = {c.context_id for c in server.audit_log}
    refs = [c.request_ref for c in server.audit_log]
    isolated = len(context_ids) == 64 and sorted(refs) == sorted(
        f"req-{i}" for i in range(64)
    )
    ok = identical and isolated and elapsed < 10.0
    report(9, ok, f"64 concurrent responses byte-identical: {identical}, "
                  f"{len(context_ids)} distinct contexts, zero cross-refs, "
                  f"{elapsed:.1f}s")


def test_acceptance_10_robustness_patterns():
    started = time.perf_counter()
    ds = make_ternary_dataset(n=400, seed=0, provenance=("UCI",))
    model = train_linear(ds)

    # null attack: everything identical
    null_row = run_strategy(ds, model, "validation",
                            AttackSpec(contamination_rate=0.0, delta=0.0,
                                       seed=0),
                            n_contexts=200)
    null_ok = (null_row.cis == 1.0 and null_row.apf == 0.0
               and null_row.mre == 0.0 and null_row.csi_stability == 1.0)

    spec = AttackSpec(contamination_rate=0.3, delta=1.0, seed=0)
    validation = run_strategy(ds, model, "validation", spec, n_contexts=200)
    hybrid = run_strategy(ds, model, "hybrid", spec, n_contexts=200)
    mitigation_ok = (validation.cis == 1.0 and validation.mre > 0.0
                     and hybrid.cis == 1.0 and hybrid.mre is not None)

    pre = build_contexts(ds, model, n=200, seed=0)
    isolated_post = inject_attack(pre, spec, model, block_cross_copies=True)
    isolation_ok = apf(pre, isolated_post) == 0.0 and not isolated_post.links

    elapsed = time.perf_counter() - started
    ok = null_ok and mitigation_ok and isolation_ok and elapsed < 30.0
    report(10, ok, f"null attack identity: {null_ok}, post-mitigation CIS=1 "
                   f"with MRE {validation.mre:.4f} > 0: {mitigation_ok}, "
                   f"isolation APF=0: {isolation_ok}, {elapsed:.1f}s")


def test_acceptance_11_synthetic_generation():
    started = time.perf_counter()
    bases = ["https://example.com/login", "https://paypal.com/account",
             "https://bankofamerica.com/secure"]
    cfg = GenerationConfig(legit_urls=bases, target_count=1000, seed=42,
                           per_feature_target=5)
    urls = generate_synthetic_urls(cfg)
    unique = len({normalize_url(u) for u in urls})
    parseable = True
    for u in urls:
        try:
            parse_url(u)
        except Exception:
            parseable = False
            break
    domains, reported = generate_feature_rich_domains(cfg)
    recount = count_feature_triggers(domains, tuple(FEATURE_DOMAIN_GENERATORS))
    report_verified = recount == reported
    elapsed = time.perf_counter() - started
    ok = (len(urls) == 1000 and unique == 1000 and parseable
          and report_verified and elapsed < 5.0)
    report(11, ok, f"{len(urls)} URLs, {unique} unique, all parseable: "
                   f"{parseable}, feature report matches extractor oracle: "
                   f"{report_verified}, {elapsed:.1f}s")

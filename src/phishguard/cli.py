"""Command-line entry point: ingest, generate, train, explain, serve,
robustness. Every run writes a small JSON manifest next to its outputs.

Exit codes: 0 success, 2 usage or input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import sys
import time
from itertools import zip_longest
from pathlib import Path

# No phishguard matrix is wider than 32 columns, so OpenBLAS threads buy
# nothing and starting their pool costs 60-70 ms; a value the user set
# is kept. It is read when numpy loads, which the package `__init__` does
# not do.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .datasets import Dataset, align_features, class_distribution, load_csv, save_csv
from .errors import NonFiniteReference, PhishguardError, TooManyFeatures, UnmappableFeature
from .features import CANONICAL_FEATURES

# Names from the heavier modules, imported on first use by the PEP 562
# `__getattr__` below: a subcommand pays only for the modules it runs.
# Handlers look each name up on this module when they run, so that a
# wrapper set on, say, `phishguard.cli.train_linear` after import runs.
_LAZY = {name: module for module, names in (
    ("context", "PcsConfig"),
    ("explain", "fuse_weights information_gain_all lime_explain shap_exact shap_linear"),
    ("generate", "GenerationConfig generate_feature_rich_domains "
                 "generate_synthetic_urls"),
    ("metrics", "accuracy_metric auc_metric confusion cross_validate metrics_table prf1"),
    ("models", "TrainConfig save_model load_model train_forest train_gbt train_linear "
               "train_mlp train_tree"),
    ("models.linear", "LinearModel"),
    ("robustness", "AttackSpec report_table run_strategy"),
    ("server", "check_reference serve"),
) for name in names.split()}

# `robustness.STRATEGIES`, spelled out so that building the parser
# imports no robustness code; a test keeps the two equal
STRATEGIES = ("isolation", "validation", "hybrid")

# this module as its handlers see it (`python -m phishguard.cli` runs it
# as `__main__`, where importing `phishguard.cli` would load a 2nd copy)
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _write_manifest(out_dir: Path, subcommand: str, args: argparse.Namespace,
                    started: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "arguments": {k: str(v) for k, v in vars(args).items() if k != "func"},
        "tool_version": __version__,
        "started_at": started,
        "finished_at": time.time(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{subcommand}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )


# `train --model` kind -> trainer(ds, seed)
TRAINERS = {
    "logistic": lambda ds, seed: _cli.train_linear(ds, loss="logistic",
                                                   cfg=_cli.TrainConfig(seed=seed)),
    "ridge": lambda ds, seed: _cli.train_linear(ds, loss="squared", regularization="l2", l2=1.0,
                                                cfg=_cli.TrainConfig(seed=seed)),
    "sgd": lambda ds, seed: _cli.train_linear(
        ds, loss="logistic", cfg=_cli.TrainConfig(seed=seed, max_epochs=30, learning_rate=0.05),
        sgd=True),
    "elastic": lambda ds, seed: _cli.train_linear(ds, loss="logistic", regularization="elastic",
                                                  l1=1e-3, l2=1e-3,
                                                  cfg=_cli.TrainConfig(seed=seed)),
    "svm": lambda ds, seed: _cli.train_linear(ds, loss="hinge", regularization="l2", l2=1e-3,
                                              cfg=_cli.TrainConfig(seed=seed)),
    "tree": lambda ds, seed: _cli.train_tree(ds, max_depth=12),
    "forest": lambda ds, seed: _cli.train_forest(ds, n_trees=100, mode="bagging", seed=seed),
    "extra": lambda ds, seed: _cli.train_forest(ds, n_trees=100, mode="extra", seed=seed),
    "gbt": lambda ds, seed: _cli.train_gbt(ds, n_rounds=500, learning_rate=0.1, max_depth=4),
    "mlp": lambda ds, seed: _cli.train_mlp(ds, [32, 1], _cli.TrainConfig(
        seed=seed, max_epochs=300, learning_rate=0.01)),
}
MODEL_KINDS = tuple(TRAINERS)


def _train_model(ds: Dataset, kind: str, seed: int):
    if kind not in TRAINERS:
        raise PhishguardError(f"unknown model kind {kind!r}")
    return TRAINERS[kind](ds, seed)


def cmd_ingest(args) -> int:
    started = time.time()
    ds = load_csv(args.csv_in, provenance=args.provenance)
    try:
        ds = align_features([ds], list(CANONICAL_FEATURES), [str(args.csv_in)])[0]
    except UnmappableFeature:
        pass  # keep the original columns when the canonical set is absent
    n0, n1 = class_distribution(ds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(ds, out)
    print(f"{len(ds)} samples ({n0}/{n1})")
    _write_manifest(out.parent, "ingest", args, started)
    return 0


def cmd_generate(args) -> int:
    started = time.time()
    legit = [u.strip() for u in Path(args.legit_urls).read_text().splitlines()
             if u.strip()] if args.legit_urls else ["https://example.com/login"]
    cfg = _cli.GenerationConfig(
        legit_urls=legit,
        target_count=args.count,
        seed=args.seed,
        per_feature_target=args.per_feature,
        domain_base=args.domain_base,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    urls = _cli.generate_synthetic_urls(cfg)
    domains, report = _cli.generate_feature_rich_domains(cfg)
    (out / "phishing_links.txt").write_text("\n".join(urls + domains) + "\n")
    (out / "legitimate_links.txt").write_text("\n".join(legit) + "\n")
    (out / "feature_report.txt").write_text(
        "\n".join(f"{name} {count}" for name, count in sorted(report.items())) + "\n"
    )
    print(f"generated {len(urls)} synthetic URLs and {len(domains)} feature-rich domains")
    _write_manifest(out, "generate", args, started)
    return 0


def cmd_train(args) -> int:
    started = time.time()
    ds = load_csv(args.dataset)
    trainer = lambda d: _train_model(d, args.model, args.seed)
    cv = _cli.cross_validate(trainer, ds, {"accuracy": _cli.accuracy_metric,
                                           "auc": _cli.auc_metric},
                             k=args.folds, seed=args.seed)
    acc, auc = cv["accuracy"], cv["auc"]

    model = _train_model(ds, args.model, args.seed)
    predictions = model.predict(ds.X)
    stats = _cli.prf1(_cli.confusion(ds.y, predictions))
    stats["auc"] = auc.mean
    stats["accuracy"] = acc.mean
    print(_cli.metrics_table({args.model: stats}))
    print(f"cv accuracy {acc.mean:.4f} +- {acc.std:.4f}, cv auc {auc.mean:.4f}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _cli.save_model(model, out)
    _write_manifest(out.parent, "train", args, started)
    return 0


def _render_bars(pairs, width: int = 40) -> str:
    biggest = max((abs(v) for _, v in pairs), default=1.0) or 1.0
    lines = []
    for name, value in pairs:
        bar = "#" * max(1, int(round(abs(value) / biggest * width)))
        sign = "+" if value >= 0 else "-"
        lines.append(f"{name:>28} {sign}{abs(value):8.4f} {bar}")
    return "\n".join(lines)


def cmd_explain(args) -> int:
    started = time.time()
    ds = load_csv(args.dataset)
    if args.method == "ig":
        scores = _cli.information_gain_all(ds)
        ranked = sorted(scores.items(), key=lambda t: -t[1])
        print(_render_bars(ranked))
        _write_manifest(Path(args.out_dir), "explain", args, started)
        return 0

    if args.model is None:
        raise PhishguardError(f"explain --method {args.method} needs --model")
    if not -len(ds) <= args.index < len(ds):
        raise PhishguardError(f"--index {args.index} is outside the {len(ds)} "
                              "rows left after duplicate removal")
    model = _load_model_for(args.model, ds)
    x = ds.X[args.index]
    background = ds.X.mean(axis=0)
    if args.method == "lime":
        values = _cli.lime_explain(model.predict_proba, x, ds.X, seed=args.seed)
    elif isinstance(model, _cli.LinearModel):
        values = _cli.shap_linear(model, x, background)
    else:
        try:
            values = _cli.shap_exact(model.predict_proba, x, background)
        except TooManyFeatures as exc:
            raise TooManyFeatures(f"{exc}; use --method lime") from exc
    pairs = sorted(zip(ds.feature_names, values), key=lambda t: -abs(t[1]))
    print(_render_bars(pairs))
    _write_manifest(Path(args.out_dir), "explain", args, started)
    return 0


def _load_model_for(path, ds: Dataset):
    """The model at `path`, refused unless it names no features or was
    trained on `ds`'s columns in their order."""
    model = _cli.load_model(path)
    if model.feature_names:
        pairs = zip_longest(model.feature_names, ds.feature_names, fillvalue="(none)")
        for i, (trained, given) in enumerate(pairs):
            if trained != given:
                raise PhishguardError(f"the model was trained on other columns: column {i} "
                                      f"is {trained!r} in the model but {given!r} in the CSV")
    return model


def _load_reference(path, provenance: str) -> Dataset:
    """The PCS reference set. A NaN cell would make its column's mean NaN,
    and PCS would then score the first k rows whatever the query."""
    ds = load_csv(path, provenance=provenance)
    finite = np.isfinite(ds.X)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise NonFiniteReference(int(row), ds.feature_names[column], ds.X[row, column])
    return ds


def _build_fusion_and_pcs(args, model):
    fusion, pcs = None, None
    if args.dataset:
        ds = _load_reference(args.dataset, args.provenance)
        # refused before a linear model's importances read it as model input
        _cli.check_reference(ds.feature_names)
        ig = _cli.information_gain_all(ds)
        background = ds.X.mean(axis=0)
        if isinstance(model, _cli.LinearModel):
            rng = np.random.default_rng(args.seed)
            sample = ds.X[rng.choice(len(ds), size=min(50, len(ds)), replace=False)]
            magnitudes = np.abs([_cli.shap_linear(model, row, background)
                                 for row in sample])
            # one 1-D mean per feature: the same sum, in the same order, as
            # a mean over a list of the feature's magnitudes
            importance = {name: float(np.mean(column))
                          for name, column in zip(ds.feature_names, magnitudes.T)}
        else:
            importance = {name: 1.0 for name in ds.feature_names}
        fusion = _cli.fuse_weights(ig, importance, alpha=args.alpha)
        pcs = _cli.PcsConfig(ds, k=args.pcs_k, threshold=args.pcs_threshold)
    return fusion, pcs


def cmd_serve(args) -> int:
    model = _cli.load_model(args.model)
    fusion, pcs = _build_fusion_and_pcs(args, model)
    _cli.serve(args.transport, model, fusion, pcs, port=args.port)
    return 0


def cmd_robustness(args) -> int:
    started = time.time()
    ds = _load_reference(args.dataset, args.provenance)
    model = _load_model_for(args.model, ds)
    spec = _cli.AttackSpec(contamination_rate=args.rate, delta=args.delta, seed=args.seed)
    pcs = _cli.PcsConfig(ds, k=args.pcs_k, threshold=args.pcs_threshold)
    rows = {}
    for strategy in args.strategies:
        rows[strategy] = _cli.run_strategy(ds, model, strategy, spec, pcs=pcs,
                                           n_contexts=args.contexts)
    print(_cli.report_table(rows))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "robustness.json").write_text(json.dumps(
        {name: dataclasses.asdict(row) for name, row in rows.items()}, indent=2, sort_keys=True))
    _write_manifest(out_dir, "robustness", args, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phishguard")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="load, dedup, and standardize a CSV")
    p.add_argument("csv_in")
    p.add_argument("--provenance", default="Unknown")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("generate", help="emit synthetic phishing URLs")
    p.add_argument("--legit-urls", default=None, help="file with one URL per line")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--per-feature", type=int, default=5)
    p.add_argument("--domain-base", default="example.com")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model with k-fold CV metrics")
    p.add_argument("dataset")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="rank feature attributions")
    p.add_argument("dataset")
    p.add_argument("--model", default=None)
    p.add_argument("--method", choices=("ig", "shap", "lime"), required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("serve", help="run the MCP-style server")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", default=None,
                   help="reference CSV for fusion weights and PCS")
    p.add_argument("--provenance", default="Unknown")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--pcs-k", type=int, default=5)
    p.add_argument("--pcs-threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    p.add_argument("--port", type=int, default=7878)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("robustness", help="attack/mitigation metrics")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--provenance", default="Unknown")
    p.add_argument("--strategies", nargs="+", choices=STRATEGIES,
                   default=list(STRATEGIES))
    p.add_argument("--rate", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--contexts", type=int, default=200)
    p.add_argument("--pcs-k", type=int, default=5)
    p.add_argument("--pcs-threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_robustness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (PhishguardError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
    except Exception as exc:  # noqa: BLE001 - exit code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

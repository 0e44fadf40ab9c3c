import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_ternary_dataset
import phishguard
from phishguard import cli
from phishguard.cli import _train_model, main
from phishguard.datasets import Dataset, load_csv, save_csv
from phishguard.errors import DimensionMismatch, NoLogitScale, PhishguardError
from phishguard.features import CANONICAL_FEATURES
from phishguard.models import load_model, save_model, sigmoid


@pytest.fixture
def csv_path(tmp_path):
    ds = make_ternary_dataset(n=200, seed=0, provenance=("UCI",))
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    return path


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["tree", "extra", "gbt"])
    def test_infinite_cell_is_input_error(self, tmp_path, capsys, kind):
        ds = make_ternary_dataset(n=40, seed=1)
        ds.X[3, 2] = np.inf
        path = tmp_path / "inf.csv"
        save_csv(ds, path)
        code = main(["train", str(path), "--model", kind, "--folds", "2",
                     "--out", str(tmp_path / "model.json")])
        assert code == 2
        err = capsys.readouterr().err
        # a CV fold's fit met it; the row is still the dataset's
        assert "infinite value inf at row 3 of the dataset, column 2" in err

    @pytest.mark.parametrize("subcommand", [["ingest"], ["train", "--model", "logistic"]])
    def test_ragged_row_is_input_error(self, tmp_path, capsys, subcommand):
        path = tmp_path / "ragged.csv"
        path.write_text("f1,f2,label\n1,2,0\n3,1\n")
        code = main([subcommand[0], str(path), *subcommand[1:],
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "row 1 has 2 cells but the header has 3" in capsys.readouterr().err

    def test_bad_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.fixture
    def model_path(self, csv_path, tmp_path):
        path = tmp_path / "m.json"
        save_model(_train_model(load_csv(csv_path), "logistic", 0), path)
        return path

    def argv(self, subcommand, csv_path, model_path, *flags):
        """`subcommand` on the CSV and the model, each where it takes them."""
        return {"train": ["train", str(csv_path), "--model", "logistic", "--folds", "2",
                          "--out", str(model_path.with_name("out.json"))],
                "explain": ["explain", str(csv_path), "--model", str(model_path),
                            "--method", "lime", "--out-dir", str(model_path.parent)],
                "serve": ["serve", "--model", str(model_path), "--dataset", str(csv_path)],
                "robustness": ["robustness", str(csv_path), "--model", str(model_path),
                               "--contexts", "20", "--out-dir", str(model_path.parent)],
                }[subcommand] + list(flags)

    @pytest.mark.parametrize("subcommand", ["train", "explain", "serve", "robustness"])
    def test_negative_seed_is_usage_error(self, csv_path, model_path, capsys, subcommand):
        # numpy's generators take no negative seed
        with pytest.raises(SystemExit) as err:
            main(self.argv(subcommand, csv_path, model_path, "--seed", "-1"))
        assert err.value.code == 2
        assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "-0.5", "1.5"])
    @pytest.mark.parametrize("subcommand", ["serve", "robustness"])
    def test_pcs_threshold_outside_the_unit_interval_is_input_error(
            self, csv_path, model_path, capsys, subcommand, threshold):
        argv = self.argv(subcommand, csv_path, model_path, "--pcs-threshold", threshold)
        assert main(argv) == 2
        assert "threshold must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["99999", "65536", "-1"])
    def test_port_outside_the_tcp_range_is_usage_error(self, model_path, capsys, port):
        # refused by the parser, not found by bind() as an internal error
        with pytest.raises(SystemExit) as err:
            main(["serve", "--model", str(model_path), "--transport", "tcp", "--port", port])
        assert err.value.code == 2
        assert f"argument --port: port must be in [0, 65535], got {port}" in capsys.readouterr().err

    @pytest.mark.parametrize("port", [0, 7878, 65535])
    def test_ports_in_range_parse(self, port):
        assert cli.build_parser().parse_args(["serve", "--model", "m.json",
                                              "--port", str(port)]).port == port

    def test_success_is_zero(self, csv_path, tmp_path):
        assert main(["ingest", str(csv_path),
                     "--out", str(tmp_path / "out.csv")]) == 0


class TestIngest:
    def test_dedup_and_manifest(self, tmp_path, capsys):
        ds = make_ternary_dataset(n=50, seed=1)
        src = tmp_path / "dup.csv"
        # duplicate every row by saving twice the data
        save_csv(ds, src)
        rows = src.read_text().splitlines()
        src.write_text("\n".join([rows[0]] + rows[1:] + rows[1:]) + "\n")
        out = tmp_path / "clean.csv"
        assert main(["ingest", str(src), "--out", str(out)]) == 0
        cleaned = load_csv(out)
        assert len(cleaned) == len(load_csv(src))  # loader already dedups
        printed = capsys.readouterr().out
        assert printed.startswith(f"{len(cleaned)} samples")
        manifest = json.loads((tmp_path / "ingest.manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"

    def test_idempotent(self, csv_path, tmp_path):
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        assert main(["ingest", str(csv_path), "--out", str(once)]) == 0
        assert main(["ingest", str(once), "--out", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()


class TestGenerate:
    def test_outputs_present(self, tmp_path):
        legit = tmp_path / "legit.txt"
        legit.write_text("https://example.com/login\nhttps://paypal.com/\n")
        out = tmp_path / "gen"
        assert main(["generate", "--legit-urls", str(legit), "--count", "30",
                     "--per-feature", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        phish = (out / "phishing_links.txt").read_text().strip().splitlines()
        assert len(phish) >= 30
        assert (out / "legitimate_links.txt").read_text().strip().splitlines() == [
            "https://example.com/login", "https://paypal.com/"
        ]
        report = (out / "feature_report.txt").read_text().strip().splitlines()
        for line in report:
            name, count = line.rsplit(" ", 1)
            assert int(count) >= 3

    def test_seeded_runs_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--count", "20", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append((out / "phishing_links.txt").read_bytes())
        assert outs[0] == outs[1]


class TestTrain:
    @pytest.mark.parametrize("kind", ["logistic", "tree", "sgd"])
    def test_trains_and_saves(self, csv_path, tmp_path, capsys, kind):
        out = tmp_path / f"{kind}.model.json"
        assert main(["train", str(csv_path), "--model", kind, "--folds", "3",
                     "--seed", "0", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "Accuracy" in printed and "ROC AUC" in printed
        assert "cv accuracy" in printed
        model = load_model(out)
        ds = load_csv(csv_path)
        assert np.mean(model.predict(ds.X) == ds.y) > 0.6
        assert (tmp_path / "train.manifest.json").exists()

    # Recorded when cross-validation fitted every fold once per metric
    # (2k + 1 fits), to show that one pass over the folds prints the same.
    TRAIN_STDOUT = {
        "tree": ("Model    Accuracy   Precision      Recall          F1     ROC AUC\n"
                 "tree      0.5650      1.0000      1.0000      1.0000      0.5636\n"
                 "cv accuracy 0.5650 +- 0.0325, cv auc 0.5636\n"),
        "logistic": ("Model       Accuracy   Precision      Recall          F1     ROC AUC\n"
                     "logistic      0.6698      0.7692      0.7216      0.7447      0.7281\n"
                     "cv accuracy 0.6698 +- 0.0624, cv auc 0.7281\n"),
    }
    TREE_MODEL_SHA256 = "a1a96d08114e17ea684e325176e7815124b6e1baf6c35f9f0e323ee1b3ca4e4f"

    @pytest.mark.parametrize("kind", ["tree", "logistic"])
    def test_one_cv_pass_prints_and_saves_the_same(self, csv_path, tmp_path, capsys, kind):
        out = tmp_path / "model.json"
        assert main(["train", str(csv_path), "--model", kind, "--out", str(out)]) == 0
        assert capsys.readouterr().out == self.TRAIN_STDOUT[kind]
        direct = tmp_path / "direct.json"
        save_model(_train_model(load_csv(csv_path), kind, 0), direct)
        assert out.read_bytes() == direct.read_bytes()
        if kind == "tree":
            assert hashlib.sha256(out.read_bytes()).hexdigest() == self.TREE_MODEL_SHA256

    def test_fits_one_model_per_fold_plus_final(self, csv_path, tmp_path, monkeypatch):
        fits = []

        def counting(ds, kind, seed):
            fits.append(len(ds))
            return _train_model(ds, kind, seed)

        monkeypatch.setattr(cli, "_train_model", counting)
        assert main(["train", str(csv_path), "--model", "logistic", "--folds", "4",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert len(fits) == 4 + 1
        assert fits[-1] == len(load_csv(csv_path))

    def test_extra_trees_train_on_a_nan_cell(self, csv_path, tmp_path):
        lines = csv_path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[0] = "nan"
        lines[5] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "extra.json"
        assert main(["train", str(csv_path), "--model", "extra", "--folds", "2",
                     "--out", str(out)]) == 0
        ds = load_csv(csv_path)
        assert np.isnan(ds.X).sum() == 1
        assert np.all(np.isfinite(load_model(out).predict_proba(ds.X)))

    def test_model_files_byte_identical_across_runs(self, csv_path, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["train", str(csv_path), "--model", "logistic",
                         "--folds", "3", "--seed", "0", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestModelKinds:
    """Each `train --model` kind, trained as the CLI trains it."""

    # the kinds in `--model` order, each with the trainer it calls
    TRAINER_OF = {"logistic": "train_linear", "ridge": "train_linear",
                  "sgd": "train_linear", "elastic": "train_linear",
                  "svm": "train_linear", "tree": "train_tree", "forest": "train_forest",
                  "extra": "train_forest", "gbt": "train_gbt", "mlp": "train_mlp"}

    @pytest.mark.parametrize("kind", cli.MODEL_KINDS)
    def test_trainer_looked_up_in_the_module_at_call_time(self, monkeypatch, kind):
        # a wrapper installed on `cli.train_*` after import sees the fit
        calls = []
        monkeypatch.setattr(cli, self.TRAINER_OF[kind],
                            lambda *args, **kwargs: calls.append(args) or "fitted")
        assert _train_model(make_ternary_dataset(n=20), kind, 0) == "fitted"
        assert len(calls) == 1

    def test_kinds_in_order_and_unknown_kind(self):
        assert cli.MODEL_KINDS == tuple(self.TRAINER_OF)
        with pytest.raises(PhishguardError, match="unknown model kind 'knn'"):
            _train_model(make_ternary_dataset(n=20), "knn", 0)

    @pytest.mark.parametrize("kind", cli.MODEL_KINDS)
    def test_one_scoring_surface(self, kind):
        ds = make_ternary_dataset(n=120, seed=2)
        model = _train_model(ds, kind, 0)
        X = ds.X[:7]
        probs = model.predict_proba(X)
        assert probs.shape == (7,)
        single = model.predict_proba(X[0])
        # a row alone is scored as a one-row matrix and given back as a scalar
        assert type(single) is np.float64
        assert single == model.predict_proba(X[:1])[0]
        assert np.array_equal(model.predict(X), (probs >= 0.5).astype(int))
        assert model.predict(X[0]) == int(single >= 0.5)
        if kind not in ("tree", "forest", "extra"):
            assert np.array_equal(probs, sigmoid(model.decision_function(X)))
            assert type(model.decision_function(X[0])) is np.float64
        else:
            # a tree's leaf frequency or a forest's mean vote is no logit
            named = {"tree": "tree", "forest": "bagging ensemble", "extra": "extra ensemble"}
            for rows in (X, X[0]):
                with pytest.raises(NoLogitScale, match=f"^{named[kind]} models"):
                    model.decision_function(rows)
        for wrong in (X[0, :5], X[:, :5], X[None]):
            with pytest.raises(DimensionMismatch):
                model.predict_proba(wrong)

    @pytest.mark.parametrize("kind", cli.MODEL_KINDS)
    def test_a_row_scores_to_the_same_bits_in_any_batch(self, kind):
        # what is served, cross-validated and explained by LIME's distinct
        # perturbations is one row's score, whatever batch holds the row
        model = _train_model(make_ternary_dataset(n=120, seed=2), kind, 0)
        X = np.random.default_rng(5).choice([-1.0, 0.0, 1.0], size=(200, 23))
        full = model.predict_proba(X)
        for n in range(1, len(X)):
            assert np.array_equal(model.predict_proba(X[:n]), full[:n]), n
        for i, row in enumerate(X):
            assert model.predict_proba(row.copy()) == full[i], i
        assert np.array_equal(model.predict_proba(np.asfortranarray(X)), full)
        assert np.array_equal(model.predict_proba(X[::2]), full[::2])


class TestExplain:
    def test_ig_ranking(self, csv_path, tmp_path, capsys):
        assert main(["explain", str(csv_path), "--method", "ig",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "#" in out
        assert len(out.strip().splitlines()) == 23

    def test_ig_refuses_a_nan_cell(self, tmp_path, capsys):
        ds = make_ternary_dataset(n=300, seed=1)
        ds.X[7, CANONICAL_FEATURES.index("Prefix_Suffix")] = np.nan
        save_csv(ds, tmp_path / "nan.csv")
        assert main(["explain", str(tmp_path / "nan.csv"), "--method", "ig",
                     "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "information gain of 'Prefix_Suffix' is undefined: NaN at row" in captured.err

    def test_shap_for_saved_linear_model(self, csv_path, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "3", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(csv_path), "--method", "shap",
                     "--model", str(model_path), "--index", "3",
                     "--out-dir", str(tmp_path)]) == 0
        assert "#" in capsys.readouterr().out

    def test_lime_for_saved_model(self, csv_path, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "3", "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["explain", str(csv_path), "--method", "lime",
                     "--model", str(model_path), "--seed", "0",
                     "--out-dir", str(tmp_path)]) == 0
        assert "#" in capsys.readouterr().out


    @pytest.mark.parametrize("method", ["shap", "lime"])
    def test_model_required_for_shap_and_lime(self, csv_path, tmp_path, capsys, method):
        assert main(["explain", str(csv_path), "--method", method,
                     "--out-dir", str(tmp_path)]) == 2
        assert f"explain --method {method} needs --model" in capsys.readouterr().err

    @pytest.mark.parametrize("index, code", [(-1, 0), (-10**6, 2), (10**6, 2)])
    def test_index_inside_the_dataset(self, csv_path, tmp_path, capsys, index, code):
        model_path = tmp_path / "m.json"
        save_model(_train_model(load_csv(csv_path), "logistic", 0), model_path)
        assert main(["explain", str(csv_path), "--method", "shap",
                     "--model", str(model_path), "--index", str(index),
                     "--out-dir", str(tmp_path)]) == code
        if code == 2:
            assert f"--index {index} is outside" in capsys.readouterr().err

    @pytest.mark.parametrize("n_features, code", [(15, 0), (16, 2)])
    def test_exact_shap_keeps_its_feature_cap(self, tmp_path, capsys, n_features, code):
        # a non-linear model's Shapley values enumerate 2^n subsets, so past
        # 15 features the command refuses and points at LIME
        ds = make_ternary_dataset(n=120, n_features=n_features, seed=0)
        csv, model_path = tmp_path / "d.csv", tmp_path / "m.json"
        save_csv(ds, csv)
        save_model(_train_model(ds, "tree", 0), model_path)
        assert main(["explain", str(csv), "--method", "shap",
                     "--model", str(model_path), "--out-dir", str(tmp_path)]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert "16 features exceeds the enumeration cap 15; use --method lime" in err


class TestServeStdio:
    def test_pipe_session(self, csv_path, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "3", "--out", str(model_path)]) == 0
        requests = "\n".join([
            json.dumps({"id": "1", "tool": "server_info"}),
            json.dumps({"id": "2", "tool": "classify_url",
                        "arguments": {"url": "http://bit.ly/x@y"}}),
        ]) + "\n"
        # the child imports phishguard from where this process found it
        src = str(Path(phishguard.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "phishguard.cli", "serve",
             "--model", str(model_path), "--transport", "stdio"],
            input=requests, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["status"] == "ok"
        second = json.loads(lines[1])
        assert second["result"]["label"] in ("phishing", "legitimate")


class TestServeSetup:
    def test_importance_takes_one_attribution_per_sampled_row(self, csv_path, monkeypatch):
        ds = load_csv(csv_path, provenance="UCI")
        model = _train_model(ds, "logistic", 0)
        shap_linear, fuse_weights = cli.shap_linear, cli.fuse_weights
        calls, importances = [], []

        def counting(*args):
            calls.append(args)
            return shap_linear(*args)

        def recording(ig, importance, alpha):
            importances.append(importance)
            return fuse_weights(ig, importance, alpha=alpha)

        monkeypatch.setattr(cli, "shap_linear", counting)
        monkeypatch.setattr(cli, "fuse_weights", recording)
        args = cli.build_parser().parse_args(
            ["serve", "--model", "m.json", "--dataset", str(csv_path), "--seed", "3"])
        cli._build_fusion_and_pcs(args, model)
        assert len(calls) == 50
        # the mean of one feature's magnitudes at a time, one call per cell
        rng = np.random.default_rng(3)
        sample = ds.X[rng.choice(len(ds), size=50, replace=False)]
        background = ds.X.mean(axis=0)
        expected = {
            name: float(np.mean([
                abs(shap_linear(model, row, background)[j])
                for row in sample
            ]))
            for j, name in enumerate(ds.feature_names)
        }
        assert importances == [expected]


class TestRobustnessCommand:
    def test_table_and_json(self, csv_path, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "3", "--out", str(model_path)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "rob"
        assert main(["robustness", str(csv_path), "--model", str(model_path),
                     "--provenance", "UCI", "--contexts", "40",
                     "--rate", "0.3", "--delta", "1.0",
                     "--out-dir", str(out_dir)]) == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split() == ["Strategy", "CIS", "APF",
                                                 "MRE", "CSI"]
        assert "--" in table  # isolation row has no MRE
        payload = json.loads((out_dir / "robustness.json").read_text())
        assert set(payload) == {"isolation", "validation", "hybrid"}
        assert payload["isolation"]["mre"] is None
        assert payload["validation"]["cis"] == 1.0

    # the sha256 of one seeded run's robustness.json without its wall-clock
    # times, as `json.dumps(..., indent=2, sort_keys=True)` writes it
    PINNED_ROBUSTNESS_SHA256 = (
        "b81dc34a9dcb0ecd5ee42ab268acd451698e49a855d9073758f60f6d12a08729")

    def test_a_seeded_run_writes_the_pinned_report(self, csv_path, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "2", "--out", str(model_path)]) == 0
        out_dir = tmp_path / "rob"
        assert main(["robustness", str(csv_path), "--model", str(model_path),
                     "--provenance", "UCI", "--contexts", "100", "--seed", "3",
                     "--delta", "0.75", "--out-dir", str(out_dir)]) == 0
        payload = json.loads((out_dir / "robustness.json").read_text())
        for row in payload.values():
            del row["wall_clock_s"]
        text = json.dumps(payload, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED_ROBUSTNESS_SHA256

    @pytest.mark.parametrize("flags, message", [
        (["--contexts", "1"], "it needs at least two"),
        (["--contexts", "-1"], "number of contexts must be >= 1"),
        (["--contexts", "0"], "number of contexts must be >= 1"),
        (["--delta", "nan"], "delta must be finite and >= 0"),
        (["--delta", "inf"], "delta must be finite and >= 0"),
    ])
    def test_inputs_it_cannot_run_exit_2(self, csv_path, tmp_path, capsys, flags, message):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "2", "--out", str(model_path)]) == 0
        out_dir = tmp_path / "rob"
        assert main(["robustness", str(csv_path), "--model", str(model_path),
                     "--out-dir", str(out_dir), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (out_dir / "robustness.json").exists()

    def test_one_context_unattacked_runs(self, csv_path, tmp_path):
        model_path = tmp_path / "m.json"
        assert main(["train", str(csv_path), "--model", "logistic",
                     "--folds", "2", "--out", str(model_path)]) == 0
        out_dir = tmp_path / "rob"
        assert main(["robustness", str(csv_path), "--model", str(model_path),
                     "--contexts", "1", "--rate", "0", "--out-dir", str(out_dir)]) == 0
        payload = json.loads((out_dir / "robustness.json").read_text())
        assert all(row["cis"] == 1.0 for row in payload.values())


def reordered_csv(csv_path, tmp_path, columns, name):
    """The rows of `csv_path` with its feature columns taken as `columns`."""
    ds = load_csv(csv_path)
    path = tmp_path / name
    save_csv(Dataset(ds.X[:, columns], ds.y, tuple(np.array(ds.feature_names)[columns])), path)
    return path


class TestServeReference:
    @pytest.mark.parametrize("columns", [slice(0, 10), slice(None, None, -1)],
                             ids=["narrow", "reversed"])
    def test_reference_of_other_columns_exits_2(self, csv_path, tmp_path, capsys, columns):
        model_path = tmp_path / "tree.json"
        save_model(_train_model(load_csv(csv_path), "tree", 0), model_path)
        reference = reordered_csv(csv_path, tmp_path, columns, "ref.csv")
        assert main(["serve", "--model", str(model_path), "--dataset", str(reference)]) == 2
        err = capsys.readouterr().err
        assert "the PCS reference's features are not the canonical features in order" in err

    def test_narrow_reference_of_a_linear_model_exits_2(self, csv_path, tmp_path, capsys):
        # the Shapley importances of a linear model read the reference rows
        # as model input; the reference is refused before them
        model_path = tmp_path / "linear.json"
        save_model(_train_model(load_csv(csv_path), "logistic", 0), model_path)
        reference = reordered_csv(csv_path, tmp_path, slice(0, 10), "ref.csv")
        assert main(["serve", "--model", str(model_path), "--dataset", str(reference)]) == 2
        err = capsys.readouterr().err
        assert "the PCS reference's features are not the canonical features in order" in err


class TestModelMatchesTheCsv:
    @pytest.fixture
    def model_path(self, tmp_path):
        ds = make_ternary_dataset(n=400, seed=0, provenance=("UCI",))
        path = tmp_path / "m.json"
        save_model(_train_model(ds, "logistic", 0), path)
        save_csv(ds, tmp_path / "data.csv")
        return path

    @pytest.mark.parametrize("argv", [["explain", "--method", "shap"],
                                      ["explain", "--method", "lime"],
                                      ["robustness", "--contexts", "20"]],
                             ids=["shap", "lime", "robustness"])
    def test_reversed_columns_exit_2(self, model_path, tmp_path, capsys, argv):
        rev = reordered_csv(tmp_path / "data.csv", tmp_path, slice(None, None, -1), "rev.csv")
        assert main([argv[0], str(rev), *argv[1:], "--model", str(model_path),
                     "--out-dir", str(tmp_path)]) == 2
        first, last = CANONICAL_FEATURES[0], CANONICAL_FEATURES[-1]
        assert (f"column 0 is {first!r} in the model but {last!r} in the CSV"
                in capsys.readouterr().err)

    def test_narrow_csv_names_the_first_missing_column(self, model_path, tmp_path, capsys):
        narrow = reordered_csv(tmp_path / "data.csv", tmp_path, slice(0, 10), "narrow.csv")
        assert main(["explain", str(narrow), "--method", "shap", "--model", str(model_path),
                     "--out-dir", str(tmp_path)]) == 2
        assert (f"column 10 is {CANONICAL_FEATURES[10]!r} in the model but '(none)' in the CSV"
                in capsys.readouterr().err)

    def test_a_model_without_names_is_not_checked(self, model_path, tmp_path, capsys):
        model = load_model(model_path)
        model.feature_names = ()
        save_model(model, model_path)
        assert main(["explain", str(tmp_path / "data.csv"), "--method", "shap",
                     "--model", str(model_path), "--out-dir", str(tmp_path)]) == 0


class TestNonFiniteReference:
    @pytest.mark.parametrize("subcommand", ["serve", "robustness"])
    def test_nan_cell_refused_with_row_and_column(self, csv_path, tmp_path, capsys,
                                                  subcommand):
        model_path = tmp_path / "m.json"
        save_model(_train_model(load_csv(csv_path), "logistic", 0), model_path)
        reference = tmp_path / "ref.csv"
        reference.write_text("a,b,label\n1,0,1\n-1,nan,0\n")
        argv = {"serve": ["serve", "--model", str(model_path),
                          "--dataset", str(reference)],
                "robustness": ["robustness", str(reference),
                               "--model", str(model_path),
                               "--out-dir", str(tmp_path)]}[subcommand]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "non-finite value nan at reference row 1" in err
        assert "column 'b'" in err

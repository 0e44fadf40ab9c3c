"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest -q perfbench/tests/check_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402

common.require_program()

import data  # noqa: E402
import offline  # noqa: E402
import serving  # noqa: E402
import tracing  # noqa: E402

SMALL_ROWS = 600
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}


def test_per_layer_table_matches_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(common.CONFIG["workloads"])


def _stream_bytes(seed: int, workload: str, n: int = 300) -> bytes:
    spec = common.CONFIG["workloads"][workload]
    pool = data.url_pool(seed, spec.get("zipf_pool_size", 3000))
    stream = data.RequestStream(seed, spec, pool)
    return b"".join(r.line for r in stream.take(n, "t"))


def test_same_seed_gives_identical_inputs():
    assert data.reference_csv_text(7, SMALL_ROWS) == data.reference_csv_text(7, SMALL_ROWS)
    for workload in ("serve-linear", "serve-gbt"):
        assert _stream_bytes(7, workload) == _stream_bytes(7, workload)


def test_other_seed_gives_other_inputs():
    assert data.reference_csv_text(7, SMALL_ROWS) != data.reference_csv_text(8, SMALL_ROWS)
    for workload in ("serve-linear", "serve-gbt"):
        assert _stream_bytes(7, workload) != _stream_bytes(8, workload)


def test_streams_cover_every_line_kind():
    lines = _stream_bytes(3, "serve-linear", 2000)
    for marker in (b'"classify_url"', b'"explain_url"', b'"extract_features"',
                   b'"server_info"', b'"rank_url"', data.FOREIGN_PROVENANCE.encode()):
        assert marker in lines
    spec = common.CONFIG["workloads"]["serve-linear"]
    stream = data.RequestStream(3, spec, data.url_pool(3, 3000))
    urls = [r.url for r in stream.take(5000, "t") if r.url]
    assert len(set(urls)) == len(urls)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the workloads so that each runs in seconds."""
    cfg = common.CONFIG
    monkeypatch.setitem(cfg, "reference_rows", SMALL_ROWS)
    monkeypatch.setitem(cfg, "setup_repeats", 2)
    monkeypatch.setitem(cfg["workloads"]["serve-gbt"], "gbt_rounds", 5)
    monkeypatch.setitem(cfg["workloads"]["serve-gbt"], "oracle_sample", 10)
    monkeypatch.setitem(cfg["workloads"]["serve-linear"], "warmup_requests", 50)
    monkeypatch.setitem(cfg["workloads"]["serve-linear"], "oracle_sample", 50)
    monkeypatch.setitem(cfg["workloads"]["offline-jobs"], "fit_gbt_rounds", 5)
    monkeypatch.setitem(cfg["workloads"]["offline-jobs"], "fit_forest_trees", 2)
    return cfg


@pytest.mark.parametrize("workload", ["serve-linear", "serve-gbt"])
def test_tiny_serving_run_passes_every_check(tiny, tmp_path, workload):
    outcome = serving.run(workload, 5, 2.0, tmp_path, trace=False)
    assert outcome["failures"] == []
    assert outcome["attempted"] > 50
    assert set(outcome["end_to_end"]) == END_TO_END
    for value, _, samples in outcome["end_to_end"].values():
        assert value > 0 and samples > 0


def test_tiny_offline_run_passes_every_check(tiny, tmp_path):
    outcome = offline.run(5, tmp_path, trace=False)
    assert outcome["failures"] == []
    # An exit check per job run, reload and AUC for each of the four
    # models, three robustness rows, and an exit check per ingest.
    jobs = len(common.CONFIG["workloads"]["offline-jobs"]["jobs"])
    assert outcome["attempted"] == jobs + 8 + 3 + common.CONFIG["setup_repeats"]
    assert set(outcome["end_to_end"]) == END_TO_END
    assert all(value > 0 for value, _, _ in outcome["end_to_end"].values())


def test_tiny_traced_run_reproduces_seed_counts(tiny, tmp_path):
    outcome = serving.run("serve-linear", 5, 2.0, tmp_path, trace=True)
    assert outcome["failures"] == []
    layers = outcome["per_layer"]
    assert set(layers) == set(tracing.PER_LAYER)
    assert layers["server.fusion_calls_per_classify"][0] == 2
    assert layers["models.fits_per_train_job"][0] == 11
    assert layers["explain.shap_linear_calls_at_startup"][0] == 1150
    assert outcome["diagnostics"]["unwrapped"] == []
    assert layers["server.provenance_score_us"][1] > 0

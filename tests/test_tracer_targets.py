"""The benchmark's tracer (`perfbench/tracing.py`) wraps functions by
module and attribute name. A target that no longer resolves is skipped
at run time and its per-layer metric silently goes blank, so every name
must resolve here. The names are read from the tracer's source: nothing
is imported from `perfbench/`. A name on `phishguard.cli` must also be
looked up when its subcommand runs, and a function on `phishguard.server`
when a memo misses, so that the tracer's wrapper, set after import, sees
the call."""

import ast
import importlib
import json
from pathlib import Path

import pytest

from conftest import make_ternary_dataset
from phishguard import cli, server
from phishguard.context import PcsConfig
from phishguard.datasets import save_csv
from phishguard.models import save_model, train_gbt, train_linear

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_targets():
    """(module, attribute) of each entry of the tracer's WRAPS table."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return [(module, attribute) for module, attribute, *_ in ast.literal_eval(node.value)]
    raise AssertionError(f"{TRACING} defines no WRAPS table")


@pytest.mark.parametrize("module, attribute", wrapped_targets())
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def cli_targets():
    return [attribute for module, attribute in wrapped_targets() if module == "phishguard.cli"]


def train(kind):
    return ["train", "{csv}", "--model", kind, "--folds", "2", "--out", "{tmp}/m.json"]


SHAP = ["explain", "{csv}", "--method", "shap", "--model", "{linear}", "--out-dir", "{tmp}"]

# a subcommand that calls each name the tracer wraps on `phishguard.cli`
CLI_RUNS = {
    "load_csv": ["ingest", "{csv}", "--out", "{tmp}/clean.csv"],
    "cross_validate": train("logistic"),
    "train_linear": train("logistic"),
    "save_model": train("logistic"),
    "train_tree": train("tree"),
    "train_forest": train("forest"),
    "train_gbt": train("gbt"),
    "load_model": SHAP,
    "shap_linear": SHAP,
    "information_gain_all": ["explain", "{csv}", "--method", "ig", "--out-dir", "{tmp}"],
}


@pytest.mark.parametrize("attribute", cli_targets())
def test_a_wrapper_set_on_the_cli_after_import_sees_the_call(tmp_path, monkeypatch, attribute):
    ds = make_ternary_dataset(n=40, seed=1)
    save_csv(ds, tmp_path / "d.csv")
    save_model(train_linear(ds), tmp_path / "linear.json")
    target = getattr(cli, attribute)
    if attribute == "train_gbt":
        # the CLI's 500 boosting rounds take seconds; only the call matters
        target = lambda d, **kwargs: train_gbt(d, n_rounds=2, max_depth=2)  # noqa: E731
    calls = []

    def counting(*args, **kwargs):
        calls.append(attribute)
        return target(*args, **kwargs)

    monkeypatch.setattr(cli, attribute, counting)
    argv = [arg.format(csv=tmp_path / "d.csv", tmp=tmp_path, linear=tmp_path / "linear.json")
            for arg in CLI_RUNS[attribute]]
    assert cli.main(argv) == 0
    assert calls


def server_targets():
    """The functions the tracer wraps on `phishguard.server`, which the
    server calls as module globals."""
    return [attribute for module, attribute in wrapped_targets()
            if module == "phishguard.server" and "." not in attribute]


# the tool whose memo miss calls each function on `phishguard.server`,
# and whether the served model is linear
SERVER_RUNS = {
    "to_canonical_vector": ("classify_url", True),
    "classify_with_fusion": ("classify_url", True),
    "provenance_score": ("classify_url", True),
    "shap_linear": ("explain_url", True),
    "lime_explain": ("explain_url", False),
}


@pytest.mark.parametrize("attribute", server_targets())
def test_a_wrapper_set_on_the_server_after_it_is_built_sees_each_miss(monkeypatch, attribute):
    ds = make_ternary_dataset(n=60, seed=1, provenance=("UCI", "Mendeley"))
    tool, linear = SERVER_RUNS[attribute]
    model = train_linear(ds) if linear else train_gbt(ds, n_rounds=2, max_depth=2)
    phishing_server = server.PhishingServer(model, pcs=PcsConfig(ds))
    target = getattr(server, attribute)
    calls = []

    def counting(*args, **kwargs):
        calls.append(attribute)
        return target(*args, **kwargs)

    monkeypatch.setattr(server, attribute, counting)
    # two distinct URLs of distinct vectors; the repeat is a memo hit
    for i, url in enumerate(("http://a.com/", "http://a.com/", "http://b-c.example.com/x")):
        reply = phishing_server.handle_line(json.dumps(
            {"id": f"r{i}", "tool": tool, "arguments": {"url": url, "provenance": "UCI"}}))
        assert json.loads(reply)["status"] == "ok"
    assert len(calls) == 2

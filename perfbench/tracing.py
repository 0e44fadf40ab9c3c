"""Span recorder, wrapper launcher and per-layer table for traced runs.

Launch a phishguard process under the recorder with

    python perfbench/tracing.py SPANS.json cli serve --model m.json ...
    python perfbench/tracing.py SPANS.json script perfbench/libjobs.py ...

The launcher wraps public functions at the module attributes their
callers look up (for example `phishguard.server.provenance_score` and
the models' `predict_proba`), then runs the same entry point with the
same arguments. Nothing in the program changes. Each span keeps its
name, start, end, parent span and request id in memory; the file is
written when the entry point returns.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import runpy
import sys
import threading
import time
from collections import defaultdict

from common import median

# (module, attribute, span name, kind). kind "request" reads the request
# id from the line; "rows" records how many rows a model scored.
WRAPS = (
    ("phishguard.server", "PhishingServer.handle_line", "server.handle_line", "request"),
    ("phishguard.server", "PhishingServer.create_context", "server.create_context", ""),
    ("phishguard.server", "PhishingServer._tool_classify_url", "server.tool.classify_url", ""),
    ("phishguard.server", "classify_with_fusion", "server.classify_with_fusion", ""),
    ("phishguard.server", "provenance_score", "server.provenance_score", ""),
    ("phishguard.server", "PcsConfig.__post_init__", "server.pcs_config", ""),
    ("phishguard.robustness", "classify_with_fusion", "server.classify_with_fusion", ""),
    ("phishguard.robustness", "provenance_score", "server.provenance_score", ""),
    ("phishguard.server", "to_canonical_vector", "features.to_canonical_vector", ""),
    ("phishguard.features", "parse_url", "features.parse_url", ""),
    ("phishguard.features", "extract_lexical", "features.extract_lexical", ""),
    ("phishguard.features", "resolve_remaining", "features.resolve_remaining", ""),
    ("phishguard.models.linear", "LinearModel.predict_proba", "models.predict_proba", "rows"),
    ("phishguard.models.tree", "DecisionTree.predict_proba", "models.predict_proba", "rows"),
    ("phishguard.models.ensemble", "Ensemble.predict_proba", "models.predict_proba", "rows"),
    ("phishguard.cli", "train_linear", "models.fit.logistic", ""),
    ("phishguard.cli", "train_tree", "models.fit.tree", ""),
    ("phishguard.cli", "train_gbt", "models.fit.gbt", ""),
    ("phishguard.cli", "train_forest", "models.fit.forest", ""),
    ("phishguard.models", "train_gbt", "models.fit.gbt", ""),
    ("phishguard.models", "train_forest", "models.fit.forest", ""),
    ("phishguard.models.tree", "build_tree", "models.build_tree", ""),
    ("phishguard.models.ensemble", "build_tree", "models.build_tree", ""),
    ("phishguard.cli", "save_model", "models.save_model", ""),
    ("phishguard.models", "save_model", "models.save_model", ""),
    ("phishguard.cli", "load_model", "models.load_model", ""),
    ("phishguard.models", "load_model", "models.load_model", ""),
    ("phishguard.server", "lime_explain", "explain.lime_explain", ""),
    ("phishguard.server", "shap_linear", "explain.shap_linear", ""),
    ("phishguard.cli", "shap_linear", "explain.shap_linear", ""),
    ("phishguard.cli", "information_gain_all", "explain.information_gain_all", ""),
    ("phishguard.cli", "cross_validate", "metrics.cross_validate", ""),
    ("phishguard.metrics", "roc_auc", "metrics.roc_auc", ""),
    ("phishguard.cli", "load_csv", "datasets.load_csv", ""),
    ("phishguard.datasets", "load_csv", "datasets.load_csv", ""),
    ("phishguard.robustness", "build_contexts", "robustness.build_contexts", ""),
    ("phishguard.robustness", "inject_attack", "robustness.inject_attack", ""),
    ("phishguard.robustness", "mitigate", "robustness.mitigate", ""),
    ("phishguard.robustness", "cis", "robustness.cis", ""),
    ("phishguard.robustness", "csi", "robustness.csi", ""),
)

_ID_RE = re.compile(r'"id"\s*:\s*"([^"]*)"')


class Recorder:
    """Spans as tuples (name, start_ns, end_ns, span_id, parent_id,
    request_id, rows, raised), kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.servers: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, kind: str = ""):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, rid = stack[-1] if stack else (0, None)
            rows = None
            if kind == "request":
                match = _ID_RE.search(args[-1]) if isinstance(args[-1], str) else None
                rid = match.group(1) if match else None
            elif kind == "rows":
                x = args[1] if len(args) > 1 else kwargs.get("x")
                shape = getattr(x, "shape", None)
                rows = 1 if shape is None or len(shape) < 2 else int(shape[0])
            sid = next(ids)
            stack.append((sid, rid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((name, start, clock(), sid, parent, rid, rows, True))
                raise
            end = clock()
            stack.pop()
            spans.append((name, start, end, sid, parent, rid, rows, False))
            return result

        return traced

    def install(self) -> list[str]:
        """Install every wrapper that finds its target; return the ones
        that did not, so a renamed function shows up in the report."""
        missing = []
        for module_name, attr, name, kind in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, original, kind))
        self._watch_servers()
        return missing

    def _watch_servers(self) -> None:
        try:
            from phishguard.server import PhishingServer
        except ImportError:
            return
        original = PhishingServer.__init__
        servers = self.servers

        @functools.wraps(original)
        def init(server, *args, **kwargs):
            original(server, *args, **kwargs)
            servers.append(server)

        PhishingServer.__init__ = init

    def dump(self, path: str, argv: list[str], missing: list[str]) -> None:
        audit = sum(len(getattr(s, "audit_log", ())) for s in self.servers)
        with open(path, "w") as fh:
            json.dump({"argv": argv, "missing": missing, "audit_log_entries": audit,
                       "spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    spans_out, target, *rest = argv
    recorder = Recorder()
    import phishguard.cli  # noqa: F401 - bind every module before wrapping

    missing = recorder.install()
    code = 0
    try:
        if target == "cli":
            code = phishguard.cli.main(rest)
        else:
            sys.argv = list(rest)
            try:
                runpy.run_path(rest[0], run_name="__main__")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        recorder.dump(spans_out, [target, *rest], missing)
    return code


# --------------------------------------------------------------------------
# Per-layer table


def _per_call(durations_ns, scale) -> tuple[float, int]:
    """(median in the metric's unit, sample count); 0 for a layer the run
    never reached."""
    return (median(durations_ns) / scale if durations_ns else 0.0, len(durations_ns))


def _self_ns(span, children) -> int:
    """Duration minus the part of it that child spans cover."""
    start, end = span[1], span[2]
    covered, cursor = 0, start
    for c_start, c_end in sorted((c[1], c[2]) for c in children):
        c_start, c_end = max(c_start, cursor), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


class Trace:
    """Spans of one traced process, indexed for the per-layer table."""

    def __init__(self, doc: dict):
        self.argv = doc["argv"]
        self.missing = doc["missing"]
        self.audit_log_entries = doc["audit_log_entries"]
        self.spans = [tuple(s) for s in doc["spans"]]
        self.by_id = {s[3]: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            self.children[s[4]].append(s)

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as fh:
            return cls(json.load(fh))

    @property
    def subcommand(self) -> str:
        return self.argv[1] if self.argv[0] == "cli" else "script"

    @property
    def model_kind(self) -> str | None:
        """The `--model` of a `train` job."""
        if self.subcommand == "train" and "--model" in self.argv:
            return self.argv[self.argv.index("--model") + 1]
        return None

    def named(self, name: str):
        return [s for s in self.spans if s[0] == name]

    def has_ancestor(self, span, name: str) -> bool:
        parent = self.by_id.get(span[4])
        while parent is not None:
            if parent[0] == name:
                return True
            parent = self.by_id.get(parent[4])
        return False


# metric -> (span name, divisor from ns); each is a median per call
_DURATIONS = {
    "server.provenance_score_us": ("server.provenance_score", 1e3),
    "server.classify_with_fusion_us": ("server.classify_with_fusion", 1e3),
    "server.create_context_us": ("server.create_context", 1e3),
    "server.pcs_config_ms": ("server.pcs_config", 1e6),
    "features.parse_url_us": ("features.parse_url", 1e3),
    "features.extract_lexical_us": ("features.extract_lexical", 1e3),
    "features.resolve_remaining_us": ("features.resolve_remaining", 1e3),
    "features.to_canonical_vector_us": ("features.to_canonical_vector", 1e3),
    "models.fit_s.logistic": ("models.fit.logistic", 1e9),
    "models.fit_s.tree": ("models.fit.tree", 1e9),
    "models.fit_s.gbt": ("models.fit.gbt", 1e9),
    "models.fit_s.forest": ("models.fit.forest", 1e9),
    "models.build_tree_ms": ("models.build_tree", 1e6),
    "models.save_model_ms": ("models.save_model", 1e6),
    "models.load_model_ms": ("models.load_model", 1e6),
    "explain.lime_explain_ms": ("explain.lime_explain", 1e6),
    "explain.information_gain_all_ms": ("explain.information_gain_all", 1e6),
    "metrics.roc_auc_ms": ("metrics.roc_auc", 1e6),
    "datasets.load_csv_ms": ("datasets.load_csv", 1e6),
    "robustness.build_contexts_ms": ("robustness.build_contexts", 1e6),
    "robustness.inject_attack_ms": ("robustness.inject_attack", 1e6),
    "robustness.mitigate_ms": ("robustness.mitigate", 1e6),
    "robustness.cis_ms": ("robustness.cis", 1e6),
    "robustness.csi_ms": ("robustness.csi", 1e6),
}

# Every per-layer metric with its unit and direction, in report order.
PER_LAYER = {
    "server.provenance_score_us": ("us", "lower"),
    "server.classify_with_fusion_us": ("us", "lower"),
    "server.fusion_calls_per_classify": ("count", "lower"),
    "server.create_context_us": ("us", "lower"),
    "server.handle_line_self_us": ("us", "lower"),
    "server.transport_us": ("us", "lower"),
    "server.audit_log_entries_per_kreq": ("count/kreq", "lower"),
    "server.pcs_config_ms": ("ms", "lower"),
    "features.parse_url_us": ("us", "lower"),
    "features.extract_lexical_us": ("us", "lower"),
    "features.resolve_remaining_us": ("us", "lower"),
    "features.to_canonical_vector_us": ("us", "lower"),
    "models.predict_proba_single_us": ("us", "lower"),
    "models.predict_proba_batch_ms": ("ms", "lower"),
    "models.fit_s.logistic": ("s", "lower"),
    "models.fit_s.tree": ("s", "lower"),
    "models.fit_s.gbt": ("s", "lower"),
    "models.fit_s.forest": ("s", "lower"),
    "models.fits_per_train_job": ("count", "lower"),
    "models.build_tree_ms": ("ms", "lower"),
    "models.build_tree_calls": ("count", "lower"),
    "models.save_model_ms": ("ms", "lower"),
    "models.load_model_ms": ("ms", "lower"),
    "explain.lime_explain_ms": ("ms", "lower"),
    "explain.shap_linear_us": ("us", "lower"),
    "explain.information_gain_all_ms": ("ms", "lower"),
    "explain.shap_linear_calls_at_startup": ("count", "lower"),
    "metrics.cross_validate_s": ("s", "lower"),
    "metrics.roc_auc_ms": ("ms", "lower"),
    "datasets.load_csv_ms": ("ms", "lower"),
    "robustness.build_contexts_ms": ("ms", "lower"),
    "robustness.inject_attack_ms": ("ms", "lower"),
    "robustness.mitigate_ms": ("ms", "lower"),
    "robustness.cis_ms": ("ms", "lower"),
    "robustness.csi_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def per_layer(traces: list[Trace], client_rtt_ns: dict[str, int]) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count) over the traced processes of one run.

    Timings are medians per call. A layer the workload never reaches
    reads 0 with 0 samples. `client_rtt_ns` maps request id to the
    client's round trip, for the transport share.
    """
    out: dict[str, tuple[float, int]] = {}
    for metric, (span, scale) in _DURATIONS.items():
        durations = [s[2] - s[1] for t in traces for s in t.named(span)]
        out[metric] = _per_call(durations, scale)

    handle = [(t, s) for t in traces for s in t.named("server.handle_line")]
    self_ns = [_self_ns(s, t.children[s[3]]) for t, s in handle]
    out["server.handle_line_self_us"] = _per_call(self_ns, 1e3)
    transport = [client_rtt_ns[s[5]] - (s[2] - s[1]) for _, s in handle if s[5] in client_rtt_ns]
    out["server.transport_us"] = _per_call(transport, 1e3)
    audit = sum(t.audit_log_entries for t in traces)
    out["server.audit_log_entries_per_kreq"] = (1e3 * audit / len(handle) if handle else 0.0,
                                                len(handle))

    # Per classify_url call that returned; bad URLs raise before any fusion.
    classify = sum(1 for t in traces for s in t.named("server.tool.classify_url") if not s[7])
    fusion = sum(1 for t in traces for s in t.named("server.classify_with_fusion")
                 if t.has_ancestor(s, "server.tool.classify_url"))
    out["server.fusion_calls_per_classify"] = (fusion / classify if classify else 0.0, classify)

    top = [(s[6], s[2] - s[1]) for t in traces for s in t.named("models.predict_proba")
           if t.by_id.get(s[4], ("",))[0] != "models.predict_proba"]
    single = [d for rows, d in top if rows == 1]
    batch = [d for rows, d in top if rows and rows > 1]
    out["models.predict_proba_single_us"] = _per_call(single, 1e3)
    out["models.predict_proba_batch_ms"] = _per_call(batch, 1e6)

    # CV of the logistic train job: its fits are cheapest, so CV
    # bookkeeping shows there; a tree job's CV is mostly fitting.
    cv = [s[2] - s[1] for t in traces if t.model_kind == "logistic"
          for s in t.named("metrics.cross_validate")]
    out["metrics.cross_validate_s"] = _per_call(cv, 1e9)

    train_jobs = [t for t in traces if t.subcommand == "train"]
    fits = sum(1 for t in train_jobs for s in t.spans if s[0].startswith("models.fit."))
    out["models.fits_per_train_job"] = (fits / len(train_jobs) if train_jobs else 0.0,
                                        len(train_jobs))
    builds = sum(len(t.named("models.build_tree")) for t in traces)
    out["models.build_tree_calls"] = (float(builds), builds)

    shap = [(t, s) for t in traces for s in t.named("explain.shap_linear")]
    served = [s[2] - s[1] for t, s in shap if t.has_ancestor(s, "server.handle_line")]
    startup = sum(1 for t, s in shap
                  if t.subcommand == "serve" and not t.has_ancestor(s, "server.handle_line"))
    out["explain.shap_linear_us"] = _per_call(served, 1e3)
    serve_procs = sum(1 for t in traces if t.subcommand == "serve")
    out["explain.shap_linear_calls_at_startup"] = (
        startup / serve_procs if serve_procs else 0.0, serve_procs)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import dataclasses
import functools
import io
import json
import socket
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset
from phishguard.errors import EmptyReferenceSet, PhishguardError
from phishguard.explain import fuse_weights, identity_fusion, shap_linear
from phishguard.features import (
    CANONICAL_FEATURES,
    PrecomputedResolver,
    extract_features,
    to_canonical_vector,
)
from phishguard.models import (
    LinearModel,
    TrainConfig,
    load_model,
    train_forest,
    train_gbt,
    train_linear,
    train_mlp,
    train_tree,
)
from phishguard.context import (
    FEATURE_DESCRIPTIONS,
    IsolatedContext,
    PcsConfig,
    classify_with_fusion,
    provenance_score,
)
from phishguard.server import EXPLAIN_MEMO_SIZE, TOOLS, PhishingServer

DATA = Path(__file__).resolve().parent / "data"


def trained_model():
    ds = make_ternary_dataset(n=300, seed=0)
    return train_linear(ds)


def make_server(pcs=None):
    return PhishingServer(trained_model(), pcs=pcs)


def call(server, tool, arguments=None, request_id="r1"):
    request = {"id": request_id, "tool": tool, "arguments": arguments or {}}
    return json.loads(server.handle_line(json.dumps(request)))


def mixed_pcs():
    """A reference where "UCI" is held by some rows but not all, so a
    claim of it scans for the nearest rows."""
    return PcsConfig(make_ternary_dataset(n=50, seed=1, provenance=("UCI", "Mendeley")))


class TestProtocol:
    def test_server_info_lists_tools(self):
        response = call(make_server(), "server_info")
        assert response["status"] == "ok"
        assert response["result"]["tools"] == list(TOOLS)
        assert "model_version" in response["result"]

    def test_extract_features_full_vector(self):
        response = call(make_server(), "extract_features",
                        {"url": "http://192.168.1.1/login"})
        result = response["result"]
        assert set(result) == set(CANONICAL_FEATURES)
        assert result["having_IP_Address"] == 1

    def test_classify_returns_label_probability_rationale(self):
        response = call(make_server(), "classify_url",
                        {"url": "http://secure-paypal.bit.ly//redirect@evil"})
        result = response["result"]
        assert result["label"] in ("phishing", "legitimate")
        assert 0.0 <= float(result["probability"]) <= 1.0
        assert isinstance(result["rationale"], list)
        assert len(result["rationale"]) <= 3

    def test_classify_reuses_the_context_outcome(self, monkeypatch):
        import phishguard.server as server_module

        outcomes = []

        def recording(*args):
            outcomes.append(classify_with_fusion(*args))
            return outcomes[-1]

        monkeypatch.setattr(server_module, "classify_with_fusion", recording)
        result = call(make_server(), "classify_url",
                      {"url": "http://secure-paypal.bit.ly//redirect@evil"})["result"]
        assert len(outcomes) == 1
        (outcome,) = outcomes
        assert result["label"] == outcome["label"]
        assert result["probability"] == f"{outcome['probability']:.6f}"
        assert result["rationale"] == outcome["rationale"]

    def test_explain_url_ranked_attributions(self):
        response = call(make_server(), "explain_url", {"url": "http://a.com/x"})
        attributions = response["result"]["attributions"]
        assert len(attributions) == 23
        mags = [abs(a["attribution"]) for a in attributions]
        assert mags == sorted(mags, reverse=True)

    def test_parse_error_null_id(self):
        response = json.loads(make_server().handle_line("this is not json"))
        assert response["status"] == "error"
        assert response["error"]["code"] == "PARSE_ERROR"
        assert response["id"] is None

    def test_missing_id_is_parse_error(self):
        response = json.loads(
            make_server().handle_line(json.dumps({"tool": "server_info"}))
        )
        assert response["error"]["code"] == "PARSE_ERROR"

    def test_tool_not_found(self):
        response = call(make_server(), "steal_credentials")
        assert response["error"]["code"] == "TOOL_NOT_FOUND"
        assert response["id"] == "r1"

    def test_malformed_url(self):
        response = call(make_server(), "classify_url", {"url": "ht!tp://"})
        assert response["error"]["code"] == "MALFORMED_URL"

    def test_missing_url_argument(self):
        response = call(make_server(), "classify_url", {})
        assert response["error"]["code"] == "MALFORMED_URL"

    def test_internal_error_caught(self):
        server = make_server()
        server.model = None  # force an unexpected failure
        response = call(server, "classify_url", {"url": "http://a.com"})
        assert response["error"]["code"] == "INTERNAL"

    def test_claims_that_are_not_strings_score_zero(self):
        reference = make_ternary_dataset(n=50, seed=1, provenance=("UCI",))
        server = make_server(PcsConfig(reference))
        for claimed in (["x"], {"a": 1}, None, 5):
            response = call(server, "classify_url",
                            {"url": "http://a.com", "provenance": claimed})
            assert response["status"] == "ok"
            assert response["result"]["pcs"] == "0.000000"
            assert response["result"]["flagged"] is True

    def test_responses_are_single_lines(self):
        server = make_server()
        out = server.handle_line(json.dumps({"id": "x", "tool": "server_info"}))
        assert "\n" not in out

    def test_classify_with_a_scanned_claim_replies(self):
        response = call(make_server(mixed_pcs()), "classify_url",
                        {"url": "http://a.com", "provenance": "UCI"})
        assert response["status"] == "ok"
        assert response["result"]["pcs"] == "0.800000"
        assert response["result"]["flagged"] is False

    @pytest.mark.parametrize("arguments", ["[1]", "[]", '""', '"x"', "0", "1", "false", "true"])
    @pytest.mark.parametrize("tool", TOOLS)
    def test_non_object_arguments_are_parse_errors(self, tool, arguments):
        line = '{"id": "r1", "tool": "%s", "arguments": %s}' % (tool, arguments)
        response = json.loads(make_server().handle_line(line))
        assert response["id"] == "r1"
        assert response["error"] == {"code": "PARSE_ERROR",
                                     "message": "arguments must be a JSON object"}

    @pytest.mark.parametrize("arguments", [', "arguments": null', ""])
    def test_absent_or_null_arguments_are_empty(self, arguments):
        server = make_server()
        info = server.handle_line('{"id": "r1", "tool": "server_info"%s}' % arguments)
        assert json.loads(info)["status"] == "ok"
        extract = server.handle_line('{"id": "r1", "tool": "extract_features"%s}' % arguments)
        assert json.loads(extract)["error"]["code"] == "MALFORMED_URL"

    def test_extract_features_golden_replies(self):
        recorded = json.loads((DATA / "extract_replies.json").read_text())
        model = load_model(DATA / "gbt_v1.json")
        for case in recorded["cases"]:
            resolver = case["resolver"] and PrecomputedResolver(case["resolver"])
            server = PhishingServer(model, resolver=resolver)
            assert server.handle_line(case["request"]) == case["reply"]

    def test_unencodable_result_is_internal(self, monkeypatch):
        server = make_server()
        monkeypatch.setattr(server, "_tool_server_info", lambda *args: {"x": object()})
        response = call(server, "server_info")
        assert response["status"] == "error"
        assert response["error"]["code"] == "INTERNAL"


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=20))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
URLS = st.one_of(
    st.text(max_size=60),
    st.builds(lambda host, path: f"http://{host}/{path}",
              st.from_regex(r"[a-z0-9@.\-]{1,20}", fullmatch=True), st.text(max_size=20)),
)
ARGUMENTS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({}, optional={"url": st.one_of(URLS, JSON_VALUES),
                                        "provenance": st.one_of(st.sampled_from(["UCI", "Mendeley"]),
                                                                JSON_VALUES)}),
)
REQUESTS = st.fixed_dictionaries({}, optional={
    "id": JSON_VALUES,
    "tool": st.one_of(st.sampled_from(TOOLS), JSON_VALUES),
    "arguments": ARGUMENTS,
})


class TestProtocolTotality:
    """Any line gets exactly one JSON reply, "ok" or "error"."""

    server = make_server(mixed_pcs())

    def assert_one_reply(self, line):
        reply = self.server.handle_line(line)
        assert "\n" not in reply
        assert json.loads(reply)["status"] in ("ok", "error")

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.text(max_size=200))
    def test_any_text_line(self, line):
        self.assert_one_reply(line)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(REQUESTS)
    def test_any_json_request(self, request):
        self.assert_one_reply(json.dumps(request))


class TestStdioTransport:
    def test_pipe_round_trip(self):
        requests = "\n".join([
            json.dumps({"id": "1", "tool": "server_info"}),
            "garbage",
            json.dumps({"id": "2", "tool": "extract_features",
                        "arguments": {"url": "http://a.com"}}),
        ]) + "\n"
        stdout = io.StringIO()
        make_server().serve_stdio(stdin=io.StringIO(requests), stdout=stdout)
        lines = stdout.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["status"] == "ok"
        assert json.loads(lines[1])["error"]["code"] == "PARSE_ERROR"
        assert json.loads(lines[2])["status"] == "ok"


class TestTcpTransport:
    def test_tcp_round_trip(self):
        server = make_server()
        tcp = server.serve_tcp(0)
        port = tcp.server_address[1]
        thread = threading.Thread(target=tcp.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as conn:
                conn.sendall((json.dumps({"id": "1", "tool": "server_info"}) + "\n").encode())
                response = json.loads(conn.makefile().readline())
            assert response["status"] == "ok"
        finally:
            tcp.shutdown()
            tcp.server_close()

    def test_nagle_disabled_on_accepted_connections(self):
        tcp = make_server().serve_tcp(0)
        nodelay = []

        class Probe(tcp.RequestHandlerClass):
            def setup(self):
                super().setup()
                nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                                          socket.TCP_NODELAY))

        tcp.RequestHandlerClass = Probe
        thread = threading.Thread(target=tcp.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(("127.0.0.1", tcp.server_address[1]),
                                          timeout=5) as conn:
                conn.sendall((json.dumps({"id": "1", "tool": "server_info"}) + "\n").encode())
                conn.makefile().readline()
            assert len(nodelay) == 1 and nodelay[0] != 0
        finally:
            tcp.shutdown()
            tcp.server_close()


class TestConcurrency:
    def test_64_threads_match_serial(self):
        server = make_server()
        urls = [f"http://site{i}.example.com/page{i}" for i in range(64)]
        serial = [call(make_server(), "classify_url", {"url": u}, f"s{i}")
                  for i, u in enumerate(urls)]

        results = [None] * 64

        def worker(i):
            results[i] = call(server, "classify_url", {"url": urls[i]}, f"c{i}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got, want in zip(results, serial):
            assert got["result"]["probability"] == want["result"]["probability"]
            assert got["result"]["label"] == want["result"]["label"]
        assert len(server.audit_log) == 64

    def test_audit_log_append_only_and_sealed(self):
        server = make_server()
        for i in range(5):
            call(server, "classify_url", {"url": f"http://a{i}.com"}, f"r{i}")
        assert len(server.audit_log) == 5
        for ctx in server.audit_log:
            with pytest.raises(dataclasses.FrozenInstanceError):
                ctx.probability = 0.0
            with pytest.raises(ValueError):
                ctx.vector[0] = 1.0
        refs = [ctx.request_ref for ctx in server.audit_log]
        assert refs == [f"r{i}" for i in range(5)]


def explain_line(url, request_id="e"):
    return json.dumps({"id": request_id, "tool": "explain_url", "arguments": {"url": url}})


@functools.cache
def served_model(kind):
    ds = make_ternary_dataset(n=200, seed=5)
    return {
        "logistic": train_linear,
        "tree": train_tree,
        "forest": lambda ds: train_forest(ds, n_trees=5),
        "gbt": lambda ds: train_gbt(ds, n_rounds=10),
        "mlp": lambda ds: train_mlp(ds, [8, 1], TrainConfig(seed=1, max_epochs=20)),
    }[kind](ds)


EXPLAIN_URLS = [
    "https://www.paypal.com/signin",
    "http://192.168.1.1/login",
    "http://secure-paypal.bit.ly//redirect@evil",
    "https://www.paypal.com/signin",
    "https://www.paypel.com/signin",  # same vector as the paypal.com URL
    "http://a-b.c.d.example.com/x",
]


class TestExplainMemo:
    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest", "gbt", "mlp"])
    def test_warm_server_replies_as_a_fresh_one(self, kind):
        model = served_model(kind)
        warm = PhishingServer(model)
        for url in EXPLAIN_URLS:
            warm.handle_line(explain_line(url))
        for url in EXPLAIN_URLS:
            fresh = PhishingServer(model).handle_line(explain_line(url))
            assert warm.handle_line(explain_line(url)) == fresh
        info = warm._attributions.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        assert info.hits == 2 * len(EXPLAIN_URLS) - 4

    def test_golden_replies_on_a_warm_server(self):
        recorded = json.loads((DATA / "explain_replies.json").read_text())
        server = PhishingServer(load_model(DATA / recorded["model"]))
        for _ in range(2):
            for case in recorded["cases"]:
                assert server.handle_line(case["request"]) == case["reply"]

    def test_one_fit_per_distinct_vector(self, monkeypatch):
        import phishguard.server as server_module

        fits = []

        def counting(model, x, background):
            fits.append(x.tobytes())
            return shap_linear(model, x, background)

        monkeypatch.setattr(server_module, "shap_linear", counting)
        server = make_server()
        for url in EXPLAIN_URLS * 2:
            assert json.loads(server.handle_line(explain_line(url)))["status"] == "ok"
        assert len(fits) == len(set(fits)) == 4

    def test_bounded_to_the_most_recent_vectors(self):
        assert EXPLAIN_MEMO_SIZE == 1024
        server = make_server()
        # each length of URL is a distinct URL_Length, so a distinct vector
        for i in range(EXPLAIN_MEMO_SIZE + 5):
            server.handle_line(explain_line("http://a.com/" + "x" * i))
        info = server._attributions.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (1024, 1024, 1029)

    def test_cached_attributions_are_read_only(self):
        server = make_server()
        server.handle_line(explain_line("http://a.com/x"))
        vector = to_canonical_vector(extract_features("http://a.com/x", server.resolver))
        method, attributions = server._attributions(vector.tobytes())
        assert method == "shap_linear"
        assert server._attributions.cache_info().hits == 1
        with pytest.raises(ValueError):
            attributions[0] = 1.0

    def test_32_threads_match_serial(self):
        model = served_model("gbt")
        urls = [f"http://site{i}.example.com/" + "p" * i for i in range(8)]
        lines = [explain_line(urls[i % 8], f"e{i}") for i in range(32)]
        serial_server = PhishingServer(model)
        serial = [serial_server.handle_line(line) for line in lines]
        server = PhishingServer(model)
        results = [None] * 32
        start = threading.Barrier(32, timeout=30)

        def worker(i):
            start.wait()
            results[i] = server.handle_line(lines[i])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the memo's miss path
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial
        assert server._attributions.cache_info().currsize == 8


class TestIsolatedContext:
    def make(self, prob=0.9):
        outcome = {"probability": prob, "y_hat": 1, "rationale": []}
        return IsolatedContext.from_outcome(outcome, context_id="c1", request_ref="r1",
                                            names=("URL_Length",), vector=[20.0],
                                            provenance="UCI")

    def test_digest_stable(self):
        assert self.make().seal_digest() == self.make().seal_digest()

    def test_digest_detects_tamper(self):
        ctx = self.make()
        tampered = dataclasses.replace(ctx, vector=np.array([999.0]))
        assert tampered.seal_digest() != ctx.seal_digest()

    def test_digest_sensitive_to_probability(self):
        assert self.make(0.9).seal_digest() != self.make(0.1).seal_digest()


def scan_score(x, pcs, claimed):
    """The reference rule: standardise, measure every distance, and keep
    the first k of a stable sort of all of them."""
    X = pcs.reference.X
    std = X.std(axis=0)
    mean, scale = X.mean(axis=0), np.where(std > 0, std, 1.0)
    Z = (X - mean) / scale
    z = (np.asarray(x, dtype=float) - mean) / scale
    distances = np.sqrt(((Z - z) ** 2).sum(axis=1))
    nearest = np.argsort(distances, kind="stable")[: pcs.k]
    matches = sum(1 for i in nearest if pcs.reference.provenance[i] == claimed)
    score = matches / pcs.k
    return score, score < pcs.threshold, claimed


class TestProvenanceScore:
    def reference(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                      [5.0, 5.0], [5.1, 5.0]])
        prov = ("UCI", "UCI", "UCI", "Mendeley", "Mendeley")
        return Dataset(X, np.zeros(5, dtype=int), ("a", "b"), prov)

    def test_all_neighbors_match(self):
        pcs = PcsConfig(self.reference(), k=3, threshold=0.5)
        score, flagged, _ = provenance_score([0.05, 0.05], pcs, "UCI")
        assert score == 1.0
        assert not flagged

    def test_no_neighbors_match(self):
        pcs = PcsConfig(self.reference(), k=3, threshold=0.5)
        score, flagged, _ = provenance_score([0.05, 0.05], pcs, "Mendeley")
        assert score == 0.0
        assert flagged

    def test_fractional_score(self):
        pcs = PcsConfig(self.reference(), k=5, threshold=0.7)
        score, flagged, _ = provenance_score([0.0, 0.0], pcs, "UCI")
        assert score == pytest.approx(3 / 5)
        assert flagged  # 0.6 < 0.7

    def test_nan_cell_ranks_every_row_by_index(self):
        # a NaN cell makes every distance NaN, so the k nearest are the
        # first k rows
        X = np.array([[0.0], [np.nan], [0.0], [0.0]])
        ref = Dataset(X, np.zeros(4, dtype=int), ("a",), ("A", "B", "A", "B"))
        pcs = PcsConfig(ref, k=2)
        assert provenance_score([0.0], pcs, "A") == (0.5, False, "A")
        assert provenance_score([0.0], pcs, "A") == scan_score([0.0], pcs, "A")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing cells
    def test_matches_full_scan_on_random_references(self):
        rng = np.random.default_rng(2024)
        kinds = ("ternary", "normal", "huge")
        for _ in range(1500):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            columns = []
            for kind in rng.choice(kinds, size=d, p=(0.4, 0.4, 0.2)):
                if kind == "ternary":  # heavy distance ties
                    columns.append(rng.choice([-1.0, 0.0, 1.0], size=n))
                elif kind == "normal":
                    columns.append(np.round(rng.normal(size=n), 1))
                else:  # overflows give NaN distances to some rows only
                    columns.append(rng.choice([-1.7e308, 1.7e308, 0.0], size=n))
            X = np.stack(columns, axis=1)
            if rng.random() < 0.3:
                X[rng.random(X.shape) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
            names = ("A", "B", "C")[: int(rng.integers(1, 4))]
            prov = tuple(rng.choice(names, size=n).tolist())
            ref = Dataset(X, np.zeros(n, dtype=int), tuple(f"f{j}" for j in range(d)), prov)
            pcs = PcsConfig(ref, k=int(rng.integers(1, n + 1)),
                            threshold=float(rng.choice([0.3, 0.5, 0.8])))
            x = X[rng.integers(n)].copy() if rng.random() < 0.5 else \
                rng.choice([-1.0, 0.0, 1.0], size=d)
            x[rng.random(d) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
            for claimed in names + ("Absent",):
                assert provenance_score(x, pcs, claimed) == scan_score(x, pcs, claimed)

    def test_empty_reference_rejected(self):
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ("a", "b"))
        with pytest.raises(EmptyReferenceSet):
            PcsConfig(empty, k=1)

    def test_bad_k(self):
        with pytest.raises(PhishguardError):
            PcsConfig(self.reference(), k=9)


class TestClassifyWithFusion:
    def test_identity_fusion_matches_plain_model(self):
        model = trained_model()
        fusion = identity_fusion(model.feature_names)
        x = np.ones(23)
        outcome = classify_with_fusion(x, model, fusion)
        assert outcome["probability"] == pytest.approx(
            float(model.predict_proba(x))
        )

    def test_zero_weights_zero_embedding(self):
        model = LinearModel(weights=np.ones(2), bias=0.0,
                            feature_names=("a", "b"))
        fusion = identity_fusion(("a", "b"))
        fusion.weights = {"a": 0.0, "b": 0.0}
        outcome = classify_with_fusion(np.array([3.0, -2.0]), model, fusion)
        assert outcome["probability"] == pytest.approx(0.5)
        assert outcome["rationale"] == []

    def test_rationale_names_are_human_readable(self):
        model = trained_model()
        outcome = classify_with_fusion(np.ones(23), model,
                                       identity_fusion(model.feature_names))
        for sentence in outcome["rationale"]:
            assert sentence in FEATURE_DESCRIPTIONS.values()

    def test_argmax_invariant_to_uniform_scaling(self):
        # scaling every fusion weight by the same constant must not change
        # which features top the rationale
        model = trained_model()
        fusion = identity_fusion(model.feature_names)
        x = np.ones(23)
        base = classify_with_fusion(x, model, fusion)
        fusion.weights = {n: 2.0 for n in model.feature_names}
        scaled = classify_with_fusion(x, model, fusion)
        assert scaled["rationale"] == base["rationale"]

    def test_label_threshold(self):
        model = LinearModel(weights=np.array([10.0]), bias=0.0,
                            feature_names=("a",))
        fusion = identity_fusion(("a",))
        up = classify_with_fusion(np.array([1.0]), model, fusion)
        down = classify_with_fusion(np.array([-1.0]), model, fusion)
        assert up["label"] == "phishing" and up["y_hat"] == 1
        assert down["label"] == "legitimate" and down["y_hat"] == 0

import io
import json
import socket
import threading

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset
from phishguard.errors import EmptyReferenceSet, PhishguardError
from phishguard.explain import fuse_weights, identity_fusion
from phishguard.features import CANONICAL_FEATURES
from phishguard.models import LinearModel, train_linear
from phishguard.server import (
    FEATURE_DESCRIPTIONS,
    TOOLS,
    IsolatedContext,
    PcsConfig,
    PhishingServer,
    classify_with_fusion,
    provenance_score,
)


def trained_model():
    ds = make_ternary_dataset(n=300, seed=0)
    return train_linear(ds)


def make_server(pcs=None):
    return PhishingServer(trained_model(), pcs=pcs)


def call(server, tool, arguments=None, request_id="r1"):
    request = {"id": request_id, "tool": tool, "arguments": arguments or {}}
    return json.loads(server.handle_line(json.dumps(request)))


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

    def test_responses_are_single_lines(self):
        server = make_server()
        out = server.handle_line(json.dumps({"id": "x", "tool": "server_info"}))
        assert "\n" not in out


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
        assert all(ctx.sealed for ctx in server.audit_log)
        refs = [ctx.request_ref for ctx in server.audit_log]
        assert refs == [f"r{i}" for i in range(5)]


class TestIsolatedContext:
    def make(self, prob=0.9):
        return IsolatedContext(
            context_id="c1", request_ref="r1",
            features={"URL_Length": 20.0}, vector=np.zeros(1),
            probability=prob, label=1, provenance="UCI",
        ).seal()

    def test_digest_stable(self):
        assert self.make().seal_digest() == self.make().seal_digest()

    def test_digest_detects_tamper(self):
        ctx = self.make()
        before = ctx.seal_digest()
        ctx.features["URL_Length"] = 999.0
        assert ctx.seal_digest() != before

    def test_digest_sensitive_to_probability(self):
        assert self.make(0.9).seal_digest() != self.make(0.1).seal_digest()


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

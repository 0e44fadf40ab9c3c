import contextlib
import dataclasses
import functools
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_ternary_dataset
from phishguard import cli, server as server_module
from phishguard.datasets import Dataset, save_csv
from phishguard.errors import (EmptyReferenceSet, PhishguardError, UnservableModel,
                               UnservableReference)
from phishguard.explain import FusionWeights, shap_linear
from phishguard.features import (
    CANONICAL_FEATURES,
    RESOLVED_FEATURES,
    PrecomputedResolver,
    extract_features,
    to_canonical_vector,
)
from phishguard.models import (
    LinearModel,
    TrainConfig,
    load_model,
    save_model,
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
from phishguard.server import TOOLS, VECTOR_MEMO_SIZE, PhishingServer

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
        assert result["label"] == ("legitimate", "phishing")[outcome["y_hat"]]
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

    @pytest.mark.parametrize("url", ["http://[abc/", "http://a.com]/", "http://\u2100.com/",
                                     "[::1", "a.com]/x"])
    @pytest.mark.parametrize("tool", ["classify_url", "explain_url", "extract_features"])
    def test_urls_urlsplit_refuses_are_malformed(self, tool, url):
        # an unclosed IPv6 bracket, or a netloc that NFKC changes
        response = call(make_server(), tool, {"url": url})
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
        for claimed in ([1], ["x"], {"a": 1}, None, 5, 1, True, 1.0) * 2:
            response = call(server, "classify_url",
                            {"url": "http://a.com", "provenance": claimed})
            assert response["status"] == "ok"
            assert response["result"]["pcs"] == "0.000000"
            assert response["result"]["flagged"] is True
        # arrays and objects cannot key the classify memo; 1, True and 1.0
        # are equal but keyed apart by type
        assert server._classify_texts.cache_info().currsize == 5

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
        monkeypatch.setattr(server_module, "extract_features", lambda *args: {"x": object()})
        response = call(server, "extract_features", {"url": "http://a.com"})
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


def nested(depth: int, opener: str, closed: bool) -> str:
    """A JSON value `depth` arrays or objects deep, or its unclosed prefix."""
    if opener == "[":
        return "[" * depth + ("1" + "]" * depth if closed else "")
    return '{"a": ' * depth + ("1" + "}" * depth if closed else "")


DEEP_VALUES = st.builds(nested, st.integers(1, 5000), st.sampled_from(["[", "{"]),
                        st.booleans())
# each slot is a request line with the value in one place
DEEP_SLOTS = (
    "%s",
    '{"id": %s, "tool": "server_info"}',
    '{"id": "r1", "tool": %s}',
    '{"id": "r1", "tool": "classify_url", "arguments": %s}',
    '{"id": "r1", "tool": "classify_url", "arguments": {"url": %s}}',
    '{"id": "r1", "tool": "classify_url", "arguments": {"url": "http://a.com", "provenance": %s}}',
)
DEEP_LINES = st.builds(lambda slot, value: slot % value, st.sampled_from(DEEP_SLOTS),
                       DEEP_VALUES)


def reply_id(request_id):
    """The id a reply carries: JSON-RPC's string or integer ids, else null."""
    return request_id if type(request_id) in (str, int) else None


class TestProtocolTotality:
    """Any line gets exactly one JSON reply, "ok" or "error"."""

    server = make_server(mixed_pcs())

    def assert_one_reply(self, line):
        reply = self.server.handle_line(line)
        assert "\n" not in reply
        assert json.loads(reply)["status"] in ("ok", "error")
        return json.loads(reply)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.text(max_size=200))
    def test_any_text_line(self, line):
        self.assert_one_reply(line)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(REQUESTS)
    def test_any_json_request(self, request):
        reply = self.assert_one_reply(json.dumps(request))
        assert reply["id"] == reply_id(request.get("id"))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(DEEP_LINES)
    def test_any_deeply_nested_line(self, line):
        self.assert_one_reply(line)

    def test_5000_open_brackets_get_a_parse_error(self):
        reply = self.assert_one_reply("[" * 5000)
        assert reply["id"] is None and reply["error"]["code"] == "PARSE_ERROR"
        assert self.assert_one_reply('{"id": "r1", "tool": "server_info"}')["status"] == "ok"

    def test_an_integer_past_the_digit_limit_gets_a_parse_error(self):
        # json.loads refuses it with a ValueError that is no JSONDecodeError
        for line in ('{"id": %s, "tool": "server_info"}' % ("1" * 5000),
                     '{"id": "r1", "tool": "classify_url", "arguments": {"provenance": %s}}'
                     % ("9" * 5000)):
            reply = self.assert_one_reply(line)
            assert reply["id"] is None and reply["error"]["code"] == "PARSE_ERROR"

    def test_a_deeply_nested_id_gets_one_reply(self):
        # every depth from shallow to past what json parses: near that
        # limit an id parses but would no longer encode
        for depth in range(1, 1500, 3):
            reply = self.assert_one_reply(
                '{"id": %s, "tool": "server_info"}' % nested(depth, "[", True))
            assert reply["id"] is None and reply["error"]["code"] == "PARSE_ERROR"

    @pytest.mark.parametrize("request_id",
                             ["r1", 7, -3, "", 0, [1], {"a": 1}, 1.5, True, False, None])
    def test_only_string_and_integer_ids_are_echoed(self, request_id):
        reply = self.assert_one_reply(json.dumps({"id": request_id, "tool": "server_info"}))
        assert reply["id"] == reply_id(request_id)
        # "" and 0 are echoed, but refused as a missing id is
        assert (reply["status"] == "ok") is bool(reply_id(request_id))


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

    def test_5000_open_brackets_get_one_reply(self):
        requests = "[" * 5000 + "\n" + json.dumps({"id": "1", "tool": "server_info"}) + "\n"
        stdout = io.StringIO()
        make_server().serve_stdio(stdin=io.StringIO(requests), stdout=stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert len(replies) == 2
        assert replies[0]["id"] is None and replies[0]["error"]["code"] == "PARSE_ERROR"
        assert replies[1]["status"] == "ok"

    def test_invalid_utf8_is_answered_as_tcp_answers_it(self, tmp_path):
        # Python reads stdin strictly in any UTF-8 locale but C/POSIX; the
        # invalid line must get its reply and the server keep serving
        server = make_server()
        save_model(server.model, tmp_path / "m.json")
        lines = b"\xff\xfe\n" + request_line("1", "server_info")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "PYTHONIOENCODING": "utf-8:strict"}
        proc = subprocess.run(
            [sys.executable, "-m", "phishguard.cli", "serve", "--model", str(tmp_path / "m.json"),
             "--transport", "stdio"],
            input=lines, capture_output=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        replies = proc.stdout.splitlines()
        assert len(replies) == 2
        with serving(server) as tcp, connect(tcp) as conn:
            conn.sendall(lines)
            assert read_lines(conn, 2) == replies


def request_line(request_id, tool, arguments=None) -> bytes:
    request = {"id": request_id, "tool": tool}
    if arguments is not None:
        request["arguments"] = arguments
    return (json.dumps(request) + "\n").encode()


@contextlib.contextmanager
def serving(server):
    """A TCP transport whose loop runs in one thread until the block ends."""
    tcp = server.serve_tcp(0)
    thread = threading.Thread(target=tcp.serve_forever, daemon=True)
    thread.start()
    try:
        yield tcp
    finally:
        tcp.shutdown()
        thread.join(timeout=5)
        tcp.server_close()
    assert not thread.is_alive()


def connect(tcp, timeout=5.0) -> socket.socket:
    return socket.create_connection(("127.0.0.1", tcp.server_address[1]), timeout=timeout)


def read_lines(conn, n: int) -> list[bytes]:
    """The next n reply lines, without their newlines."""
    data = b""
    while data.count(b"\n") < n:
        chunk = conn.recv(65536)
        assert chunk, f"connection closed before {n} replies"
        data += chunk
    lines = data.split(b"\n")
    assert lines[n:] == [b""], "more replies than requests"
    return lines[:n]


class TestTcpTransport:
    def test_tcp_round_trip(self):
        with serving(make_server()) as tcp, connect(tcp) as conn:
            conn.sendall(request_line("1", "server_info"))
            response = json.loads(read_lines(conn, 1)[0])
        assert response["status"] == "ok"

    def test_nagle_disabled_on_accepted_connections(self, monkeypatch):
        accepted = []
        accept = socket.socket.accept

        def recording(self):
            sock, address = accept(self)
            accepted.append(sock)
            return sock, address

        monkeypatch.setattr(socket.socket, "accept", recording)
        with serving(make_server()) as tcp, connect(tcp) as conn:
            conn.sendall(request_line("1", "server_info"))
            read_lines(conn, 1)
            nodelay = [s.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) for s in accepted]
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_interleaved_pipelines_reply_in_order_as_stdio_does(self):
        server = make_server(mixed_pcs())
        streams = [
            [request_line(f"a{i}", "classify_url", {"url": f"http://a{i}.example.com/x",
                                                     "provenance": "UCI"})
             for i in range(6)] + [b"garbage\n", request_line("a-info", "server_info")],
            [request_line(f"b{i}", tool, {"url": f"http://b{i}.test/login@x"})
             for i, tool in enumerate(["explain_url", "extract_features", "classify_url"] * 2)]
            + [request_line("b-bad", "nope")],
        ]
        expected = []
        for lines in streams:
            stdout = io.StringIO()
            server.serve_stdio(io.StringIO(b"".join(lines).decode()), stdout)
            expected.append(stdout.getvalue().encode().splitlines())
        with serving(server) as tcp, connect(tcp) as a, connect(tcp) as b:
            conns = (a, b)
            for step in range(max(map(len, streams))):
                for conn, lines in zip(conns, streams):
                    conn.sendall(b"".join(lines[step:step + 1]))
            got = [read_lines(conn, len(lines)) for conn, lines in zip(conns, streams)]
        assert got == expected

    def test_half_close_answers_the_unterminated_last_line(self):
        with serving(make_server()) as tcp, connect(tcp) as conn:
            conn.sendall(request_line("1", "server_info") + b"\xff\xfe{\n" + b"\n"
                         + request_line("2", "server_info").rstrip(b"\n"))
            conn.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := conn.recv(65536):
                data += chunk
        replies = [json.loads(line) for line in data.splitlines()]
        assert [r["id"] for r in replies] == ["1", None, "2"]
        assert replies[1]["error"]["code"] == "PARSE_ERROR"
        assert data.endswith(b"\n")

    def test_a_line_that_raises_closes_only_its_connection(self, monkeypatch, capsys):
        server = make_server()
        handle_line = server.handle_line

        def failing(line):
            if line == "boom":
                raise RecursionError("maximum recursion depth exceeded")
            return handle_line(line)

        monkeypatch.setattr(server, "handle_line", failing)
        with serving(server) as tcp, connect(tcp) as doomed, connect(tcp) as other:
            doomed.sendall(b"boom\n")
            assert doomed.recv(65536) == b""
            other.sendall(request_line("2", "server_info"))
            assert json.loads(read_lines(other, 1)[0])["id"] == "2"
        assert "RecursionError: maximum recursion" in capsys.readouterr().err

    def test_connections_are_served_without_threads(self):
        with serving(make_server()) as tcp:
            before = threading.active_count()
            with connect(tcp) as a, connect(tcp) as b:
                for conn in (a, b):
                    conn.sendall(request_line("1", "server_info"))
                for conn in (a, b):
                    read_lines(conn, 1)
                assert threading.active_count() == before


class TestTcpBounds:
    def test_a_connection_over_the_cap_waits_for_one_to_close(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 1)
        with serving(make_server()) as tcp:
            with connect(tcp) as first:
                first.sendall(request_line("1", "server_info"))
                read_lines(first, 1)
                # the kernel completes the handshake, but the loop reads
                # nothing from the second while the first is open
                second = connect(tcp)
                second.sendall(request_line("2", "server_info"))
                second.settimeout(0.3)
                with pytest.raises(TimeoutError):
                    second.recv(1)
                second.settimeout(5)
            with second:
                assert json.loads(read_lines(second, 1)[0])["id"] == "2"

    def test_an_over_long_line_gets_one_parse_error(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_LINE_BYTES", 64)
        with serving(make_server()) as tcp, connect(tcp) as conn:
            # whole in one read
            conn.sendall(b"x" * 65 + b"\n" + request_line("1", "server_info"))
            first = [json.loads(line) for line in read_lines(conn, 2)]
            # spread over reads: the error comes before the line ends
            conn.sendall(b"[" * 100)
            too_long = json.loads(read_lines(conn, 1)[0])
            conn.sendall(b"[" * 100 + b"\n" + request_line("2", "server_info"))
            second = json.loads(read_lines(conn, 1)[0])
            # a line of exactly the cap is a request
            exact = request_line("3", "server_info").rstrip(b"\n")
            conn.sendall(exact.ljust(64) + b"\n")
            third = json.loads(read_lines(conn, 1)[0])
        for reply in (first[0], too_long):
            assert reply["id"] is None and reply["error"]["code"] == "PARSE_ERROR"
            assert "64 bytes" in reply["error"]["message"]
        assert [first[1]["id"], second["id"], third["id"]] == ["1", "2", "3"]
        assert first[1]["status"] == second["status"] == third["status"] == "ok"

    def test_5000_open_brackets_get_one_reply(self):
        with serving(make_server()) as tcp, connect(tcp) as conn:
            conn.sendall(b"[" * 5000 + b"\n" + request_line("1", "server_info"))
            replies = [json.loads(line) for line in read_lines(conn, 2)]
        assert replies[0]["id"] is None and replies[0]["error"]["code"] == "PARSE_ERROR"
        assert replies[1]["id"] == "1" and replies[1]["status"] == "ok"

    def test_a_client_that_never_reads_delays_no_other(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_UNSENT_BYTES", 4096)
        small = 4096
        with serving(make_server()) as tcp:
            # small kernel buffers on both ends, so the unsent replies
            # pile up in the server within a few hundred requests
            for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
                tcp.socket.setsockopt(socket.SOL_SOCKET, option, small)
            flood = socket.socket()
            flood.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, small)
            flood.settimeout(5)
            flood.connect(tcp.server_address)
            with flood, connect(tcp) as other:
                flood.setblocking(False)
                chunk = request_line("f", "server_info") * 100
                sent, budget = 0, 8 << 20
                stalled_since = None
                while sent < budget:
                    try:
                        sent += flood.send(chunk)
                        stalled_since = None
                    except BlockingIOError:
                        now = time.monotonic()
                        stalled_since = stalled_since or now
                        if now - stalled_since > 0.5:
                            break  # the server stopped reading the flood
                        time.sleep(0.01)
                assert sent < budget
                started = time.monotonic()
                other.sendall(request_line("1", "server_info"))
                reply = json.loads(read_lines(other, 1)[0])
                assert time.monotonic() - started < 1.0
                assert reply["id"] == "1" and reply["status"] == "ok"


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

    def test_audit_log_keeps_the_most_recent_contexts(self, monkeypatch):
        monkeypatch.setattr(server_module, "AUDIT_LOG_SIZE", 8)
        server = make_server()
        for i in range(20):
            call(server, "classify_url", {"url": f"http://a{i}.com"}, f"r{i}")
        assert [ctx.request_ref for ctx in server.audit_log] == [f"r{i}" for i in range(12, 20)]


def explain_line(url, request_id="e"):
    return json.dumps({"id": request_id, "tool": "explain_url", "arguments": {"url": url}})


def classify_line(url, request_id="c"):
    return json.dumps({"id": request_id, "tool": "classify_url", "arguments": {"url": url}})


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


MEMO_URLS = [
    "https://www.paypal.com/signin",
    "http://192.168.1.1/login",
    "http://secure-paypal.bit.ly//redirect@evil",
    "https://www.paypal.com/signin",
    "https://www.paypel.com/signin",  # same vector as the paypal.com URL
    "http://a-b.c.d.example.com/x",
]


def handle_at_once(server, lines):
    """The replies to `lines`, each handled by its own thread, all
    started together and switching often, so that threads interleave
    inside a memo's miss path."""
    results = [None] * len(lines)
    start = threading.Barrier(len(lines), timeout=30)

    def worker(i):
        start.wait()
        results[i] = server.handle_line(lines[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(lines))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


class TestExplainMemo:
    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest", "gbt", "mlp"])
    def test_warm_server_replies_as_a_fresh_one(self, kind):
        model = served_model(kind)
        warm = PhishingServer(model)
        for url in MEMO_URLS:
            warm.handle_line(explain_line(url))
        for url in MEMO_URLS:
            fresh = PhishingServer(model).handle_line(explain_line(url))
            assert warm.handle_line(explain_line(url)) == fresh
        info = warm._explanations.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        assert info.hits == 2 * len(MEMO_URLS) - 4
        # five distinct URLs: the paypal.com one repeats
        info = warm._vector_of.cache_info()
        assert (info.misses, info.hits) == (5, 2 * len(MEMO_URLS) - 5)

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
        for url in MEMO_URLS * 2:
            assert json.loads(server.handle_line(explain_line(url)))["status"] == "ok"
        assert len(fits) == len(set(fits)) == 4

    def test_bounded_to_the_most_recent_vectors(self):
        assert VECTOR_MEMO_SIZE == 1024
        server = make_server()
        # each length of URL is a distinct URL_Length, so a distinct vector
        for i in range(VECTOR_MEMO_SIZE + 5):
            server.handle_line(explain_line("http://a.com/" + "x" * i))
        for memo in (server._explanations, server._vector_of):
            info = memo.cache_info()
            assert (info.maxsize, info.currsize, info.misses) == (1024, 1024, 1029)

    def test_cached_attributions_are_read_only(self):
        server = make_server()
        reply = json.loads(server.handle_line(explain_line("http://a.com/x")))
        vector = to_canonical_vector(extract_features("http://a.com/x", server.resolver))
        text = server._explanations(vector.tobytes())
        assert server._explanations.cache_info().hits == 1
        # the entry is its reply's encoded result, and a str cannot change
        assert type(text) is str and json.loads(text) == reply["result"]
        assert reply["result"]["method"] == "shap_linear"

    def test_32_threads_match_serial(self):
        model = served_model("gbt")
        urls = [f"http://site{i}.example.com/" + "p" * i for i in range(8)]
        lines = [explain_line(urls[i % 8], f"e{i}") for i in range(32)]
        serial_server = PhishingServer(model)
        serial = [serial_server.handle_line(line) for line in lines]
        server = PhishingServer(model)
        assert handle_at_once(server, lines) == serial
        assert server._explanations.cache_info().currsize == 8


class TestOutcomeMemo:
    """`classify_url` scores each distinct vector once; a hit answers
    what a fresh server would."""

    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest", "gbt", "mlp"])
    def test_warm_server_replies_as_a_fresh_one(self, kind):
        model = served_model(kind)
        warm = PhishingServer(model)
        for url in MEMO_URLS:
            warm.handle_line(classify_line(url))
        for url in MEMO_URLS:
            fresh = PhishingServer(model).handle_line(classify_line(url))
            assert warm.handle_line(classify_line(url)) == fresh
        info = warm._outcomes.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        texts = warm._classify_texts.cache_info()
        assert (texts.misses, texts.currsize) == (4, 4)
        assert texts.hits == 2 * len(MEMO_URLS) - 4
        # each classify looks its outcome up once, and a reply-text miss
        # looks it up once more
        assert info.hits == 2 * len(MEMO_URLS) - 4 + texts.misses

    @pytest.mark.parametrize("kind", ["logistic", "tree", "forest", "gbt", "mlp"])
    def test_audit_log_carries_the_model_probability_on_a_warm_server(self, kind):
        model = served_model(kind)
        server = PhishingServer(model)
        for url in MEMO_URLS * 2:
            call(server, "classify_url", {"url": url})
            vector = to_canonical_vector(extract_features(url))
            context = server.audit_log[-1]
            assert np.array_equal(context.vector, vector)
            # single row against single row, as TestServedProbability
            assert context.probability == float(model.predict_proba(vector))
            outcome = classify_with_fusion(vector, model, None)
            assert (context.label, context.rationale) == (outcome["y_hat"],
                                                          tuple(outcome["rationale"]))
        # a hit per repeated vector, and one per reply-text miss, as above
        info = server._outcomes.cache_info()
        assert (info.misses, info.hits) == (4, 2 * len(MEMO_URLS) - 4 + 4)

    def test_one_fusion_call_per_distinct_vector(self, monkeypatch):
        scored = []

        def counting(x, model, fusion):
            scored.append(np.asarray(x).tobytes())
            return classify_with_fusion(x, model, fusion)

        monkeypatch.setattr(server_module, "classify_with_fusion", counting)
        server = make_server()
        for url in MEMO_URLS * 2:
            assert json.loads(server.handle_line(classify_line(url)))["status"] == "ok"
        assert len(scored) == len(set(scored)) == 4
        assert len(server.audit_log) == 2 * len(MEMO_URLS)
        # the paypal.com and paypel.com URLs share a vector, so one score
        paypal, paypel = (to_canonical_vector(extract_features(url)).tobytes()
                          for url in ("https://www.paypal.com/signin",
                                      "https://www.paypel.com/signin"))
        assert paypal == paypel and scored.count(paypal) == 1

    def test_bounded_to_the_most_recent_vectors(self):
        assert VECTOR_MEMO_SIZE == 1024
        server = make_server()
        # each length of URL is a distinct URL_Length, so a distinct vector
        for i in range(VECTOR_MEMO_SIZE + 5):
            server.handle_line(classify_line("http://a.com/" + "x" * i))
        for memo in (server._outcomes, server._classify_texts, server._vector_of):
            info = memo.cache_info()
            assert (info.maxsize, info.currsize, info.misses) == (1024, 1024, 1029)

    def test_cached_outcomes_cannot_be_mutated(self):
        server = make_server()
        url = "http://secure-paypal.bit.ly//redirect@evil"
        first = call(server, "classify_url", {"url": url})
        key = to_canonical_vector(extract_features(url, server.resolver)).tobytes()
        hits = server._outcomes.cache_info().hits
        outcome = server._outcomes(key)
        assert server._outcomes.cache_info().hits == hits + 1
        assert outcome["rationale"]
        with pytest.raises(TypeError):
            outcome["probability"] = 0.0
        with pytest.raises(AttributeError):
            outcome["rationale"].append("tampered")
        assert server.audit_log[-1].rationale is outcome["rationale"]
        text = server._classify_texts(key, "Unknown")
        assert type(text) is str and json.loads(text) == first["result"]
        assert call(server, "classify_url", {"url": url}) == first

    def test_32_threads_match_serial(self):
        model = served_model("gbt")
        urls = [f"http://site{i}.example.com/" + "p" * i for i in range(8)]
        lines = [classify_line(urls[i % 8], f"c{i}") for i in range(32)]
        serial_server = PhishingServer(model)
        serial = [serial_server.handle_line(line) for line in lines]
        server = PhishingServer(model)
        assert handle_at_once(server, lines) == serial
        assert server._outcomes.cache_info().currsize == 8
        assert server._classify_texts.cache_info().currsize == 8
        assert len(server.audit_log) == 32


# string ids with non-ASCII characters, quotes, backslashes and control
# characters, and integer ids up to and beyond 2**63
REPLY_IDS = st.one_of(
    st.text(min_size=1),
    st.text(alphabet='"\\\x00\x1f\x7f\u2028é€\U0001f600/\ud800', min_size=1),
    st.integers(-(2**70), 2**70).filter(bool),
    st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63) - 1]),
)
TOOL_REQUESTS = [
    ("server_info", {}),
    ("extract_features", {"url": "http://192.168.1.1/login"}),
    ("classify_url", {"url": "http://secure-paypal.bit.ly//redirect@evil", "provenance": "UCI"}),
    ("explain_url", {"url": "https://www.paypal.com/signin"}),
]


class CountingResolver:
    """Answers every resolved feature with `value`, which a test may
    change between requests, and counts its calls."""

    def __init__(self, value=0):
        self.value = value
        self.calls = 0

    def resolve(self, parts):
        self.calls += 1
        return PrecomputedResolver(dict.fromkeys(RESOLVED_FEATURES, self.value)).resolve(parts)


class TestRepeatedRequests:
    """A repeated request is answered from the memos: its reply is
    spliced from the encoded result, byte for byte the reply a fresh
    server encodes."""

    server = make_server(mixed_pcs())

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(REPLY_IDS, st.sampled_from(TOOL_REQUESTS))
    def test_the_splice_is_the_sorted_encoding(self, request_id, tool_request):
        tool, arguments = tool_request
        reply = self.server.handle_line(
            json.dumps({"id": request_id, "tool": tool, "arguments": arguments}))
        result = json.loads(reply)["result"]
        assert reply == json.dumps({"id": request_id, "status": "ok", "result": result},
                                   sort_keys=True)

    def test_a_repeated_url_is_neither_extracted_nor_encoded_again(self, monkeypatch):
        server = make_server(mixed_pcs())
        lines = [json.dumps({"id": f"r{i}", "tool": tool, "arguments": arguments})
                 for i, (tool, arguments) in enumerate(TOOL_REQUESTS) if tool != "extract_features"]
        lines += [classify_line(url) for url in MEMO_URLS] + [explain_line(url) for url in MEMO_URLS]
        warm = [server.handle_line(line) for line in lines]
        extracted, encoded = [], []

        def extracting(*args):
            extracted.append(args)
            return extract_features(*args)

        def encoding(value, **kwargs):
            if isinstance(value, dict):  # a result, not an id
                encoded.append(value)
            return json.dumps(value, **kwargs)

        monkeypatch.setattr(server_module, "extract_features", extracting)
        monkeypatch.setattr(server_module, "json", types.SimpleNamespace(loads=json.loads,
                                                                         dumps=encoding))
        assert [server.handle_line(line) for line in lines] == warm
        assert (extracted, encoded) == ([], [])
        # a new URL is extracted and encoded through the same globals
        server.handle_line(classify_line("http://new.example.com/"))
        assert (len(extracted), len(encoded)) == (1, 1)

    @pytest.mark.parametrize("tool", ["extract_features", "classify_url", "explain_url"])
    def test_a_resolver_is_asked_on_every_request(self, tool):
        resolver = CountingResolver()
        server = PhishingServer(trained_model(), resolver=resolver)
        replies = []
        for value in (0, 0, 1, -1, 0):
            resolver.value = value
            replies.append(call(server, tool, {"url": "http://a.com/x"})["result"])
        assert resolver.calls == 5
        # an answer that changes changes the reply, as on a fresh server
        fresh = PhishingServer(trained_model(), resolver=CountingResolver(1))
        assert replies[2] == call(fresh, tool, {"url": "http://a.com/x"})["result"]
        assert replies[0] == replies[1] == replies[4] != replies[2]


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
    return score, score < pcs.threshold


class TestProvenanceScore:
    def reference(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                      [5.0, 5.0], [5.1, 5.0]])
        prov = ("UCI", "UCI", "UCI", "Mendeley", "Mendeley")
        return Dataset(X, np.zeros(5, dtype=int), ("a", "b"), prov)

    def test_all_neighbors_match(self):
        pcs = PcsConfig(self.reference(), k=3, threshold=0.5)
        score, flagged = provenance_score([0.05, 0.05], pcs, "UCI")
        assert score == 1.0
        assert not flagged

    def test_no_neighbors_match(self):
        pcs = PcsConfig(self.reference(), k=3, threshold=0.5)
        score, flagged = provenance_score([0.05, 0.05], pcs, "Mendeley")
        assert score == 0.0
        assert flagged

    def test_fractional_score(self):
        pcs = PcsConfig(self.reference(), k=5, threshold=0.7)
        score, flagged = provenance_score([0.0, 0.0], pcs, "UCI")
        assert score == pytest.approx(3 / 5)
        assert flagged  # 0.6 < 0.7

    def test_nan_cell_ranks_every_row_by_index(self):
        # a NaN cell makes every distance NaN, so the k nearest are the
        # first k rows
        X = np.array([[0.0], [np.nan], [0.0], [0.0]])
        ref = Dataset(X, np.zeros(4, dtype=int), ("a",), ("A", "B", "A", "B"))
        pcs = PcsConfig(ref, k=2)
        assert provenance_score([0.0], pcs, "A") == (0.5, False)
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


def uniform_fusion(names, weight=1.0):
    names = frozenset(names)
    return FusionWeights(f_ig=names, f_xai=names, f_final=names,
                         weights=dict.fromkeys(names, weight))


class TestClassifyWithFusion:
    def test_identity_fusion_matches_plain_model(self):
        model = trained_model()
        x = np.ones(23)
        outcome = classify_with_fusion(x, model, None)
        assert outcome["probability"] == float(model.predict_proba(x))

    def test_zero_weights_zero_embedding(self):
        # zero weights empty the rationale; the model still scores x itself
        model = LinearModel(weights=np.ones(2), bias=0.0,
                            feature_names=("a", "b"))
        x = np.array([3.0, -2.0])
        outcome = classify_with_fusion(x, model, uniform_fusion(("a", "b"), 0.0))
        assert outcome["probability"] == float(model.predict_proba(x))
        assert outcome["probability"] == pytest.approx(0.7310585786300049)
        assert outcome["rationale"] == []

    def test_rationale_names_are_human_readable(self):
        model = trained_model()
        outcome = classify_with_fusion(np.ones(23), model, None)
        for sentence in outcome["rationale"]:
            assert sentence in FEATURE_DESCRIPTIONS.values()

    def test_rationale_names_only_phishing_leaning_values(self):
        # a tree weighs every feature 1; ranked by |x|, the -1 (legitimate)
        # of HTTPS_token and Prefix_Suffix were named as phishing signs
        model, _ = cli_model("tree")
        url = "https://www.example.com/index.html"
        features = extract_features(url)
        assert features["HTTPS_token"] == features["Prefix_Suffix"] == -1
        reply = call(PhishingServer(model), "classify_url", {"url": url})["result"]
        assert reply["rationale"] == [FEATURE_DESCRIPTIONS["URL_Length"]]

    def test_rationale_ranks_the_signed_contribution(self):
        # b is present but pushes towards legitimate; a is absent (-1)
        model = LinearModel(weights=np.array([2.0, -3.0, 1.0, 4.0]), bias=0.0,
                            feature_names=("a", "b", "c", "d"))
        outcome = classify_with_fusion(np.array([-1.0, 1.0, 1.0, 0.5]), model, None)
        assert outcome["rationale"] == ["d", "c"]

    def test_argmax_invariant_to_uniform_scaling(self):
        # scaling every fusion weight by the same constant must not change
        # which features top the rationale
        model = trained_model()
        x = np.ones(23)
        base = classify_with_fusion(x, model, None)
        scaled = classify_with_fusion(x, model, uniform_fusion(model.feature_names, 2.0))
        assert scaled["rationale"] == base["rationale"]

    def test_label_threshold(self):
        model = LinearModel(weights=np.array([10.0]), bias=0.0,
                            feature_names=("a",))
        up = classify_with_fusion(np.array([1.0]), model, None)
        down = classify_with_fusion(np.array([-1.0]), model, None)
        assert up["y_hat"] == 1
        assert down["y_hat"] == 0


PARITY_URLS = (
    "http://a.com",
    "https://www.example.com/index.html",
    "http://192.168.1.1/login",
    "http://secure-paypal.bit.ly//redirect@evil",
    "http://https-bank.example.co.uk/account/verify?session=1234567890abcdef",
    "http://sub.sub2.sub3.sub4.example.com/" + "x" * 80,
    "https://login.microsoftonline.com.phish-site.ru/auth",
    "http://tinyurl.com/abc123",
)


@functools.cache
def cli_model(kind):
    """A model of a `phishguard train --model` kind, and its training set."""
    ds = make_ternary_dataset(n=200, seed=0, provenance=("UCI",))
    return cli._train_model(ds, kind, 0), ds


class TestServedProbability:
    """A server answers what its model scores, with or without a
    `--dataset` reference: fusion weights rank the rationale only."""

    @pytest.mark.parametrize("with_dataset", [False, True])
    @pytest.mark.parametrize("kind", cli.MODEL_KINDS)
    def test_reply_and_audit_log_carry_the_model_probability(self, tmp_path, kind,
                                                             with_dataset):
        model, ds = cli_model(kind)
        argv = ["serve", "--model", "m.json"]
        if with_dataset:
            save_csv(ds, tmp_path / "reference.csv")
            argv += ["--dataset", str(tmp_path / "reference.csv")]
        fusion, pcs = cli._build_fusion_and_pcs(cli.build_parser().parse_args(argv), model)
        assert (fusion is None) is not with_dataset
        # offline, every resolved feature is 0; a resolver that answers
        # +-1 reaches the splits on those features too
        for resolver in (None, *(PrecomputedResolver(dict.fromkeys(RESOLVED_FEATURES, v))
                                 for v in (1, -1))):
            server = PhishingServer(model, fusion, pcs, resolver)
            vectors = [to_canonical_vector(extract_features(url, resolver))
                       for url in PARITY_URLS]
            # the row alone and the row in a batch of every URL's vector
            batch = model.predict_proba(np.stack(vectors))
            for i, (url, vector) in enumerate(zip(PARITY_URLS, vectors)):
                reply = call(server, "classify_url", {"url": url}, f"r{i}")["result"]
                expected = float(model.predict_proba(vector))
                assert expected == batch[i]
                context = server.audit_log[-1]
                assert np.array_equal(context.vector, vector)
                assert context.probability == expected
                assert reply["probability"] == f"{expected:.6f}"
                if fusion is not None:  # the rationale names fused features only
                    fused = {FEATURE_DESCRIPTIONS[name] for name in fusion.f_final}
                    assert set(reply["rationale"]) <= fused


class TestUnservableModel:
    """A model that cannot take the extracted vector is refused when the
    server starts, not answered INTERNAL on every request."""

    def test_a_model_of_another_width_is_refused(self):
        model = train_linear(make_ternary_dataset(n=100, n_features=16, seed=0))
        with pytest.raises(UnservableModel, match="takes 16 features"):
            PhishingServer(model)

    def test_a_model_trained_on_reordered_columns_is_refused(self):
        ds = make_ternary_dataset(n=100, seed=0)
        reordered = Dataset(ds.X[:, ::-1], ds.y, ds.feature_names[::-1])
        with pytest.raises(UnservableModel, match="canonical features"):
            PhishingServer(train_linear(reordered))

    def test_a_model_without_names_takes_the_canonical_order(self):
        model = LinearModel(weights=np.ones(len(CANONICAL_FEATURES)), bias=0.0)
        assert call(PhishingServer(model), "classify_url",
                    {"url": "http://a.com"})["status"] == "ok"

    def test_serve_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_model(train_linear(make_ternary_dataset(n=100, n_features=16, seed=0)), path)
        assert cli.main(["serve", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the model takes 16 features")


class TestUnservableReference:
    """PCS standardises each query column with the reference's column, so
    a reference that is not the canonical features in order is refused
    when the server starts."""

    @pytest.mark.parametrize("columns", [slice(0, 10), slice(None, None, -1)],
                             ids=["narrow", "reversed"])
    def test_refused(self, columns):
        ds = make_ternary_dataset(n=50, seed=1, provenance=("UCI",))
        reference = Dataset(ds.X[:, columns], ds.y,
                            tuple(np.array(ds.feature_names)[columns]), ds.provenance)
        with pytest.raises(UnservableReference, match="canonical features in order"):
            make_server(PcsConfig(reference))

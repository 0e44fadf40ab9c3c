"""MCP-style phishing analysis server over line-delimited JSON.

Each request is processed in an immutable context (`phishguard.context`)
holding the extracted features, model output and predicted label for
that request only. Contexts are appended to an audit log, which keeps
the last `AUDIT_LOG_SIZE`, and are never read by other requests'
inference paths. `explain_url` attributions, which depend on nothing but
the feature vector, are computed once per distinct vector. Transports:
stdio and TCP.
"""

from __future__ import annotations

import functools
import json
import socketserver
import sys
import time
import uuid
from collections import deque

import numpy as np

from .context import LABEL_NAMES, IsolatedContext, PcsConfig, classify_with_fusion, provenance_score
from .errors import MalformedUrl, PhishguardError
from .explain import FusionWeights, lime_explain, shap_linear
from .features import (
    CANONICAL_FEATURES,
    extract_features,
    to_canonical_vector,
)
from .models.linear import LinearModel

TOOLS = ("server_info", "extract_features", "classify_url", "explain_url")

SERVER_VERSION = "phishguard/0.1.0"

# distinct vectors whose explain_url attributions a server keeps
EXPLAIN_MEMO_SIZE = 1024
# the most recent contexts the audit log keeps
AUDIT_LOG_SIZE = 1024


class PhishingServer:
    """Tool dispatch plus context bookkeeping; transport-agnostic."""

    def __init__(self, model, fusion: FusionWeights | None = None,
                 pcs: PcsConfig | None = None, resolver=None):
        self.model = model
        self.fusion = fusion  # None: the rationale weighs every feature 1
        self.pcs = pcs
        self.resolver = resolver  # None: the offline resolver
        # deque.append is atomic, so TCP handler threads need no lock
        self.audit_log: deque[IsolatedContext] = deque(maxlen=AUDIT_LOG_SIZE)
        # an explanation is a pure function of the vector's bits: the
        # model is fixed and LIME's seed and background are too
        self._attributions = functools.lru_cache(maxsize=EXPLAIN_MEMO_SIZE)(
            self._fit_attributions)

    # -- context lifecycle -------------------------------------------------

    def create_context(self, request_id: str, url: str,
                       provenance: str = "Unknown") -> IsolatedContext:
        vector = to_canonical_vector(extract_features(url, self.resolver))
        outcome = classify_with_fusion(vector, self.model, self.fusion)
        context = IsolatedContext.from_outcome(
            outcome, context_id=uuid.uuid4().hex, request_ref=request_id,
            names=CANONICAL_FEATURES, vector=vector, provenance=provenance,
            created_at=time.time(),
        )
        self.audit_log.append(context)
        return context

    # -- tools ---------------------------------------------------------------

    def _tool_server_info(self, arguments, request_id):
        return {
            "tools": list(TOOLS),
            "model_version": SERVER_VERSION,
            "model_kind": self.model.kind,
        }

    def _tool_extract_features(self, arguments, request_id):
        url = _require_url(arguments)
        return extract_features(url, self.resolver)

    def _tool_classify_url(self, arguments, request_id):
        url = _require_url(arguments)
        claimed = arguments.get("provenance", "Unknown")
        context = self.create_context(request_id, url, claimed)
        if self.pcs is not None:
            pcs_value, flagged, _ = provenance_score(context.vector, self.pcs, claimed)
        else:
            pcs_value, flagged = 1.0, False
        return {
            "label": LABEL_NAMES[context.label],
            "probability": f"{context.probability:.6f}",
            "rationale": context.rationale,
            "pcs": f"{pcs_value:.6f}",
            "flagged": flagged,
        }

    def _tool_explain_url(self, arguments, request_id):
        url = _require_url(arguments)
        vector = to_canonical_vector(extract_features(url, self.resolver))
        names = self.model.feature_names or CANONICAL_FEATURES
        method, attributions = self._attributions(vector.tobytes())
        ranked = sorted(
            zip(names, vector, attributions), key=lambda t: -abs(t[2])
        )
        return {
            "method": method,
            "attributions": [
                {"feature": n, "value": float(v), "attribution": float(a)}
                for n, v, a in ranked
            ],
        }

    def _fit_attributions(self, key: bytes) -> tuple[str, np.ndarray]:
        """(method, read-only attributions) of the float64 vector `key`."""
        vector = np.frombuffer(key)
        background = np.zeros(len(vector))
        if isinstance(self.model, LinearModel):
            method = "shap_linear"
            attributions = shap_linear(self.model, vector, background).attributions
        else:
            method = "lime"
            attributions = lime_explain(
                self.model.predict_proba, vector,
                np.vstack([background, vector]), seed=0,
            ).weights
        attributions.flags.writeable = False
        return method, attributions

    # -- protocol -----------------------------------------------------------

    def handle_line(self, line: str) -> str:
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            return _error_line(None, "PARSE_ERROR", "request is not valid JSON")
        request_id = request.get("id") if isinstance(request, dict) else None
        if not isinstance(request, dict) or not request_id:
            return _error_line(request_id, "PARSE_ERROR", "missing request id")
        tool = request.get("tool")
        handler = getattr(self, f"_tool_{tool}", None)
        if tool not in TOOLS or handler is None:
            return _error_line(request_id, "TOOL_NOT_FOUND", f"unknown tool {tool!r}")
        arguments = request.get("arguments")
        if arguments is None:
            arguments = {}
        elif not isinstance(arguments, dict):
            return _error_line(request_id, "PARSE_ERROR", "arguments must be a JSON object")
        try:
            result = handler(arguments, request_id)
            return json.dumps(
                {"id": request_id, "status": "ok", "result": result}, sort_keys=True
            )
        except MalformedUrl as exc:
            return _error_line(request_id, "MALFORMED_URL", str(exc))
        except Exception as exc:  # noqa: BLE001 - protocol totality
            return _error_line(request_id, "INTERNAL", str(exc))

    # -- transports ----------------------------------------------------------

    def serve_stdio(self, stdin=None, stdout=None) -> None:
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            stdout.write(self.handle_line(line) + "\n")
            stdout.flush()

    def serve_tcp(self, port: int, host: str = "127.0.0.1"):
        server = self

        class Handler(socketserver.StreamRequestHandler):
            # send each reply at once instead of holding it for the
            # client's ACK of the previous one (Nagle's algorithm)
            disable_nagle_algorithm = True

            def handle(self):
                for raw in self.rfile:
                    line = raw.decode("utf-8", "replace").strip()
                    if not line:
                        continue
                    try:
                        response = server.handle_line(line)
                        self.wfile.write((response + "\n").encode())
                    except (BrokenPipeError, ConnectionResetError):
                        return  # session dies, server lives

        class ThreadingServer(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        return ThreadingServer((host, port), Handler)


def _require_url(arguments) -> str:
    url = arguments.get("url")
    if not url or not isinstance(url, str):
        raise MalformedUrl("arguments must include a non-empty 'url'")
    return url


def _error_line(request_id, code: str, message: str) -> str:
    return json.dumps(
        {
            "id": request_id,
            "status": "error",
            "error": {"code": code, "message": message},
        },
        sort_keys=True,
    )


def serve(transport: str, model, fusion=None, pcs=None, port: int = 7878) -> None:
    """Run until EOF (stdio) or interrupt (tcp)."""
    server = PhishingServer(model, fusion, pcs)
    if transport == "stdio":
        server.serve_stdio()
    elif transport == "tcp":
        tcp = server.serve_tcp(port)
        with tcp:
            tcp.serve_forever()
    else:
        raise PhishguardError(f"unknown transport {transport!r}")

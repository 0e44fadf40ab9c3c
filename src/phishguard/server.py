"""MCP-style phishing analysis server over line-delimited JSON.

Each request is processed in a sealed, isolated context: the extracted
features, the model output, and the predicted label for that request
only. Contexts are appended to an audit log and are never read by other
requests' inference paths. Transports: stdio and TCP.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import socketserver
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import EmptyReferenceSet, MalformedUrl, PhishguardError
from .explain import FusionWeights, identity_fusion, lime_explain, shap_linear
from .features import (
    CANONICAL_FEATURES,
    OfflineResolver,
    extract_features,
    to_canonical_vector,
)
from .models.linear import LinearModel

TOOLS = ("server_info", "extract_features", "classify_url", "explain_url")

SERVER_VERSION = "phishguard/0.1.0"

LABEL_NAMES = ("legitimate", "phishing")  # indexed by y_hat

# Human-readable rationale strings for phishing-leaning feature values.
FEATURE_DESCRIPTIONS = {
    "having_IP_Address": "IP address present in host",
    "having_At_Symbol": "'@' symbol embedded in the URL",
    "double_slash_redirecting": "'//' redirect beyond the scheme",
    "Prefix_Suffix": "hyphen in the registrable domain",
    "having_Sub_Domain": "unusually deep subdomain nesting",
    "Shortening_Service": "known URL-shortening host",
    "HTTPS_token": "'https' token inside the host name",
    "URL_Length": "unusually long URL",
    "Abnormal_URL": "URL inconsistent with WHOIS identity",
    "DNSRecord": "missing or anomalous DNS record",
    "Google_Index": "page not indexed by search engines",
    "Iframe": "hidden iframe on the page",
    "Links_in_tags": "suspicious links in meta/script/link tags",
    "Links_pointing_to_page": "few external links point to the page",
    "Redirect": "multiple redirects on load",
    "Request_URL": "page objects loaded from foreign domains",
    "RightClick": "right-click disabled",
    "SFH": "server form handler is empty or foreign",
    "Statistical_report": "host appears in phishing statistics",
    "Submitting_to_email": "form submits to an email address",
    "URL_of_Anchor": "anchors point to foreign domains",
    "on_mouseover": "status bar manipulated on mouseover",
    "web_traffic": "little or no recorded web traffic",
}


@dataclass
class IsolatedContext:
    context_id: str
    request_ref: str
    features: dict[str, float]
    vector: np.ndarray
    probability: float
    label: int
    provenance: str = "Unknown"
    created_at: float = 0.0
    sealed: bool = False
    rationale: tuple[str, ...] = ()

    def seal(self) -> "IsolatedContext":
        self.sealed = True
        return self

    def seal_digest(self) -> str:
        """Integrity hash over the sealed payload."""
        payload = json.dumps(
            {
                "features": self.features,
                "probability": round(self.probability, 12),
                "label": self.label,
                "provenance": self.provenance,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class PcsConfig:
    reference: Dataset
    k: int = 5
    threshold: float = 0.5

    def __post_init__(self):
        if len(self.reference) == 0:
            raise EmptyReferenceSet("PCS reference set is empty")
        if not 1 <= self.k <= len(self.reference):
            raise PhishguardError("k must be in [1, reference size]")
        mean = self.reference.X.mean(axis=0)
        std = self.reference.X.std(axis=0)
        self._mean = mean
        self._scale = np.where(std > 0, std, 1.0)
        self._Z = (self.reference.X - mean) / self._scale


def provenance_score(x, pcs: PcsConfig, claimed: str = "Unknown") -> tuple[float, bool, str]:
    """Fraction of the k nearest reference samples sharing the claimed
    provenance; flagged when below the threshold."""
    z = (np.asarray(x, dtype=float) - pcs._mean) / pcs._scale
    distances = np.sqrt(((pcs._Z - z) ** 2).sum(axis=1))
    nearest = np.argsort(distances, kind="stable")[: pcs.k]
    matches = sum(1 for i in nearest if pcs.reference.provenance[i] == claimed)
    score = matches / pcs.k
    return score, score < pcs.threshold, claimed


def classify_with_fusion(x, model, fusion: FusionWeights) -> dict:
    """Score the weighted embedding x * w and assemble the rationale."""
    x = np.asarray(x, dtype=float)
    names = model.feature_names or CANONICAL_FEATURES
    w = fusion.vector(names)
    if len(w) != len(x):
        raise PhishguardError("fusion weights do not cover the model features")
    weighted = x * w
    probability = float(model.predict_proba(weighted))
    label = 1 if probability >= 0.5 else 0

    if isinstance(model, LinearModel):
        contributions = model.weights / model.scale
    else:
        contributions = np.ones(len(x))
    scores = np.abs(w * x * contributions)
    order = sorted(range(len(x)), key=lambda j: (-scores[j], j))
    rationale = []
    for j in order[:3]:
        if scores[j] <= 0:
            continue
        name = names[j]
        rationale.append(FEATURE_DESCRIPTIONS.get(name, name))
    return {
        "label": LABEL_NAMES[label],
        "y_hat": label,
        "probability": probability,
        "rationale": rationale,
    }


class PhishingServer:
    """Tool dispatch plus context bookkeeping; transport-agnostic."""

    def __init__(self, model, fusion: FusionWeights | None = None,
                 pcs: PcsConfig | None = None, resolver=None):
        self.model = model
        self.fusion = fusion or identity_fusion(
            model.feature_names or CANONICAL_FEATURES
        )
        self.pcs = pcs
        self.resolver = resolver or OfflineResolver()
        self.audit_log: list[IsolatedContext] = []
        self._log_lock = threading.Lock()
        self._counter = itertools.count(1)

    # -- context lifecycle -------------------------------------------------

    def create_context(self, request_id: str, url: str,
                       provenance: str = "Unknown") -> IsolatedContext:
        features = extract_features(url, self.resolver)
        vector = to_canonical_vector(features)
        outcome = classify_with_fusion(vector, self.model, self.fusion)
        context = IsolatedContext(
            context_id=uuid.uuid4().hex,
            request_ref=request_id,
            features={k: float(v) for k, v in features.items()},
            vector=vector,
            probability=outcome["probability"],
            label=outcome["y_hat"],
            provenance=provenance,
            created_at=time.time(),
            rationale=tuple(outcome["rationale"]),
        )
        context.seal()
        with self._log_lock:
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
        features = extract_features(url, self.resolver)
        return {name: features[name] for name in CANONICAL_FEATURES}

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
        features = extract_features(url, self.resolver)
        vector = to_canonical_vector(features)
        names = self.model.feature_names or CANONICAL_FEATURES
        background = np.zeros(len(vector))
        if isinstance(self.model, LinearModel):
            explanation = shap_linear(self.model, vector, background)
            method = "shap_linear"
            attributions = explanation.attributions
        else:
            explanation = lime_explain(
                self.model.predict_proba, vector,
                np.vstack([background, vector]), seed=0,
            )
            method = "lime"
            attributions = explanation.weights
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
        try:
            result = handler(request.get("arguments") or {}, request_id)
        except MalformedUrl as exc:
            return _error_line(request_id, "MALFORMED_URL", str(exc))
        except Exception as exc:  # noqa: BLE001 - protocol totality
            return _error_line(request_id, "INTERNAL", str(exc))
        return json.dumps(
            {"id": request_id, "status": "ok", "result": result}, sort_keys=True
        )

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

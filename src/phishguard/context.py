"""Per-request contexts and the inference they record.

A context holds one request's feature vector, the model's outcome for
it and the claimed provenance. It is immutable: a frozen record over a
read-only copy of the vector and a frozen copy of the claim, so the
audit log and the robustness harness can share contexts and an attack
must build new ones. This module also holds the classification that
produces an outcome and the provenance confidence score (PCS) checked
against a reference set; it imports no transport.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .datasets import Dataset
from .errors import EmptyReferenceSet, PhishguardError
from .explain import FusionWeights
from .features import CANONICAL_FEATURES
from .models.common import Standardizer
from .models.linear import LinearModel

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


@dataclass(frozen=True)
class IsolatedContext:
    context_id: str
    request_ref: str
    names: tuple[str, ...]  # the feature of each vector entry
    vector: np.ndarray  # a read-only copy of the vector it was built from
    probability: float
    label: int
    provenance: str = "Unknown"  # or any JSON value, frozen (`_frozen`)
    created_at: float = 0.0
    rationale: tuple[str, ...] = ()

    def __post_init__(self):
        vector = np.array(self.vector, dtype=float)
        vector.flags.writeable = False
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "provenance", _frozen(self.provenance))

    @classmethod
    def from_outcome(cls, outcome: dict, **fields) -> "IsolatedContext":
        """A context of `fields`, scored as `outcome` (from `classify_with_fusion`)."""
        return cls(probability=outcome["probability"], label=outcome["y_hat"],
                   rationale=tuple(outcome["rationale"]), **fields)

    @property
    def features(self) -> MappingProxyType:
        """Feature name -> value, read-only."""
        return MappingProxyType(dict(zip(self.names, self.vector.tolist())))

    def seal_digest(self) -> str:
        """Integrity hash over the features, outcome and provenance."""
        payload = json.dumps(
            {
                "features": dict(self.features),
                "probability": round(self.probability, 12),
                "label": self.label,
                "provenance": self.provenance,
            },
            sort_keys=True,
            default=dict,  # a frozen claim's objects encode as the dicts they were
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _frozen(claim):
    """A copy of the JSON value `claim` that cannot be changed: arrays as
    tuples and objects as read-only mappings. Both encode as the JSON they
    were, so a claim's digest does not change."""
    if isinstance(claim, (list, tuple)):
        return tuple(map(_frozen, claim))
    if isinstance(claim, (dict, MappingProxyType)):
        return MappingProxyType({key: _frozen(value) for key, value in claim.items()})
    return claim


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
        self._standardizer = Standardizer().fit(self.reference.X)
        self._held = Counter(self.reference.provenance)  # rows per provenance
        # with one provenance every claim scores 0 or 1 without a scan,
        # so only a mixed reference keeps its standardised rows
        if len(self._held) > 1:
            self._Z = self._standardizer.transform(self.reference.X)
            self._code_of = {name: code for code, name in enumerate(self._held)}
            provenance = self.reference.provenance
            self._codes = np.fromiter(map(self._code_of.__getitem__, provenance),
                                      dtype=np.intp, count=len(provenance))


def provenance_score(x, pcs: PcsConfig, claimed: str = "Unknown") -> tuple[float, bool]:
    """Fraction of the k nearest reference samples sharing the claimed
    provenance; flagged when below the threshold.

    Nearness is the Euclidean distance between standardised vectors. The
    k nearest are the first k of a stable sort of the distances: rows
    closer than the k-th distance, then rows tied with it, lowest index
    first; NaN distances rank last, in index order. A claim held by no
    reference row scores 0 and one held by every row scores 1, so those
    cost no scan of the reference.
    """
    # standardising the query keeps the error of a wrong-width vector
    z = pcs._standardizer.transform(x)
    try:
        held = pcs._held.get(claimed, 0)
    except TypeError:  # an unhashable claim equals no provenance
        held = 0
    if held in (0, len(pcs.reference)):
        score = 1.0 if held else 0.0
    else:
        distances = np.sqrt(((pcs._Z - z) ** 2).sum(axis=1))
        kth = np.partition(distances, pcs.k - 1)[pcs.k - 1]
        if np.isnan(kth):  # fewer than k distances are numbers
            last = np.isnan(distances)
            closer, tied = np.flatnonzero(~last), np.flatnonzero(last)
        else:
            closer, tied = np.flatnonzero(distances < kth), np.flatnonzero(distances == kth)
        nearest = np.concatenate([closer, tied[: pcs.k - len(closer)]])
        matches = np.count_nonzero(pcs._codes[nearest] == pcs._code_of[claimed])
        score = float(matches / pcs.k)
    # Python scalars, so that a reply carrying them encodes as JSON
    return score, bool(score < pcs.threshold)


def classify_with_fusion(x, model, fusion: FusionWeights | None) -> dict:
    """Score the raw vector x, as the model was trained. The rationale names
    up to three features whose value x > 0 is the phishing-leaning one
    that FEATURE_DESCRIPTIONS describes, ranked by the signed score w * x
    times a linear model's coefficients; the fusion weights w (all 1 for
    None) only rank it."""
    x = np.asarray(x, dtype=float)
    probability = float(model.predict_proba(x))
    label = 1 if probability >= 0.5 else 0

    names = model.feature_names or CANONICAL_FEATURES
    w = 1.0 if fusion is None else fusion.vector(names)
    contributions = model.weights / model.scale if isinstance(model, LinearModel) else 1.0
    scores = np.where(x > 0, w * x * contributions, 0.0)
    # highest score first, ties by feature index. The scores are finite,
    # so no NaN upsets the order: an extracted vector is, and
    # NonFiniteReference guards the reference set that robustness scores
    # and that fusion weights come from.
    rationale = []
    for j in np.argsort(-scores, kind="stable")[:3]:
        if scores[j] <= 0:
            continue
        name = names[j]
        rationale.append(FEATURE_DESCRIPTIONS.get(name, name))
    return {
        "y_hat": label,
        "probability": probability,
        "rationale": rationale,
    }

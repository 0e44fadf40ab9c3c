"""URL parsing and the 23-feature canonical vector.

Lexical features are computed from the URL string alone. Content and
reputation features (DNS, page content, traffic rank, ...) come from a
pluggable resolver, asked once per URL: `resolver.resolve(parts)` returns
a mapping that answers every name in RESOLVED_FEATURES with -1, 0 or 1.
The offline default answers 0 ("unknown") for all of them so that
training on precomputed CSVs and live serving share one code path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from urllib.parse import urlsplit

import numpy as np

from .errors import MalformedUrl, MissingFeature, ResolverFailure

# Canonical feature order. Every model input in the toolkit is a length-23
# vector in exactly this order.
CANONICAL_FEATURES = (
    "Abnormal_URL",
    "DNSRecord",
    "Google_Index",
    "HTTPS_token",
    "Iframe",
    "Links_in_tags",
    "Links_pointing_to_page",
    "Prefix_Suffix",
    "Redirect",
    "Request_URL",
    "RightClick",
    "SFH",
    "Shortening_Service",
    "Statistical_report",
    "Submitting_to_email",
    "URL_Length",
    "URL_of_Anchor",
    "double_slash_redirecting",
    "having_At_Symbol",
    "having_IP_Address",
    "having_Sub_Domain",
    "on_mouseover",
    "web_traffic",
)

# Computable from the URL string alone.
LEXICAL_FEATURES = (
    "URL_Length",
    "having_IP_Address",
    "having_At_Symbol",
    "double_slash_redirecting",
    "Prefix_Suffix",
    "having_Sub_Domain",
    "Shortening_Service",
    "HTTPS_token",
)

# Need page content or external reputation; answered by a resolver.
RESOLVED_FEATURES = tuple(
    name for name in CANONICAL_FEATURES if name not in LEXICAL_FEATURES
)

TERNARY_VALUES = (-1, 0, 1)

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*$")
_DOTTED_QUAD_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_HEX_QUAD_RE = re.compile(r"^(0x[0-9a-f]{1,2}\.){3}0x[0-9a-f]{1,2}$", re.IGNORECASE)
_HEX_HOST_RE = re.compile(r"^0x[0-9a-f]{1,8}$", re.IGNORECASE)


@dataclass(frozen=True)
class UrlParts:
    """A decomposed URL; `raw` keeps the original input for string checks."""

    scheme: str
    host: str
    port: int | None
    path: str
    query: str
    fragment: str
    raw: str


def parse_url(raw: str) -> UrlParts:
    """Decompose a raw URL, defaulting the scheme to http when absent.

    Userinfo before '@' is stripped from the host but stays visible in
    `raw` for the having_At_Symbol check.
    """
    if not raw:
        raise MalformedUrl("empty input")
    work = raw.strip()
    if "://" in work:
        scheme, rest = work.split("://", 1)
        if not _SCHEME_RE.match(scheme):
            raise MalformedUrl(f"invalid scheme in {raw!r}")
        work = scheme.lower() + "://" + rest
    else:
        work = "http://" + work
    try:
        parts = urlsplit(work)
    except ValueError as exc:  # an unclosed IPv6 bracket, a netloc NFKC changes
        raise MalformedUrl(f"invalid URL {raw!r}: {exc}") from exc
    host = (parts.hostname or "").lower()
    if not host:
        raise MalformedUrl(f"no host in {raw!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise MalformedUrl(f"invalid port in {raw!r}") from exc
    return UrlParts(
        scheme=parts.scheme,
        host=host,
        port=port,
        path=parts.path,
        query=parts.query,
        fragment=parts.fragment,
        raw=raw,
    )


_DATA_DIR = Path(__file__).parent / "data"


def _load_lines(path: Path) -> tuple[str, ...]:
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line.lower())
    return tuple(entries)


@lru_cache(maxsize=None)
def shortener_hosts() -> frozenset[str]:
    return frozenset(_load_lines(_DATA_DIR / "shorteners.txt"))


@lru_cache(maxsize=None)
def public_suffixes() -> frozenset[str]:
    return frozenset(_load_lines(_DATA_DIR / "suffixes.txt"))


def is_ip_host(host: str) -> bool:
    """Dotted-quad or hex IPv4 notations count as IP hosts."""
    m = _DOTTED_QUAD_RE.match(host)
    if m:
        return all(int(g) <= 255 for g in m.groups())
    return bool(_HEX_QUAD_RE.match(host) or _HEX_HOST_RE.match(host))


def split_host(host: str) -> tuple[list[str], str]:
    """Split a host into (subdomain labels, registrable domain).

    The registrable domain is one label plus the longest matching public
    suffix from the bundled list. IP hosts have no registrable domain.
    """
    if is_ip_host(host):
        return [], ""
    labels = host.split(".")
    suffixes = public_suffixes()
    # longest suffix match, in labels
    for n in range(len(labels) - 1, 0, -1):
        candidate = ".".join(labels[-n:])
        if candidate in suffixes:
            if len(labels) > n:
                registrable = ".".join(labels[-(n + 1):])
                return labels[: -(n + 1)], registrable
            return [], candidate
    # unknown TLD: treat the last label as the suffix
    if len(labels) >= 2:
        return labels[:-2], ".".join(labels[-2:])
    return [], host


def extract_lexical(parts: UrlParts) -> dict[str, int]:
    """Fill the 8 features computable from the URL string alone."""
    raw = parts.raw
    subdomains, registrable = split_host(parts.host)
    sub_labels = list(subdomains)
    if sub_labels and sub_labels[0] == "www":
        sub_labels = sub_labels[1:]
    d = len(sub_labels)
    if d <= 1:
        sub_domain = -1
    elif d == 2:
        sub_domain = 0
    else:
        sub_domain = 1
    return {
        "URL_Length": len(raw),
        "having_IP_Address": 1 if is_ip_host(parts.host) else -1,
        "having_At_Symbol": 1 if "@" in raw else -1,
        "double_slash_redirecting": 1 if raw.rfind("//") > 7 else -1,
        "Prefix_Suffix": 1 if "-" in parts.host else -1,
        "having_Sub_Domain": sub_domain,
        "Shortening_Service": 1 if parts.host in shortener_hosts() else -1,
        "HTTPS_token": 1 if "https" in parts.host else -1,
    }


# every resolved feature unknown; read-only, so one mapping serves all URLs
OFFLINE_ANSWER = MappingProxyType(dict.fromkeys(RESOLVED_FEATURES, 0))


class OfflineResolver:
    """Default resolver: every non-lexical feature is unknown (0).

    Stateless, safe to share across threads.
    """

    def resolve(self, parts: UrlParts) -> MappingProxyType:
        return OFFLINE_ANSWER


class PrecomputedResolver:
    """Serves feature values from a fixed mapping; unknowns fall back to 0.
    Keys outside RESOLVED_FEATURES are ignored."""

    def __init__(self, values: dict[str, int]):
        self.answer = MappingProxyType({n: values.get(n, 0) for n in RESOLVED_FEATURES})

    def resolve(self, parts: UrlParts) -> MappingProxyType:
        return self.answer


def resolve_remaining(parts: UrlParts, resolver=None) -> dict[str, int]:
    """Complete a feature vector with one resolver call answering the 15
    non-lexical features. Returns the full 23-entry mapping. An answer that
    lacks a feature or gives a value outside {-1, 0, 1} raises
    ResolverFailure naming it: a resolver is input from outside."""
    answer = OFFLINE_ANSWER if resolver is None else resolver.resolve(parts)
    values = extract_lexical(parts)
    for name in RESOLVED_FEATURES:
        if name not in answer:
            raise ResolverFailure(name, "missing from the resolver's answer")
        value = answer[name]
        if value not in TERNARY_VALUES:
            raise ResolverFailure(name, f"value {value!r} outside {{-1,0,1}}")
        values[name] = value
    return values


def extract_features(raw: str, resolver=None) -> dict[str, int]:
    """Parse a URL and produce the complete 23-feature mapping."""
    parts = parse_url(raw)
    return resolve_remaining(parts, resolver)


def to_canonical_vector(values: dict[str, float]) -> np.ndarray:
    """Emit values in the fixed canonical order as a float vector."""
    missing = [name for name in CANONICAL_FEATURES if name not in values]
    if missing:
        raise MissingFeature(missing)
    return np.array([float(values[name]) for name in CANONICAL_FEATURES])

"""URL parsing and the 23-feature canonical vector.

Lexical features are computed from the URL string alone. Content and
reputation features (DNS, page content, traffic rank, ...) need a live
lookup, which cannot run offline: every name in RESOLVED_FEATURES is
answered 0 ("unknown"), so training on precomputed CSVs and serving
share one code path and a URL's vector is a pure function of its string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .errors import MalformedUrl, MissingFeature

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

# Need page content or external reputation; answered 0 (unknown) offline.
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
    # printable ASCII without space or brackets: urlsplit neither strips,
    # edits nor NFKC-checks such a URL, so the plain split is exact for it
    if raw.isascii() and raw.isprintable() and not (" " in raw or "[" in raw or "]" in raw):
        parts = _split_plain(raw)
        if parts is not None:
            return parts
    return _split_with_urlsplit(raw)


def _split_plain(raw: str) -> UrlParts | None:
    """`raw` split as urlsplit splits it, or None to leave it to
    `_split_with_urlsplit`: a bad scheme, no host or a bad port, which that
    refuses with the reason, and a port of more than five digits."""
    scheme, sep, rest = raw.partition("://")
    if not sep:
        scheme, rest = "http", raw
    elif _SCHEME_RE.match(scheme):
        scheme = scheme.lower()
    else:
        return None
    # the netloc ends at the first '/', '?' or '#', so the first '#' and the
    # first '?' before it lie beyond it, where urlsplit looks for them
    rest, _, fragment = rest.partition("#")
    rest, _, query = rest.partition("?")
    netloc, slash, path = rest.partition("/")
    host, _, port = netloc.rpartition("@")[2].partition(":")
    if not host:
        return None
    if not port:
        port = None
    elif port.isdigit() and len(port) <= 5 and int(port) <= 65535:
        port = int(port)
    else:
        return None
    return UrlParts(scheme, host.lower(), port, slash + path, query, fragment, raw)


def _split_with_urlsplit(raw: str) -> UrlParts:
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
    """Split a host that is not an IP address (see `is_ip_host`) into
    (subdomain labels, registrable domain).

    The registrable domain is one label plus the longest matching public
    suffix from the bundled list.
    """
    labels = host.split(".")
    suffixes = public_suffixes()
    # longest suffix match, in labels
    for n in range(len(labels) - 1, 0, -1):
        candidate = ".".join(labels[-n:])
        if candidate in suffixes:  # n < len(labels): one label precedes it
            return labels[: -(n + 1)], ".".join(labels[-(n + 1):])
    # unknown TLD: treat the last label as the suffix
    if len(labels) >= 2:
        return labels[:-2], ".".join(labels[-2:])
    return [], host


def extract_lexical(parts: UrlParts) -> dict[str, int]:
    """Fill the 8 features computable from the URL string alone."""
    raw, host = parts.raw, parts.host
    ip = is_ip_host(host)
    subdomains = [] if ip else split_host(host)[0]
    d = len(subdomains)
    if d and subdomains[0] == "www":
        d -= 1
    if d <= 1:
        sub_domain = -1
    elif d == 2:
        sub_domain = 0
    else:
        sub_domain = 1
    return {
        "URL_Length": len(raw),
        "having_IP_Address": 1 if ip else -1,
        "having_At_Symbol": 1 if "@" in raw else -1,
        "double_slash_redirecting": 1 if raw.rfind("//") > 7 else -1,
        "Prefix_Suffix": 1 if "-" in host else -1,
        "having_Sub_Domain": sub_domain,
        "Shortening_Service": 1 if host in shortener_hosts() else -1,
        "HTTPS_token": 1 if "https" in host else -1,
    }


# every resolved feature unknown
_OFFLINE_VALUES = dict.fromkeys(RESOLVED_FEATURES, 0)


def resolve_remaining(parts: UrlParts) -> dict[str, int]:
    """The full 23-entry mapping of `parts`: its lexical features, and 0
    for each of the 15 features a live lookup would answer."""
    values = extract_lexical(parts)
    values.update(_OFFLINE_VALUES)
    return values


def extract_features(raw: str) -> dict[str, int]:
    """Parse a URL and produce the complete 23-feature mapping."""
    return resolve_remaining(parse_url(raw))


_CANONICAL_ROW = itemgetter(*CANONICAL_FEATURES)


def to_canonical_vector(values: dict[str, float]) -> np.ndarray:
    """Emit values in the fixed canonical order as a float vector."""
    try:
        row = _CANONICAL_ROW(values)
    except KeyError:
        raise MissingFeature([n for n in CANONICAL_FEATURES if n not in values]) from None
    return np.fromiter(map(float, row), float, len(CANONICAL_FEATURES))

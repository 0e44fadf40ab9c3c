"""Deterministic synthetic phishing-URL generation.

Two generators:
- `generate_synthetic_urls` builds phishing-like variants of legitimate
  URLs with a fixed bank of transformation rules, deduplicated by the
  hash of a normalized form.
- `generate_feature_rich_domains` emits domains engineered to trigger
  specific lexical features, plus a per-feature occurrence report counted
  back through the extractor.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import ExhaustedRuleSpace, PhishguardError
from .features import extract_lexical, parse_url

SECURITY_WORDS = ("verify", "secure", "account", "login", "update", "confirm")
MISLEADING_SUBDOMAINS = ("login", "secure", "account", "signin", "auth", "verify")
HOMOGLYPHS = {"o": "0", "l": "1", "i": "1", "e": "3", "a": "4", "s": "5"}
FAKE_IPS = ("192.168.13.7", "10.23.45.6", "203.0.113.9", "198.51.100.23")
SHORT_TLDS = ("com", "net", "xyz", "online", "top", "info")


def _rule_misleading_subdomain(base, rng):
    sub = rng.choice(MISLEADING_SUBDOMAINS)
    return f"{base.scheme}://{sub}.{base.host}{base.path or '/'}"


def _rule_security_word(base, rng):
    word = rng.choice(SECURITY_WORDS)
    path = (base.path or "").rstrip("/")
    return f"{base.scheme}://{base.host}{path}/{word}"


def _rule_homoglyph(base, rng):
    candidates = [i for i, c in enumerate(base.host) if c in HOMOGLYPHS]
    if not candidates:
        return f"{base.scheme}://{base.host}{base.path}"
    i = rng.choice(candidates)
    host = base.host[:i] + HOMOGLYPHS[base.host[i]] + base.host[i + 1:]
    return f"{base.scheme}://{host}{base.path or '/'}"


def _rule_ip_host(base, rng):
    ip = rng.choice(FAKE_IPS)
    brand = base.host.split(".")[0]
    return f"http://{ip}/{brand}{base.path or ''}"


def _rule_at_redirect(base, rng):
    decoy = rng.choice(MISLEADING_SUBDOMAINS)
    tld = rng.choice(SHORT_TLDS)
    return f"http://{base.host}@{decoy}-portal{rng.randrange(100)}.{tld}/"


def _rule_hyphen_brand(base, rng):
    brand = base.host.split(".")[0]
    word = rng.choice(SECURITY_WORDS)
    tld = rng.choice(SHORT_TLDS)
    return f"{base.scheme}://{brand}-{word}.{tld}{base.path or '/'}"


TRANSFORMATION_RULES = {
    "misleading_subdomain": _rule_misleading_subdomain,
    "security_word": _rule_security_word,
    "homoglyph": _rule_homoglyph,
    "ip_host": _rule_ip_host,
    "at_redirect": _rule_at_redirect,
    "hyphen_brand": _rule_hyphen_brand,
}


@dataclass
class GenerationConfig:
    legit_urls: list[str]
    target_count: int = 100
    seed: int = 0
    per_feature_target: int = 5
    domain_base: str = "example.com"

    def __post_init__(self):
        if self.target_count < 1:
            raise PhishguardError("target_count must be >= 1")


def normalize_url(url: str) -> str:
    """Lowercase, strip a trailing slash, collapse duplicate slashes in
    the path. Used only for dedup hashing."""
    url = url.lower().rstrip("/")
    if "://" in url:
        scheme, rest = url.split("://", 1)
        while "//" in rest:
            rest = rest.replace("//", "/")
        return f"{scheme}://{rest}"
    while "//" in url:
        url = url.replace("//", "/")
    return url


def _digest(url: str) -> str:
    return hashlib.sha256(normalize_url(url).encode()).hexdigest()


def generate_synthetic_urls(cfg: GenerationConfig) -> list[str]:
    """Produce exactly N unique phishing-like variants of the base URLs."""
    if not cfg.legit_urls:
        raise PhishguardError("legit_urls must be non-empty")
    rng = random.Random(cfg.seed)
    bases = [parse_url(u) for u in cfg.legit_urls]
    base_digests = {_digest(u) for u in cfg.legit_urls}
    rules = tuple(TRANSFORMATION_RULES.values())

    unique: list[str] = []
    seen: set[str] = set()
    budget = 100 * cfg.target_count
    attempts = 0
    while len(unique) < cfg.target_count:
        if attempts >= budget:
            raise ExhaustedRuleSpace(
                f"only {len(unique)} of {cfg.target_count} variants "
                f"after {budget} attempts"
            )
        attempts += 1
        base = rng.choice(bases)
        variant = rng.choice(rules)(base, rng)
        # optionally chain a second rule for extra variety
        if rng.random() < 0.3:
            variant = rng.choice(rules)(parse_url(variant), rng)
        h = _digest(variant)
        if h in seen or h in base_digests:
            continue
        seen.add(h)
        unique.append(variant)
    return unique


# Generators of domains that force a given lexical feature to 1.
def _domain_at_symbol(cfg, rng, i):
    return f"http://{cfg.domain_base}@evil{i}.{rng.choice(SHORT_TLDS)}/"


def _domain_ip(cfg, rng, i):
    return f"http://{rng.choice(FAKE_IPS)}/{cfg.domain_base.split('.')[0]}{i}"


def _domain_prefix_suffix(cfg, rng, i):
    brand = cfg.domain_base.split(".")[0]
    return f"http://{brand}-{rng.choice(SECURITY_WORDS)}{i}.{rng.choice(SHORT_TLDS)}/"


def _domain_subdomain(cfg, rng, i):
    subs = ".".join(rng.sample(MISLEADING_SUBDOMAINS, 3))
    return f"http://{subs}.{cfg.domain_base.split('.')[0]}{i}.com/"


def _domain_shortener(cfg, rng, i):
    from .features import shortener_hosts

    host = sorted(shortener_hosts())[i % len(shortener_hosts())]
    return f"http://{host}/{rng.randrange(10 ** 6)}"


def _domain_https_token(cfg, rng, i):
    brand = cfg.domain_base.split(".")[0]
    return f"http://https-{brand}{i}.{rng.choice(SHORT_TLDS)}/"


def _domain_double_slash(cfg, rng, i):
    return f"http://{cfg.domain_base}/redirect{i}//{rng.choice(SECURITY_WORDS)}"


FEATURE_DOMAIN_GENERATORS = {
    "having_At_Symbol": _domain_at_symbol,
    "having_IP_Address": _domain_ip,
    "Prefix_Suffix": _domain_prefix_suffix,
    "having_Sub_Domain": _domain_subdomain,
    "Shortening_Service": _domain_shortener,
    "HTTPS_token": _domain_https_token,
    "double_slash_redirecting": _domain_double_slash,
}


def generate_feature_rich_domains(cfg: GenerationConfig) -> tuple[list[str], dict[str, int]]:
    """Generate >= T domains per lexical feature that FEATURE_DOMAIN_GENERATORS
    targets and report how often each fires across the whole output
    (counted with the extractor itself)."""
    if cfg.per_feature_target < 1:
        raise PhishguardError("per_feature_target must be >= 1")

    rng = random.Random(cfg.seed)
    urls: list[str] = []
    seen: set[str] = set()
    for feature, gen in FEATURE_DOMAIN_GENERATORS.items():
        produced, attempts = 0, 0
        budget = 100 * cfg.per_feature_target
        while produced < cfg.per_feature_target:
            if attempts >= budget:
                raise ExhaustedRuleSpace(f"could not vary {feature} {budget} times")
            attempts += 1
            url = gen(cfg, rng, attempts)
            h = _digest(url)
            if h in seen:
                continue
            seen.add(h)
            urls.append(url)
            produced += 1
    rng.shuffle(urls)

    report = {feature: 0 for feature in FEATURE_DOMAIN_GENERATORS}
    for url in urls:
        lexical = extract_lexical(parse_url(url))
        for feature in report:
            if lexical[feature] == 1:
                report[feature] += 1
    return urls, report


def count_feature_triggers(urls: list[str], features: tuple[str, ...]) -> dict[str, int]:
    """Independent recount of feature triggers over a URL corpus."""
    counts = {feature: 0 for feature in features}
    for url in urls:
        lexical = extract_lexical(parse_url(url))
        for feature in features:
            if lexical.get(feature) == 1:
                counts[feature] += 1
    return counts

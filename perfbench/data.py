"""Seeded inputs: the reference/training CSV, URL pools and request streams.

Everything here is a pure function of the workload seed, so the same
seed gives byte-identical files and request lines. The program under
test only ever sees the written CSV and the request lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Stream tags keep the generators of one seed independent of each other.
_CSV, _BASES, _POOL, _STREAM = 1, 2, 3, 4

FOREIGN_PROVENANCE = "PhishTank"  # never present in the reference set
# Share of classify_url requests that claim FOREIGN_PROVENANCE, so that
# both PCS outcomes occur.
FOREIGN_PROVENANCE_SHARE = 0.1

_SYLLABLES = ("ba", "ko", "mi", "ta", "ren", "lo", "vex", "qui", "dra", "sol",
              "pay", "bank", "mail", "shop", "net", "cloud", "fin", "tel")
_TLDS = ("com", "org", "net", "io", "co.uk", "de", "com.au")
_PATHS = ("", "/", "/login", "/account/settings", "/signin", "/help/contact",
          "/store/item/42", "/news/2024/03/update", "/auth")

# Deliberately bad lines and the error code each must get back.
BAD_LINES = (
    ("invalid_json", "PARSE_ERROR"),
    ("missing_id", "PARSE_ERROR"),
    ("unknown_tool", "TOOL_NOT_FOUND"),
    ("empty_url", "MALFORMED_URL"),
    ("bad_scheme", "MALFORMED_URL"),
)


def reference_csv_text(seed: int, n: int) -> str:
    """UCI-shaped table, built like the test suite's `make_ternary_dataset`:
    23 ternary features in canonical order, a label driven by 8 of them
    plus noise, 15% label flips. The label column is UCI's `Result`
    in {-1, 1}."""
    from phishguard.features import CANONICAL_FEATURES

    rng = np.random.default_rng([seed, _CSV])
    d = len(CANONICAL_FEATURES)
    X = rng.choice([-1, 0, 1], size=(n, d))
    weights = np.zeros(d)
    weights[:8] = rng.uniform(0.8, 2.0, size=8)
    y = (X @ weights + rng.normal(0, 1, size=n) > 0).astype(int)
    flips = rng.random(n) < 0.15
    y[flips] = 1 - y[flips]
    result = 2 * y - 1
    table = np.column_stack([X, result])
    lines = [",".join((*CANONICAL_FEATURES, "Result"))]
    lines.extend(",".join(map(str, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def write_reference_csv(path: Path, seed: int, n: int) -> None:
    path.write_text(reference_csv_text(seed, n))


def legitimate_bases(seed: int, count: int) -> list[str]:
    rng = np.random.default_rng([seed, _BASES])
    bases, seen = [], set()
    while len(bases) < count:
        brand = "".join(rng.choice(_SYLLABLES, size=int(rng.integers(2, 4))))
        host = f"www.{brand}.{rng.choice(_TLDS)}"
        if host in seen:
            continue
        seen.add(host)
        bases.append(f"https://{host}{rng.choice(_PATHS)}")
    return bases


def url_pool(seed: int, size: int) -> list[str]:
    """Distinct URLs from `phishguard.generate` plus the legitimate bases
    they were derived from, in a seeded order."""
    from phishguard.generate import (
        GenerationConfig,
        generate_feature_rich_domains,
        generate_synthetic_urls,
    )

    bases = legitimate_bases(seed, max(20, size // 10))
    per_feature = max(2, size // 40)
    synthetic = size - len(bases) - 7 * per_feature
    brand = bases[0].split("://", 1)[1].split("/", 1)[0].removeprefix("www.")
    cfg = GenerationConfig(legit_urls=bases, target_count=synthetic, seed=seed,
                           per_feature_target=per_feature, domain_base=brand)
    urls = generate_synthetic_urls(cfg)
    domains, _ = generate_feature_rich_domains(cfg)
    pool = list(dict.fromkeys(bases + urls + domains))
    order = np.random.default_rng([seed, _POOL]).permutation(len(pool))
    return [pool[i] for i in order]


@dataclass(frozen=True)
class Request:
    rid: str | None  # id the reply must echo (None for unidentifiable lines)
    tool: str  # tool name, or "bad" for a deliberately bad line
    url: str | None
    line: bytes  # exactly what goes on the wire, newline included
    expect: str  # "ok" or the expected error code


def _line(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


class RequestStream:
    """Deterministic, unbounded request sequence for one serving workload.

    `distinct` pools give every request its own URL: once the pool is
    used up, later passes add a `?visit=<pass>` query. `zipf` pools draw
    URLs with probability proportional to 1 / rank**s, so most requests
    repeat an earlier URL.
    """

    def __init__(self, seed: int, spec: dict, pool: list[str]):
        self.spec = spec
        self.pool = pool
        self.rng = np.random.default_rng([seed, _STREAM])
        kinds = list(spec["mix"])
        weights = np.array([spec["mix"][k] for k in kinds], dtype=float)
        self.kinds = kinds
        self.kind_p = weights / weights.sum()
        if spec["url_pool"] == "zipf":
            ranks = np.arange(1, len(pool) + 1, dtype=float)
            p = ranks ** -spec["zipf_exponent"]
            self.url_p = p / p.sum()
        self.count = 0
        self.bad_count = 0

    def _next_url(self) -> str:
        if self.spec["url_pool"] == "zipf":
            return self.pool[int(self.rng.choice(len(self.pool), p=self.url_p))]
        i = self.count - 1
        url = self.pool[i % len(self.pool)]
        visit = i // len(self.pool)
        return url if visit == 0 else f"{url}?visit={visit}"

    def next(self, prefix: str) -> Request:
        self.count += 1
        rid = f"{prefix}-{self.count}"
        kind = self.kinds[int(self.rng.choice(len(self.kinds), p=self.kind_p))]
        url = self._next_url()
        if kind == "bad":
            return self._bad(rid, url)
        if kind == "server_info":
            return Request(rid, kind, None, _line({"id": rid, "tool": kind}), "ok")
        arguments = {"url": url}
        if kind == "classify_url" and self.rng.random() < FOREIGN_PROVENANCE_SHARE:
            arguments["provenance"] = FOREIGN_PROVENANCE
        return Request(rid, kind, url,
                       _line({"id": rid, "tool": kind, "arguments": arguments}), "ok")

    def _bad(self, rid: str, url: str) -> Request:
        name, code = BAD_LINES[self.bad_count % len(BAD_LINES)]
        self.bad_count += 1
        if name == "invalid_json":
            line = ('{"id": "%s", "tool": "classify_url", "arguments": {"url": ' % rid).encode() + b"\n"
            return Request(None, "bad", None, line, code)
        if name == "missing_id":
            return Request(None, "bad", None,
                           _line({"tool": "classify_url", "arguments": {"url": url}}), code)
        if name == "unknown_tool":
            return Request(rid, "bad", None,
                           _line({"id": rid, "tool": "rank_url", "arguments": {"url": url}}), code)
        target = "" if name == "empty_url" else "ht!tp://" + url.split("://", 1)[-1]
        return Request(rid, "bad", None,
                       _line({"id": rid, "tool": "classify_url", "arguments": {"url": target}}), code)

    def take(self, n: int, prefix: str) -> list[Request]:
        return [self.next(prefix) for _ in range(n)]

"""Adversarial-contamination harness and the CIS/APF/CSI/MRE metrics.

The attack model: a seeded fraction of contexts receives feature entries
copied from another context (cross-context contamination) plus bounded
noise on ternary features. Mitigation strategies:

- isolation: cross-context copies are refused at injection; only the
  noise lands. No mitigation pass, so MRE is unreported.
- validation: the attack lands; contexts whose seal hash no longer
  matches, or whose provenance confidence is below threshold, are
  restored from their pre-attack snapshots.
- hybrid: both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .context import IsolatedContext, PcsConfig, classify_with_fusion, provenance_score
from .datasets import Dataset
from .errors import IdMismatch, PhishguardError, ZeroBaseline
from .explain import FusionWeights, identity_fusion
from .features import TERNARY_VALUES


@dataclass
class AttackSpec:
    contamination_rate: float = 0.3
    delta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.contamination_rate <= 1.0:
            raise PhishguardError("contamination_rate must be in [0, 1]")
        if self.delta < 0:
            raise PhishguardError("delta must be >= 0")


@dataclass
class ContextSet:
    contexts: list[IsolatedContext]
    phase: str  # pre_attack | post_attack | post_mitigation
    links: tuple[tuple[str, str], ...] = ()  # (victim id, source id)

    def __post_init__(self):
        ids = [c.context_id for c in self.contexts]
        if len(set(ids)) != len(ids):
            raise PhishguardError("context ids must be unique")

    def by_id(self) -> dict[str, IsolatedContext]:
        return {c.context_id: c for c in self.contexts}


@dataclass
class RobustnessRow:
    strategy: str
    cis: float
    apf: float
    mre: float | None
    csi_stability: float
    wall_clock_s: float = 0.0


def build_contexts(ds: Dataset, model, fusion: FusionWeights | None = None,
                   n: int = 200, seed: int = 0) -> ContextSet:
    """Seeded sample of dataset rows turned into contexts."""
    fusion = fusion or identity_fusion(ds.feature_names)
    rng = np.random.default_rng(seed)
    take = min(n, len(ds))
    rows = rng.choice(len(ds), size=take, replace=False)
    contexts = []
    for i, row in enumerate(rows):
        vector = ds.X[row]
        outcome = classify_with_fusion(vector, model, fusion)
        contexts.append(IsolatedContext.from_outcome(
            outcome, context_id=f"ctx-{i:04d}", request_ref=f"row-{int(row)}",
            names=ds.feature_names, vector=vector, provenance=ds.provenance[row],
        ))
    return ContextSet(contexts, "pre_attack")


def inject_attack(pre: ContextSet, spec: AttackSpec, model,
                  fusion: FusionWeights | None = None,
                  block_cross_copies: bool = False) -> ContextSet:
    """Contaminate a seeded subset of contexts, each into a new context
    (the others are shared with `pre`); re-runs inference on the victims."""
    if not pre.contexts:
        raise PhishguardError("pre-attack set is empty")
    names = pre.contexts[0].names
    fusion = fusion or identity_fusion(names)
    rng = np.random.default_rng(spec.seed)
    n = len(pre.contexts)
    n_attacked = int(np.ceil(spec.contamination_rate * n))
    victims = rng.choice(n, size=n_attacked, replace=False) if n_attacked else np.array([], dtype=int)

    post_contexts = list(pre.contexts)
    links = []
    ternary = [i for i, name in enumerate(names) if name != "URL_Length"]
    for v in victims:
        ctx = pre.contexts[v]
        vector = ctx.vector.copy()
        # cross-context field copies, which isolation refuses outright
        source = int(rng.integers(n - 1))
        source = source if source < v else source + 1
        copy_mask = rng.random(len(names)) < 0.5
        if not block_cross_copies:
            src = pre.contexts[source]
            vector[copy_mask] = src.vector[copy_mask]
            links.append((ctx.context_id, src.context_id))
        # bounded noise on ternary features, re-clamped to the nearest value
        if spec.delta > 0:
            noise = rng.uniform(-spec.delta, spec.delta, size=len(ternary))
            for offset, i in enumerate(ternary):
                noisy = vector[i] + noise[offset]
                vector[i] = min(TERNARY_VALUES, key=lambda t: abs(t - noisy))
        if not block_cross_copies or spec.delta > 0:
            outcome = classify_with_fusion(vector, model, fusion)
            post_contexts[v] = IsolatedContext.from_outcome(
                outcome, context_id=ctx.context_id, request_ref=ctx.request_ref,
                names=names, vector=vector, provenance=ctx.provenance,
                created_at=ctx.created_at,
            )
    return ContextSet(post_contexts, "post_attack", tuple(links))


def _context_vector(ctx: IsolatedContext) -> np.ndarray:
    return np.concatenate([ctx.vector, [ctx.probability]])


def cis(pre: ContextSet, post: ContextSet) -> float:
    """Mean cosine similarity of [x || p] per context, mapped to [0, 1].
    Identical contexts score exactly 1."""
    pre_map, post_map = pre.by_id(), post.by_id()
    if set(pre_map) != set(post_map):
        raise IdMismatch("pre/post context ids differ")
    sims = []
    for cid, a in pre_map.items():
        b = post_map[cid]
        va, vb = _context_vector(a), _context_vector(b)
        if np.array_equal(va, vb):
            sims.append(1.0)
            continue
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0 or nb == 0:
            sims.append(0.5 if (na or nb) else 1.0)
            continue
        cosine = float(va @ vb / (na * nb))
        sims.append((cosine + 1.0) / 2.0)
    return float(np.mean(sims))


def _context_item_set(ctx: IsolatedContext) -> set:
    return set(ctx.features.items()) | {("__label__", ctx.label)}


def apf(pre: ContextSet, post: ContextSet) -> float:
    """(1/N) sum over contamination links (i, j) of
    |C_i^pre intersect C_j^post| / |C_i^pre|."""
    pre_map, post_map = pre.by_id(), post.by_id()
    if set(pre_map) != set(post_map):
        raise IdMismatch("pre/post context ids differ")
    if not post.links:
        return 0.0
    n = len(pre.contexts)
    total = 0.0
    for victim_id, source_id in post.links:
        source_pre = _context_item_set(pre_map[source_id])
        victim_post = _context_item_set(post_map[victim_id])
        total += len(source_pre & victim_post) / len(source_pre)
    return total / n


def csi(model, contexts: ContextSet, fusion: FusionWeights,
        delta: float, n_trials: int = 5, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo |p(x) - p(x + delta*u)| over the fused feature set;
    returns (csi_raw, csi_stability = 1 - csi_raw)."""
    if n_trials < 1:
        raise PhishguardError("n_trials must be >= 1")
    if not contexts.contexts:
        raise PhishguardError("no contexts")
    names = contexts.contexts[0].names
    fused = np.array([name in fusion.f_final for name in names])
    rng = np.random.default_rng(seed)
    diffs = []
    X = np.stack([c.vector for c in contexts.contexts])
    w = fusion.vector(names)
    base = np.asarray(model.predict_proba(X * w))
    for _ in range(n_trials):
        noise = rng.uniform(-1.0, 1.0, size=X.shape) * delta
        noise[:, ~fused] = 0.0
        perturbed = np.asarray(model.predict_proba((X + noise) * w))
        diffs.append(np.abs(base - perturbed))
    raw = float(np.mean(diffs))
    return raw, 1.0 - raw


def mre(cis_pre: float, cis_post_attack: float, cis_post_mitigation: float) -> float:
    if cis_pre <= 0:
        raise ZeroBaseline("pre-attack CIS must be positive")
    return (cis_post_mitigation - cis_post_attack) / cis_pre


def mitigate(pre: ContextSet, post: ContextSet, pcs: PcsConfig | None) -> ContextSet:
    """Restore flagged contexts from their pre-attack snapshots.

    A context is flagged when its seal hash differs from the pre-attack
    seal (tamper evidence) or when its provenance confidence falls below
    the PCS threshold.
    """
    pre_map = pre.by_id()
    restored = []
    for ctx in post.contexts:
        snapshot = pre_map[ctx.context_id]
        flagged = ctx.seal_digest() != snapshot.seal_digest()
        if not flagged and pcs is not None:
            _, flagged, _ = provenance_score(ctx.vector, pcs, ctx.provenance)
        restored.append(snapshot if flagged else ctx)
    return ContextSet(restored, "post_mitigation")


STRATEGIES = ("isolation", "validation", "hybrid")


def run_strategy(ds: Dataset, model, strategy: str, spec: AttackSpec,
                 fusion: FusionWeights | None = None,
                 pcs: PcsConfig | None = None,
                 n_contexts: int = 200) -> RobustnessRow:
    """One (dataset, strategy) row of the robustness report."""
    if strategy not in STRATEGIES:
        raise PhishguardError(f"unknown strategy {strategy!r}")
    started = time.perf_counter()
    fusion = fusion or identity_fusion(ds.feature_names)
    pre = build_contexts(ds, model, fusion, n=n_contexts, seed=spec.seed)
    isolate = strategy in ("isolation", "hybrid")
    post = inject_attack(pre, spec, model, fusion, block_cross_copies=isolate)

    cis_post_attack = cis(pre, post)
    apf_value = apf(pre, post)
    if strategy == "isolation":
        final = post
        mre_value = None
        cis_final = cis_post_attack
    else:
        final = mitigate(pre, post, pcs)
        cis_final = cis(pre, final)
        mre_value = mre(1.0, cis_post_attack, cis_final)

    _, stability = csi(model, final, fusion, spec.delta, seed=spec.seed)
    return RobustnessRow(
        strategy=strategy,
        cis=cis_final,
        apf=apf_value,
        mre=mre_value,
        csi_stability=stability,
        wall_clock_s=time.perf_counter() - started,
    )


def report_table(rows: dict[str, RobustnessRow]) -> str:
    """Aligned text table in CIS, APF, MRE, CSI column order."""
    width = max((len(k) for k in rows), default=8)
    lines = [
        "Strategy".ljust(width)
        + "CIS".rjust(10) + "APF".rjust(10) + "MRE".rjust(10) + "CSI".rjust(10)
    ]
    for name, row in rows.items():
        mre_cell = "--".rjust(10) if row.mre is None else f"{row.mre:10.4f}"
        lines.append(
            name.ljust(width)
            + f"{row.cis:10.4f}{row.apf:10.4f}" + mre_cell
            + f"{row.csi_stability:10.4f}"
        )
    return "\n".join(lines)

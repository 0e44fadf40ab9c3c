import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset
from phishguard.errors import IdMismatch, PhishguardError, ZeroBaseline
from phishguard.explain import identity_fusion
from phishguard.models import LinearModel
from phishguard.robustness import (
    STRATEGIES,
    AttackSpec,
    ContextSet,
    apf,
    build_contexts,
    cis,
    csi,
    inject_attack,
    mitigate,
    mre,
    report_table,
    run_strategy,
)
from phishguard.context import IsolatedContext, PcsConfig


def fixed_model(n_features=23):
    rng = np.random.default_rng(0)
    return LinearModel(weights=rng.normal(size=n_features), bias=0.1,
                       feature_names=tuple(f"f{i}" for i in range(n_features)))


def small_world(n=60, seed=0):
    ds = make_ternary_dataset(n=n, seed=seed, provenance=("UCI",))
    model = fixed_model()
    fusion = identity_fusion(ds.feature_names)
    return ds, model, fusion


def make_ctx(cid, features, prob, label, provenance="UCI"):
    names = sorted(features)
    vector = np.array([float(features[k]) for k in names])
    outcome = {"probability": prob, "y_hat": label, "rationale": []}
    return IsolatedContext.from_outcome(outcome, context_id=cid, request_ref=cid,
                                        names=names, vector=vector, provenance=provenance)


class TestAttackSpec:
    def test_bounds(self):
        with pytest.raises(PhishguardError):
            AttackSpec(contamination_rate=1.5)
        with pytest.raises(PhishguardError):
            AttackSpec(delta=-0.1)

    def test_defaults_valid(self):
        spec = AttackSpec()
        assert 0.0 <= spec.contamination_rate <= 1.0


class TestBuildAndInject:
    def test_null_attack_is_identity(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=40, seed=0)
        post = inject_attack(pre, AttackSpec(contamination_rate=0.0, delta=0.0),
                             model, fusion)
        assert cis(pre, post) == 1.0
        assert apf(pre, post) == 0.0
        assert post.links == ()

    def test_links_recorded_for_victims(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=40, seed=0)
        post = inject_attack(pre, AttackSpec(contamination_rate=0.25, delta=0.0),
                             model, fusion)
        assert len(post.links) == 10  # ceil(0.25 * 40)
        ids = {c.context_id for c in pre.contexts}
        for victim, source in post.links:
            assert victim in ids and source in ids
            assert victim != source

    def test_isolation_blocks_copies(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=40, seed=0)
        post = inject_attack(pre, AttackSpec(contamination_rate=0.5, delta=0.0),
                             model, fusion, block_cross_copies=True)
        assert post.links == ()
        assert cis(pre, post) == 1.0  # only noise could change things

    def test_attack_degrades_cis(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=50, seed=1)
        post = inject_attack(pre, AttackSpec(contamination_rate=0.5, delta=1.0,
                                             seed=1), model, fusion)
        assert cis(pre, post) < 1.0

    def test_more_contamination_lower_cis(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=50, seed=2)
        light = inject_attack(pre, AttackSpec(contamination_rate=0.1, delta=1.0,
                                              seed=3), model, fusion)
        heavy = inject_attack(pre, AttackSpec(contamination_rate=0.9, delta=1.0,
                                              seed=3), model, fusion)
        assert cis(pre, heavy) < cis(pre, light)

    def test_seed_determinism(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=30, seed=0)
        spec = AttackSpec(contamination_rate=0.4, delta=1.0, seed=9)
        a = inject_attack(pre, spec, model, fusion)
        b = inject_attack(pre, spec, model, fusion)
        assert a.links == b.links
        assert cis(pre, a) == cis(pre, b)

    def test_ternary_values_stay_ternary(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=30, seed=0)
        post = inject_attack(pre, AttackSpec(contamination_rate=1.0, delta=2.0,
                                             seed=4), model, fusion)
        for ctx in post.contexts:
            for name, value in ctx.features.items():
                if name != "URL_Length":
                    assert value in (-1.0, 0.0, 1.0)


class TestCis:
    def test_identical_exactly_one(self):
        a = make_ctx("c1", {"f1": 1.0, "f2": -1.0}, 0.7, 1)
        pre = ContextSet([a], "pre_attack")
        post = ContextSet([make_ctx("c1", {"f1": 1.0, "f2": -1.0}, 0.7, 1)],
                          "post_attack")
        assert cis(pre, post) == 1.0

    def test_hand_computed_cosine(self):
        a = make_ctx("c1", {"f1": 1.0, "f2": 0.0}, 0.0, 1)
        b = make_ctx("c1", {"f1": 0.0, "f2": 1.0}, 0.0, 1)
        # vectors [1,0,0] vs [0,1,0]: cosine 0 -> mapped to 0.5
        value = cis(ContextSet([a], "pre_attack"), ContextSet([b], "post_attack"))
        assert value == pytest.approx(0.5)

    def test_id_mismatch(self):
        a = make_ctx("c1", {"f1": 1.0}, 0.5, 1)
        b = make_ctx("c2", {"f1": 1.0}, 0.5, 1)
        with pytest.raises(IdMismatch):
            cis(ContextSet([a], "pre_attack"), ContextSet([b], "post_attack"))


class TestApf:
    def test_hand_derived_half(self):
        # source A pre-items: {(f1,1),(f2,0),(label,1)}; victim B post
        # holds 2 of the 3 (f1 copied, same label) -> 2/3 per link;
        # one link over N=2 contexts but the spec averages over N:
        # APF = (2/3) / 2 = 1/3
        a_pre = make_ctx("A", {"f1": 1.0, "f2": 0.0}, 0.9, 1)
        b_pre = make_ctx("B", {"f1": -1.0, "f2": -1.0}, 0.2, 0)
        a_post = make_ctx("A", {"f1": 1.0, "f2": 0.0}, 0.9, 1)
        b_post = make_ctx("B", {"f1": 1.0, "f2": -1.0}, 0.8, 1)
        pre = ContextSet([a_pre, b_pre], "pre_attack")
        post = ContextSet([a_post, b_post], "post_attack", (("B", "A"),))
        assert apf(pre, post) == pytest.approx((2 / 3) / 2)

    def test_full_copy_gives_one_over_n(self):
        a_pre = make_ctx("A", {"f1": 1.0, "f2": 0.0}, 0.9, 1)
        b_pre = make_ctx("B", {"f1": -1.0, "f2": -1.0}, 0.2, 0)
        b_post = make_ctx("B", {"f1": 1.0, "f2": 0.0}, 0.9, 1)
        pre = ContextSet([a_pre, b_pre], "pre_attack")
        post = ContextSet([a_pre, b_post], "post_attack", (("B", "A"),))
        assert apf(pre, post) == pytest.approx(0.5)

    def test_no_links_zero(self):
        a = make_ctx("A", {"f1": 1.0}, 0.5, 1)
        pre = ContextSet([a], "pre_attack")
        post = ContextSet([make_ctx("A", {"f1": 1.0}, 0.5, 1)], "post_attack")
        assert apf(pre, post) == 0.0


class TestCsi:
    def test_zero_delta_perfect_stability(self):
        ds, model, fusion = small_world()
        contexts = build_contexts(ds, model, fusion, n=20, seed=0)
        raw, stability = csi(model, contexts, fusion, delta=0.0)
        assert raw == 0.0
        assert stability == 1.0

    def test_stability_decreases_with_delta(self):
        ds, model, fusion = small_world()
        contexts = build_contexts(ds, model, fusion, n=30, seed=0)
        _, tight = csi(model, contexts, fusion, delta=0.05, seed=1)
        _, loose = csi(model, contexts, fusion, delta=1.0, seed=1)
        assert loose < tight <= 1.0

    def test_seed_determinism(self):
        ds, model, fusion = small_world()
        contexts = build_contexts(ds, model, fusion, n=20, seed=0)
        assert csi(model, contexts, fusion, 0.3, seed=5) == \
            csi(model, contexts, fusion, 0.3, seed=5)


class TestMre:
    def test_formula(self):
        assert mre(1.0, 0.8, 0.95) == pytest.approx(0.15)

    def test_no_recovery_zero(self):
        assert mre(1.0, 0.8, 0.8) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            mre(0.0, 0.5, 0.9)


class TestMitigation:
    def test_snapshot_restore_is_exact(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=40, seed=0)
        spec = AttackSpec(contamination_rate=0.5, delta=1.0, seed=2)
        post = inject_attack(pre, spec, model, fusion)
        assert cis(pre, post) < 1.0
        restored = mitigate(pre, post, pcs=None)
        assert cis(pre, restored) == 1.0
        assert restored.phase == "post_mitigation"

    def test_untouched_contexts_not_replaced(self):
        ds, model, fusion = small_world()
        pre = build_contexts(ds, model, fusion, n=40, seed=0)
        post = inject_attack(pre, AttackSpec(contamination_rate=0.0, delta=0.0),
                             model, fusion)
        restored = mitigate(pre, post, pcs=None)
        for before, after in zip(post.contexts, restored.contexts):
            assert np.array_equal(before.vector, after.vector)


class TestRunStrategy:
    def test_isolation_reports_no_mre(self):
        ds, model, fusion = small_world(n=80)
        row = run_strategy(ds, model, "isolation",
                           AttackSpec(contamination_rate=0.3, delta=1.0, seed=0),
                           fusion, n_contexts=50)
        assert row.mre is None
        assert row.apf == 0.0  # copies blocked, no links

    def test_validation_restores_cis_to_one(self):
        ds, model, fusion = small_world(n=80)
        row = run_strategy(ds, model, "validation",
                           AttackSpec(contamination_rate=0.3, delta=1.0, seed=0),
                           fusion, n_contexts=50)
        assert row.cis == 1.0
        assert row.mre is not None and row.mre >= 0.0

    def test_hybrid_blocks_and_restores(self):
        ds, model, fusion = small_world(n=80)
        row = run_strategy(ds, model, "hybrid",
                           AttackSpec(contamination_rate=0.3, delta=1.0, seed=0),
                           fusion, n_contexts=50)
        assert row.cis == 1.0
        assert row.apf == 0.0
        assert row.mre is not None

    def test_unknown_strategy(self):
        ds, model, fusion = small_world()
        with pytest.raises(PhishguardError):
            run_strategy(ds, model, "prayer", AttackSpec(), fusion)

    def test_report_table_formats_missing_mre(self):
        ds, model, fusion = small_world(n=60)
        rows = {
            name: run_strategy(ds, model, name,
                               AttackSpec(contamination_rate=0.3, delta=1.0,
                                          seed=0),
                               fusion, n_contexts=30)
            for name in STRATEGIES
        }
        table = report_table(rows)
        lines = table.splitlines()
        assert lines[0].split() == ["Strategy", "CIS", "APF", "MRE", "CSI"]
        isolation_line = next(l for l in lines if l.startswith("isolation"))
        assert "--" in isolation_line
        validation_line = next(l for l in lines if l.startswith("validation"))
        assert "--" not in validation_line

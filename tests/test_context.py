"""Contexts as the server and the robustness harness build them.

The pinned digests, reply hashes and robustness rows were recorded by the
code in which each context stored a features dict beside its vector and
an attack deep-copied the contexts and wrote into the copies. Building
immutable contexts must give the same values.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_ternary_dataset
from phishguard import robustness, server
from phishguard.context import IsolatedContext, PcsConfig
from phishguard.features import CANONICAL_FEATURES
from phishguard.models import LinearModel, train_linear
from phishguard.robustness import (
    STRATEGIES,
    AttackSpec,
    build_contexts,
    inject_attack,
    mitigate,
    run_strategy,
)
from phishguard.server import PhishingServer

URLS = (
    "http://a.com",
    "https://www.example.com/index.html",
    "http://192.168.1.1/login",
    "http://secure-paypal.bit.ly//redirect@evil",
    "http://https-bank.example.co.uk/account/verify?session=1234567890abcdef",
    "http://sub.sub2.sub3.sub4.example.com/" + "x" * 80,
    "https://login.microsoftonline.com.phish-site.ru/auth",
    "http://tinyurl.com/abc123",
)


def serve(pcs, claims):
    """The audit log's digests and the sha256 of the replies after one
    `classify_url` per URL; a claim of None sends no provenance."""
    model = train_linear(make_ternary_dataset(n=300, seed=0))
    phishing_server = PhishingServer(model, pcs=pcs)
    replies = []
    for i, (url, claim) in enumerate(zip(URLS, claims)):
        arguments = {"url": url} if claim is None else {"url": url, "provenance": claim}
        replies.append(phishing_server.handle_line(json.dumps(
            {"id": f"r{i}", "tool": "classify_url", "arguments": arguments})))
    digests = [ctx.seal_digest() for ctx in phishing_server.audit_log]
    return digests, hashlib.sha256("\n".join(replies).encode()).hexdigest()


def joined(contexts):
    return hashlib.sha256("".join(c.seal_digest() for c in contexts.contexts)
                          .encode()).hexdigest()


class TestPinnedValues:
    def test_audit_log_without_pcs(self):
        digests, replies = serve(None, [None, "UCI", None, "Mendeley", None, None, "UCI", None])
        assert digests == [
            "60b9e0cc503f9206e1c438bb078ae31b3050bf4ab42f93756104b2a3b000caee",
            "5707b614c11e12104ce2be3b8779b0d1499fbdd4a2bb41301fd32d4dd9b7d1b9",
            "8321b91a450c382518cf933573084fd78b1937ceef835e2cb7c4af538a191e46",
            "4a5cd76c2f7dd48fc2e41a856915783f3be715179278035acf2a3b5d136a7663",
            "6e8cb74e7e5fb9f84a1a315d06e5af8804b5c5d3e4f22af4eb4bdac0d85a5745",
            "0d18d565655957b970d2e4c456d16057aa509b1d8c0b8f3c2b47146db4e22ccd",
            "26b9f406bdc3af50479f418690310417917d6c1692066c8605ab5ba0ac9ad7ac",
            "3245376804b6e6608f4642240dde3a2fddd1fa1ffe867fa85f0ea753ef002a42",
        ]
        # re-recorded when the rationale came to name only x > 0 features
        assert replies == "6793aeca76c2f475252cc70f31c9d2f7770d8ec1eac5c4a1560b8e89a2318a1d"

    def test_audit_log_with_pcs(self):
        reference = make_ternary_dataset(n=200, seed=5, provenance=("UCI",))
        claims = ["Unknown", "UCI", "Mendeley", "UCI", "Mendeley", "Unknown", "UCI", "Mendeley"]
        digests, replies = serve(PcsConfig(reference, k=5), claims)
        assert digests == [
            "60b9e0cc503f9206e1c438bb078ae31b3050bf4ab42f93756104b2a3b000caee",
            "5707b614c11e12104ce2be3b8779b0d1499fbdd4a2bb41301fd32d4dd9b7d1b9",
            "8fbda73e9e0c62ed3af070a079ca8fda3db29a5d4e9fca096ff8d56103e21872",
            "c77f86cfc38716079d84dae84f857ba71728285d05eb5b28802c17a6dcfa8f70",
            "3033b7d49e424b20fb92f9d41d7a31a0f75ed8caf2822c818c67fa216bc7c8ca",
            "0d18d565655957b970d2e4c456d16057aa509b1d8c0b8f3c2b47146db4e22ccd",
            "26b9f406bdc3af50479f418690310417917d6c1692066c8605ab5ba0ac9ad7ac",
            "470d5eecef0f71846658752751342e37a40547066de869e780bd6dca1a5d19e0",
        ]
        # re-recorded when the rationale came to name only x > 0 features
        assert replies == "0ab132419c26a5b28a73b88321237e9f257f8d93a02f98fb063ab495d284e8af"

    def test_contexts_before_and_after_an_attack(self):
        rng = np.random.default_rng(0)
        model = LinearModel(weights=rng.normal(size=23), bias=0.1,
                            feature_names=CANONICAL_FEATURES)
        ds = make_ternary_dataset(n=60, seed=0, provenance=("UCI", "Mendeley"))
        pre = build_contexts(ds, model, n=12, seed=0)
        assert [c.seal_digest() for c in pre.contexts] == [
            "9442d08289dbbed3272fbf030a8d25acf8ba86273cbb497004c224e884a29aae",
            "889f61dac570b33a2807756532283e50b4f7ab2467a7bb6d573e534e2929bc24",
            "29bc2575e90864c923d431a561553f5f19dbc55f44cf5d2c91ba6510f1a97d0c",
            "bae6e11be5bc90faaeb1e957faa72c5cfacb8450cb67ac8edb855134b004bfac",
            "8cb0ed019ab5d16713960cc84dbdda22961e2d1db286ef2fdcf22047c117470e",
            "16e52a8dd81497b14f062f4cefa1cb09cf32c457aa59e8287e2e70981bc637f7",
            "833bba0e7c4b46d244f77685f1da7ce09ec3d3fdb0b5e9cdfd751fc149eef8c2",
            "e7711b9f59b114a3c4afb1962784f9aaf49c64264aae771ef254ab763e3fbd8f",
            "2d84ecc8b69890a98af8f1869a3d9c66b39a576f84ad43252f85d0c354d04dac",
            "b86eb77710d5a085d8672394620600ad789e082ac1f06f90e093c0518731ee76",
            "4b75f67a41e1601353f6748b9060bceae769c640329e06d2eac71722e700baea",
            "192e32b56ba715a454236076e1fcbac06ba6257cc00105d64347efea52f7a0e5",
        ]
        spec = AttackSpec(contamination_rate=0.5, delta=1.0, seed=1)
        post = inject_attack(pre, spec, model)
        assert post.links == (("ctx-0006", "ctx-0004"), ("ctx-0004", "ctx-0009"),
                              ("ctx-0009", "ctx-0008"), ("ctx-0003", "ctx-0007"),
                              ("ctx-0001", "ctx-0003"), ("ctx-0000", "ctx-0011"))
        assert joined(post) == "054c9d8d01179c74128e9be8c61af8b298afb4df3c8de68624741917869b262e"
        blocked = inject_attack(pre, spec, model, block_cross_copies=True)
        assert joined(blocked) == "d48effb0da500dd5e9f3ab306cb339173599deae51bb16aed1c3170e92fa8b93"
        mitigated = mitigate(pre, post, PcsConfig(ds, k=5))
        assert joined(mitigated) == "a776e00dbc9b31130b6f2560b4dcd1b39e0bae045c2494fa49e0342b73b71791"

    # (CIS, APF, MRE, CSI stability)
    ROWS = {
        "isolation": (0.9642848268602893, 0.0, None, 0.8199654522085199),
        "validation": (1.0, 0.15833333333333333, 0.09198133341395964, 0.816569633719115),
        "hybrid": (1.0, 0.0, 0.03571517313971073, 0.816569633719115),
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_robustness_rows(self, strategy):
        ds = make_ternary_dataset(n=120, seed=2, provenance=("UCI", "Mendeley"))
        row = run_strategy(ds, train_linear(ds), strategy,
                           AttackSpec(contamination_rate=0.3, delta=1.0, seed=1),
                           pcs=PcsConfig(ds, k=5), n_contexts=60)
        assert (row.cis, row.apf, row.mre, row.csi_stability) == self.ROWS[strategy]


class TestSharing:
    def test_attack_shares_the_contexts_it_leaves(self):
        ds = make_ternary_dataset(n=60, seed=0)
        model = train_linear(ds)
        pre = build_contexts(ds, model, n=20, seed=0)
        post = inject_attack(pre, AttackSpec(contamination_rate=0.25, delta=0.0, seed=2),
                             model)
        victims = {victim for victim, _ in post.links}
        assert len(victims) == 5
        for before, after in zip(pre.contexts, post.contexts):
            assert (before is after) == (before.context_id not in victims)


class TestImmutableVector:
    """No one can change a context's vector: not the caller that gave it,
    and not a holder of the context."""

    @staticmethod
    def context(vector):
        return IsolatedContext("c1", "r1", ("a", "b", "c"), vector, 0.5, 1)

    @staticmethod
    def read_only_view(owner):
        """The owner, and a read-only view through which it can still be changed."""
        view = owner.view()
        view.flags.writeable = False
        return owner, view

    @pytest.mark.parametrize("make", [
        lambda: ([1.0, 0.0, -1.0],) * 2,
        lambda: (np.array([1.0, 0.0, -1.0]),) * 2,
        lambda: TestImmutableVector.read_only_view(np.array([1.0, 0.0, -1.0])),
        lambda: (np.array([1, 0, -1]),) * 2,
    ], ids=["list", "writeable-array", "read-only-view", "int-array"])
    def test_a_change_to_the_source_does_not_reach_the_context(self, make):
        source, given = make()
        ctx = self.context(given)
        source[:] = [5, 5, 5]
        assert ctx.vector.tolist() == [1.0, 0.0, -1.0]
        assert ctx.vector.dtype == np.float64
        assert not ctx.vector.flags.writeable
        with pytest.raises(ValueError):
            ctx.vector.flags.writeable = True
        with pytest.raises(ValueError):
            ctx.vector[0] = 5.0

    def test_a_view_of_bytes_is_kept_uncopied(self):
        key = np.array([1.0, 0.0, -1.0]).tobytes()
        view = np.frombuffer(key)
        ctx = self.context(view)
        assert ctx.vector is view and np.shares_memory(ctx.vector, view)
        with pytest.raises(ValueError):
            ctx.vector.flags.writeable = True

    @pytest.mark.parametrize("dtype", [">f8", "<f4"])
    def test_a_view_of_bytes_in_another_dtype_is_copied_as_float64(self, dtype):
        ctx = self.context(np.frombuffer(np.array([1, 0, -1], dtype=dtype).tobytes(), dtype))
        assert ctx.vector.dtype == np.float64 and ctx.vector.tolist() == [1.0, 0.0, -1.0]


class TestSealedClaims:
    CLAIMS = ["UCI", "", "Unknown", 5, 1.5, True, None, [], ["UCI", [1, {"b": 2}]], {},
              {"b": [1, {"c": None}], "a": "x"}]

    @staticmethod
    def digest(ctx, claim):
        """seal_digest's hash as written out, with the claim as it arrived."""
        payload = json.dumps({"features": dict(zip(ctx.names, ctx.vector.tolist())),
                              "probability": round(ctx.probability, 12), "label": ctx.label,
                              "provenance": claim}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def test_the_digest_is_that_of_the_claim_as_sent(self):
        phishing_server = PhishingServer(train_linear(make_ternary_dataset(n=100, seed=0)))
        for i, claim in enumerate(self.CLAIMS):
            phishing_server.handle_line(json.dumps({
                "id": f"r{i}", "tool": "classify_url",
                "arguments": {"url": URLS[i % len(URLS)], "provenance": claim}}))
            ctx = phishing_server.audit_log[-1]
            assert ctx.seal_digest() == self.digest(ctx, claim), claim

    def test_a_sealed_claim_cannot_be_changed(self):
        phishing_server = PhishingServer(train_linear(make_ternary_dataset(n=100, seed=0)))
        claim = ["UCI", {"source": ["feed"]}]
        phishing_server.handle_line(json.dumps({
            "id": "r1", "tool": "classify_url",
            "arguments": {"url": URLS[0], "provenance": claim}}))
        ctx = phishing_server.audit_log[-1]
        sealed = ctx.seal_digest()
        for change in (lambda p: p.append("x"), lambda p: p[1].__setitem__("k", 1),
                       lambda p: p[1]["source"].append("x"), lambda p: p[1].clear()):
            with pytest.raises((AttributeError, TypeError)):
                change(ctx.provenance)
        claim.append("x")  # nor does the caller's value reach it
        assert ctx.seal_digest() == sealed == self.digest(ctx, claim[:2])


def test_robustness_imports_no_transport():
    probe = ("import sys, phishguard.robustness; "
             "print(sorted({'phishguard.server', 'selectors'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestTracedLookups:
    """The benchmark's tracer wraps these functions where the server and
    the harness look them up, so every call must go through them."""

    def test_one_fusion_call_per_distinct_vector_and_one_pcs_call_per_distinct_claim(
            self, monkeypatch):
        calls = {"classify_with_fusion": 0, "provenance_score": 0}
        for module in (server, robustness):
            for name in calls:
                count_calls(monkeypatch, module, name, calls)
        reference = make_ternary_dataset(n=50, seed=1, provenance=("UCI",))
        phishing_server = PhishingServer(train_linear(make_ternary_dataset(n=300, seed=0)),
                                         pcs=PcsConfig(reference))
        # http://b.com extracts to the vector of http://a.com
        requests = [{"url": url} for url in (*URLS, "http://b.com", URLS[0])]
        # a new claim on a known vector is scored again; an unhashable one
        # is scored on every request
        requests += [{"url": URLS[0], "provenance": "UCI"}] * 2
        requests += [{"url": URLS[0], "provenance": ["UCI"]}] * 2
        for i, arguments in enumerate(requests):
            phishing_server.handle_line(json.dumps(
                {"id": f"r{i}", "tool": "classify_url", "arguments": arguments}))
        assert calls == {"classify_with_fusion": len(URLS), "provenance_score": len(URLS) + 3}

    def test_one_fusion_call_per_built_context(self, monkeypatch):
        calls = {"classify_with_fusion": 0, "provenance_score": 0}
        for module in (server, robustness):
            for name in calls:
                count_calls(monkeypatch, module, name, calls)
        ds = make_ternary_dataset(n=60, seed=0)
        build_contexts(ds, train_linear(ds), n=25, seed=0)
        assert calls == {"classify_with_fusion": 25, "provenance_score": 0}

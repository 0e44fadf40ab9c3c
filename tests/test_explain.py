import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_ternary_dataset
from phishguard.datasets import Dataset, distinct_rows
from phishguard.errors import (
    DegeneratePerturbations,
    EmptyFeatureSets,
    PhishguardError,
    TooManyFeatures,
    UnknownFeature,
)
from phishguard.explain import (
    entropy,
    fuse_weights,
    information_gain,
    information_gain_all,
    lime_explain,
    shap_exact,
    shap_linear,
    shap_sampled,
)
from phishguard.explain.fusion import _median
from phishguard.explain.lime import _perturbation_plan
from phishguard.features import extract_features, to_canonical_vector
from phishguard.generate import GenerationConfig, generate_synthetic_urls
from phishguard.models import (
    LinearModel,
    TrainConfig,
    train_forest,
    train_gbt,
    train_linear,
    train_mlp,
    train_tree,
)
from phishguard.models.common import sigmoid


class TestEntropyAndIg:
    def test_entropy_known_values(self):
        assert entropy([0, 1]) == pytest.approx(1.0)
        assert entropy([0, 0, 0]) == pytest.approx(0.0)
        # H(1/3): computed by hand from -sum p log2 p
        expected = -(1 / 3) * np.log2(1 / 3) - (2 / 3) * np.log2(2 / 3)
        assert entropy([0, 1, 1]) == pytest.approx(expected)

    def test_information_gain_hand_computed(self):
        # y = [0,0,1,1], x = [-1,-1,-1,1]:
        # H(Y) = 1; group x=-1 has labels [0,0,1] (H = 0.9183), group x=1
        # is pure. IG = 1 - 0.75 * H(1/3) ~ 0.31128
        ds = Dataset(np.array([[-1.0], [-1.0], [-1.0], [1.0]]),
                     np.array([0, 0, 1, 1]), ("f",))
        h13 = -(1 / 3) * np.log2(1 / 3) - (2 / 3) * np.log2(2 / 3)
        assert information_gain(ds, "f") == pytest.approx(1 - 0.75 * h13)

    def test_perfect_predictor_gain_equals_label_entropy(self):
        ds = Dataset(np.array([[-1.0], [-1.0], [1.0], [1.0]]),
                     np.array([0, 0, 1, 1]), ("f",))
        assert information_gain(ds, "f") == pytest.approx(entropy(ds.y))

    def test_independent_feature_zero_gain(self):
        ds = Dataset(np.array([[-1.0], [1.0], [-1.0], [1.0]]),
                     np.array([0, 0, 1, 1]), ("f",))
        assert information_gain(ds, "f") == pytest.approx(0.0)

    def test_gain_nonnegative_and_bounded(self):
        ds = make_ternary_dataset(n=300, seed=0)
        gains = information_gain_all(ds)
        h_y = entropy(ds.y)
        for g in gains.values():
            assert -1e-12 <= g <= h_y + 1e-12

    def test_many_valued_column_binned(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=90)
        ds = Dataset(col[:, None], (col > 0).astype(int), ("f",))
        g = information_gain(ds, "f")
        assert 0.0 < g <= 1.0  # terciles keep it informative but not exact

    def test_unknown_feature(self):
        ds = make_ternary_dataset(n=20, seed=0)
        with pytest.raises(UnknownFeature):
            information_gain(ds, "nope")

    @pytest.mark.parametrize("feature", ["Prefix_Suffix", "Abnormal_URL"])
    def test_a_nan_cell_is_refused_by_name_and_row(self, feature):
        # NaN was counted as a fourth level: the quantiles came out NaN,
        # every row fell in one bin and the gain read 0
        ds = make_ternary_dataset(n=300, seed=1)
        assert information_gain(ds, feature) > 0.02
        j = ds.feature_names.index(feature)
        ds.X[[7, 9], j] = np.nan
        with pytest.raises(PhishguardError, match=f"'{feature}' is undefined: NaN at row 7"):
            information_gain(ds, feature)
        with pytest.raises(PhishguardError, match=f"'{feature}'"):
            information_gain_all(ds)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_an_infinite_cell_is_binned_as_any_extreme_value(self, value):
        # an infinity is an ordered value, and terciles depend on order only
        ds = make_ternary_dataset(n=300, seed=1)
        j = ds.feature_names.index("Prefix_Suffix")
        ds.X[7, j] = 2 * np.sign(value)
        expected = information_gain(ds, "Prefix_Suffix")
        ds.X[7, j] = value
        assert information_gain(ds, "Prefix_Suffix") == expected > 0


def linear_logit_scorer(weights, bias=0.0):
    w = np.asarray(weights, dtype=float)
    return lambda X: np.asarray(X, dtype=float) @ w + bias


class TestShapExact:
    def test_efficiency(self):
        rng = np.random.default_rng(1)
        B = rng.normal(size=(50, 5))
        x = rng.normal(size=5)

        def scorer(X):
            X = np.asarray(X)
            return np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3]

        phis = shap_exact(scorer, x, B)
        base = float(scorer(B.mean(axis=0)[None, :])[0])
        assert base + phis.sum() == pytest.approx(float(scorer(x[None, :])[0]), abs=1e-10)

    def test_dummy_feature_zero(self):
        B = np.zeros((10, 3))
        x = np.array([1.0, 2.0, 3.0])
        scorer = linear_logit_scorer([1.0, 0.0, 2.0])
        assert shap_exact(scorer, x, B)[1] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        B = np.zeros((10, 2))
        x = np.array([1.0, 1.0])

        def scorer(X):
            X = np.asarray(X)
            return X[:, 0] + X[:, 1] + X[:, 0] * X[:, 1]

        phis = shap_exact(scorer, x, B)
        assert phis[0] == pytest.approx(phis[1])

    def test_matches_linear_closed_form(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=6)
        x = rng.normal(size=6)
        B = rng.normal(size=(40, 6))
        scorer = linear_logit_scorer(w, bias=0.3)
        exact = shap_exact(scorer, x, B)
        closed = shap_linear(LinearModel(weights=w, bias=0.3), x, B)
        assert np.allclose(exact, closed, atol=1e-10)

    def test_feature_cap(self):
        with pytest.raises(TooManyFeatures):
            shap_exact(lambda X: np.zeros(len(X)), np.zeros(20), np.zeros((3, 20)))


class TestShapLinear:
    def test_standardization_folded_in(self):
        # model trained with internal standardization must attribute on the
        # raw scale: phi_j = (w_j / scale_j)(x_j - mu_j)
        ds = make_ternary_dataset(n=200, seed=3)
        model = train_linear(ds)
        x = ds.X[0]
        base = float(model.decision_function(ds.X.mean(axis=0)))
        phis = shap_linear(model, x, ds.X)
        assert base + phis.sum() == pytest.approx(float(model.decision_function(x)), abs=1e-10)

    def test_efficiency_against_decision_function(self):
        ds = make_ternary_dataset(n=100, seed=4)
        model = train_linear(ds)
        base = float(model.decision_function(ds.X.mean(axis=0)))
        for i in (0, 17, 55):
            phis = shap_linear(model, ds.X[i], ds.X)
            assert base + phis.sum() == pytest.approx(
                float(model.decision_function(ds.X[i])), abs=1e-10
            )


def shap_sampled_reference(scorer, x, background, n_samples, seed):
    """shap_sampled as it built each permutation's prefix states, one
    feature and one state at a time; it must match bit for bit."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(background, dtype=float).mean(axis=0)
    n = len(x)
    rng = np.random.default_rng(seed)
    sums = np.zeros(n)
    sq_sums = np.zeros(n)
    done = 0
    while done < n_samples:
        b = min(512, n_samples - done)
        perms = np.stack([rng.permutation(n) for _ in range(b)])
        rows = np.tile(mu, (b, n + 1, 1))
        for step in range(n):
            js = perms[:, step]
            for k in range(step + 1, n + 1):
                rows[np.arange(b), k, js] = x[js]
        values = np.asarray(scorer(rows.reshape(b * (n + 1), n))).reshape(b, n + 1)
        deltas = np.diff(values, axis=1)
        for step in range(n):
            js = perms[:, step]
            np.add.at(sums, js, deltas[:, step])
            np.add.at(sq_sums, js, deltas[:, step] ** 2)
        done += b
    phis = sums / n_samples
    variance = np.maximum(sq_sums / n_samples - phis ** 2, 0.0)
    return phis, np.sqrt(variance / n_samples)


class TestShapSampled:
    @pytest.mark.parametrize("n, n_samples", [(1, 100), (2, 513), (5, 1000), (12, 700)])
    def test_bit_identical_to_prefix_loop(self, n, n_samples):
        rng = np.random.default_rng(n)
        B = rng.normal(size=(25, n))
        x = rng.normal(size=n)

        def scorer(X):
            X = np.asarray(X)
            return np.tanh(X[:, 0]) * X[:, -1] + np.sin(X).sum(axis=1)

        got = shap_sampled(scorer, x, B, n_samples=n_samples, seed=3)
        phis, se = shap_sampled_reference(scorer, x, B, n_samples, 3)
        assert np.array_equal(got[0], phis)
        assert np.array_equal(got[1], se)

    def test_converges_to_exact(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(30, 5))
        x = rng.normal(size=5)

        def scorer(X):
            X = np.asarray(X)
            return X[:, 0] * X[:, 1] + np.tanh(X[:, 2]) - X[:, 4]

        exact = shap_exact(scorer, x, B)
        sampled, se = shap_sampled(scorer, x, B, n_samples=4000, seed=0)
        # each estimate must sit within 3 standard errors of the truth
        for j in range(5):
            bound = 3 * se[j] + 1e-9
            assert abs(sampled[j] - exact[j]) <= bound

    def test_seed_determinism(self):
        B = np.random.default_rng(0).normal(size=(20, 4))
        x = np.ones(4)
        scorer = linear_logit_scorer([1.0, -1.0, 0.5, 0.0])
        a, _ = shap_sampled(scorer, x, B, n_samples=500, seed=9)
        b, _ = shap_sampled(scorer, x, B, n_samples=500, seed=9)
        assert np.array_equal(a, b)

    def test_linear_case_exact_regardless_of_order(self):
        # for additive scorers every permutation yields the same marginal,
        # so the MC estimate is exact and the SE collapses
        B = np.zeros((5, 3))
        x = np.array([1.0, 2.0, 3.0])
        scorer = linear_logit_scorer([1.0, 1.0, 1.0])
        phis, se = shap_sampled(scorer, x, B, n_samples=200, seed=0)
        assert np.allclose(phis, x)
        assert np.allclose(se, 0.0, atol=1e-12)

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            shap_sampled(lambda X: np.zeros(len(X)), np.zeros(3),
                         np.zeros((3, 3)), n_samples=10)


class TestLime:
    def test_recovers_linear_signs(self):
        rng = np.random.default_rng(6)
        B = rng.normal(size=(200, 4))
        w_true = np.array([2.0, -3.0, 0.5, 0.0])
        scorer = lambda X: sigmoid(np.asarray(X) @ w_true)
        weights = lime_explain(scorer, np.zeros(4), B, n_perturb=2000, seed=0)
        assert weights[0] > 0
        assert weights[1] < 0
        assert abs(weights[3]) < min(abs(weights[0]), abs(weights[1]))

    def test_ranking_matches_magnitudes(self):
        weights = lime_explain(
            lambda X: sigmoid(np.asarray(X) @ np.array([0.1, 5.0, -2.0])),
            np.zeros(3),
            np.random.default_rng(1).normal(size=(100, 3)),
            n_perturb=1500,
            seed=2,
        )
        assert np.argmax(np.abs(weights)) == 1

    def test_seed_determinism(self):
        B = np.random.default_rng(2).normal(size=(50, 3))
        scorer = lambda X: sigmoid(np.asarray(X).sum(axis=1))
        a = lime_explain(scorer, np.zeros(3), B, seed=4)
        b = lime_explain(scorer, np.zeros(3), B, seed=4)
        assert np.array_equal(a, b)

    def test_degenerate_background(self):
        B = np.zeros((20, 3))
        with pytest.raises(DegeneratePerturbations):
            lime_explain(lambda X: np.zeros(len(X)), np.zeros(3), B, seed=0)

    def test_rejects_tiny_perturbation_count(self):
        with pytest.raises(ValueError):
            lime_explain(lambda X: np.zeros(len(X)), np.zeros(3),
                         np.zeros((5, 3)), n_perturb=10)


def perturbations(x, B, n_perturb, seed):
    """The perturbation matrix both LIME versions fit to."""
    d = len(x)
    rng = np.random.default_rng(seed)
    flips = rng.random((n_perturb, d)) < 0.5
    draws = B[rng.integers(0, len(B), size=(n_perturb, d)), np.arange(d)]
    return np.where(flips, draws, x)


def lime_reference(scorer, x, B, n_perturb=500, seed=0):
    """LIME as first written: every perturbation goes to the scorer in one
    batch. `lime_explain` must reproduce its weights bit for bit."""
    if n_perturb < 50:
        raise ValueError("n_perturb must be >= 50")
    x = np.asarray(x, dtype=float)
    d = len(x)
    kernel_width = 0.75 * np.sqrt(d)

    Z = perturbations(x, B, n_perturb, seed)
    if np.all(Z == Z[0]):
        raise DegeneratePerturbations("all perturbations are identical")

    mean = B.mean(axis=0)
    std = B.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Zs = (Z - mean) / std
    xs = (x - mean) / std
    dist_sq = ((Zs - xs) ** 2).sum(axis=1)
    proximity = np.exp(-dist_sq / kernel_width ** 2)

    targets = np.asarray(scorer(Z), dtype=float)
    design = np.hstack([Zs, np.ones((n_perturb, 1))])
    W = proximity[:, None]
    gram = design.T @ (W * design)
    reg = 1e-3 * np.eye(d + 1)
    reg[d, d] = 0.0
    coef = np.linalg.solve(gram + reg, design.T @ (proximity * targets))
    return coef[:d]


@pytest.fixture(scope="module")
def lime_scorers():
    ds = make_ternary_dataset(n=200, seed=8)
    return {
        "gbt": train_gbt(ds, n_rounds=15, max_depth=3),
        "forest": train_forest(ds, n_trees=12, max_depth=5, seed=1),
        "tree": train_tree(ds, max_depth=6),
        # the CLI's MLP shape
        "mlp": train_mlp(ds, [32, 1], TrainConfig(seed=2, max_epochs=20)),
        "linear": train_linear(ds),
        "lambda": lambda X: np.tanh(np.asarray(X)).sum(axis=1),
    }


SPECIAL_CELLS = np.array([-1.0, 0.0, 1.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 29.0])


def outcome(explain, *args, **kwargs):
    """An explanation's weights, or the error it raised."""
    with np.errstate(all="ignore"):
        try:
            return explain(*args, **kwargs)
        except (np.linalg.LinAlgError, DegeneratePerturbations) as exc:
            return type(exc)


class TestLimeMatchesFullBatch:
    @pytest.mark.parametrize("name", ["gbt", "forest", "tree", "mlp", "linear", "lambda"])
    @pytest.mark.parametrize("n_background", [1, 2, 40])
    @pytest.mark.parametrize("n_perturb", [50, 137, 500, 1000])
    def test_bit_identical_to_reference(self, lime_scorers, name, n_background,
                                        n_perturb):
        model = lime_scorers[name]
        scorer = model if name == "lambda" else model.predict_proba
        rng = np.random.default_rng([n_background, n_perturb])
        for trial in range(4):
            # ternary cells mostly, specials in some: each case hits both
            pool = SPECIAL_CELLS[:3] if trial == 0 else SPECIAL_CELLS
            x = rng.choice(pool, size=23)
            if n_background == 2:
                B = np.vstack([np.zeros(23), x])  # what the server passes
            else:
                B = rng.choice(pool, size=(n_background, 23))
            got = outcome(lime_explain, scorer, x, B, n_perturb=n_perturb, seed=trial)
            want = outcome(lime_reference, scorer, x, B, n_perturb=n_perturb, seed=trial)
            if isinstance(want, type):
                assert got is want
            else:
                assert np.array_equal(got, want, equal_nan=True)


class CountingScorer:
    """A model that records the size of every batch it scores."""

    def __init__(self, model):
        self.model = model
        self.batches = []

    def predict_proba(self, X):
        self.batches.append(len(X))
        return self.model.predict_proba(X)


class TestLimeScoresDistinctRows:
    def test_each_distinct_perturbation_scored_once(self, lime_scorers):
        cfg = GenerationConfig(legit_urls=["https://example.com/login"],
                               target_count=5, seed=3)
        for url in generate_synthetic_urls(cfg):
            x = to_canonical_vector(extract_features(url))
            B = np.vstack([np.zeros(len(x)), x])
            distinct = np.unique(perturbations(x, B, 500, 0).view(np.uint64), axis=0)
            assert len(distinct) < 500
            for name in ("gbt", "linear", "mlp"):
                scorer = CountingScorer(lime_scorers[name])
                weights = lime_explain(scorer.predict_proba, x, B, seed=0)
                assert scorer.batches == [len(distinct)], name
                assert np.array_equal(weights, lime_reference(scorer.model.predict_proba,
                                                              x, B, seed=0)), name

    def test_lone_distinct_row_scored_once(self):
        # NaN != NaN keeps these bit-equal rows from counting as degenerate
        x = np.array([np.nan, 1.0, 0.0])
        ds = make_ternary_dataset(n=50, n_features=3, informative=3)
        for model in (train_tree(ds), train_forest(ds, n_trees=15)):
            scorer = CountingScorer(model)
            weights = lime_explain(scorer.predict_proba, x, x[None, :], seed=0)
            assert scorer.batches == [1]
            want = lime_reference(model.predict_proba, x, x[None, :], seed=0)
            assert np.array_equal(weights, want, equal_nan=True)

    @pytest.mark.parametrize("d", [1, 2, 23])
    def test_distinct_rows_exact(self, d):
        # -0.0 and 0.0, and NaN and -NaN, are distinct bits
        pool = np.append(SPECIAL_CELLS, np.copysign(np.nan, -1.0))
        rng = np.random.default_rng(d)
        for n, levels in ((1, 2), (50, 2), (50, len(pool)), (500, 3), (500, len(pool))):
            Z = rng.choice(rng.permutation(pool)[:levels], size=(n, d))
            first, inverse = distinct_rows(Z)
            bits = Z.view(np.uint64)
            assert np.array_equal(bits[first][inverse], bits)
            assert len(np.unique(bits[first], axis=0)) == len(first)
            # each distinct row is represented by its first occurrence
            for row, i in zip(bits[first], first):
                assert (bits[:i] != row).any(axis=1).all()

    def test_plan_cached_and_read_only(self):
        flips, rows = _perturbation_plan(0, 500, 23, 2)
        assert _perturbation_plan(0, 500, 23, 2)[0] is flips
        for array in (flips, rows):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1


class TestFusion:
    IG = {"a": 0.8, "b": 0.4, "c": 0.1, "d": 0.0}
    PHI = {"a": 0.1, "b": -2.0, "c": 0.0, "d": 0.5}

    def test_membership_sets(self):
        fused = fuse_weights(self.IG, self.PHI, alpha=0.5)
        # medians: IG 0.25 -> {a, b}; |phi| 0.3 -> {b, d}
        assert fused.f_ig == frozenset({"a", "b"})
        assert fused.f_xai == frozenset({"b", "d"})
        assert fused.f_final == frozenset({"a", "b", "d"})

    def test_hand_computed_weights(self):
        fused = fuse_weights(self.IG, self.PHI, alpha=0.5)
        # normalized IG: a=1.0, b=0.5; normalized |phi|: b=1.0, d=0.25
        assert fused.weights["a"] == pytest.approx(0.5 * 1.0)
        assert fused.weights["b"] == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)
        assert fused.weights["d"] == pytest.approx(0.5 * 0.25)

    def test_alpha_one_is_pure_ig(self):
        fused = fuse_weights(self.IG, self.PHI, alpha=1.0)
        assert fused.weights["a"] == pytest.approx(1.0)
        assert fused.weights["b"] == pytest.approx(0.5)
        # d is only in F_XAI, whose side has weight beta = 0
        assert fused.weights["d"] == pytest.approx(0.0)

    def test_absent_side_term_is_zero(self):
        # a is in F_IG only; with alpha=0 its whole weight must vanish
        fused = fuse_weights(self.IG, self.PHI, alpha=0.0)
        assert fused.weights["a"] == pytest.approx(0.0)

    def test_vector_zero_outside_f_final(self):
        fused = fuse_weights(self.IG, self.PHI, alpha=0.5)
        # c was selected by neither side and zzz is unknown: neither may
        # outrank a fused feature
        vec = fused.vector(["a", "zzz", "b", "c"])
        assert vec[1] == 0.0 and vec[3] == 0.0
        assert vec[0] == pytest.approx(fused.weights["a"])
        assert vec[2] == pytest.approx(fused.weights["b"])

    def test_alpha_bounds(self):
        with pytest.raises(PhishguardError):
            fuse_weights(self.IG, self.PHI, alpha=1.5)

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptyFeatureSets):
            fuse_weights({}, {}, alpha=0.5)


def same_median(got, values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # np.median of inf and -inf
        want = float(np.median(values))
    assert type(got) is float
    # -0.0 == 0.0: of tied zeros np.median may pick either sign
    assert got == want or (math.isnan(got) and math.isnan(want))


MEDIAN_VALUES = st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0])),
                         min_size=1, max_size=9)


class TestMedian:
    """np.median is the oracle of the median that fusion ranks by."""

    @pytest.mark.parametrize("values", [
        [3.0], [2.0, 1.0], [3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0],
        [1.0, 1.0, 2.0, 2.0], [5.0, 5.0, 5.0], [0.0, -0.0], [-0.0, -0.0, 0.0],
        [-0.0, 0.0, 0.0, -0.0], [math.inf, 1.0], [-math.inf, math.inf],
        [-math.inf, math.inf, 0.0], [math.inf, math.inf], [math.nan], [1.0, math.nan],
        [math.nan, 1.0, 2.0], [1e308, 1e308], [-1e308, -1e308, 1.0, 2.0],
    ])
    def test_matches_numpy(self, values):
        same_median(_median(values), values)

    @settings(max_examples=500, deadline=None)
    @given(MEDIAN_VALUES)
    def test_matches_numpy_on_any_floats(self, values):
        same_median(_median(values), values)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ternary_dataset
from phishguard.errors import (
    EmptyInput,
    InfiniteCell,
    LengthMismatch,
    SingleClassDataset,
    SingleClassInput,
    UnmappableFeature,
)
from phishguard.metrics import (
    ConfusionMatrix,
    accuracy_metric,
    auc_metric,
    auc_pairwise,
    confusion,
    cross_validate,
    metrics_table,
    prf1,
    roc_auc,
)
from phishguard.models import train_linear, train_tree


class TestConfusion:
    def test_hand_tallied(self):
        labels =      [1, 1, 1, 0, 0, 0, 1, 0]
        predictions = [1, 0, 1, 0, 1, 0, 1, 0]
        cm = confusion(labels, predictions)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (3, 1, 1, 3)
        assert cm.total == 8

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


class TestPrf1:
    def test_hand_computed(self):
        # tp=2 fp=1 fn=1 tn=2: precision 2/3, recall 2/3, f1 2/3, acc 4/6
        stats = prf1(ConfusionMatrix(tp=2, fp=1, fn=1, tn=2))
        assert stats["precision"] == pytest.approx(2 / 3)
        assert stats["recall"] == pytest.approx(2 / 3)
        assert stats["f1"] == pytest.approx(2 / 3)
        assert stats["accuracy"] == pytest.approx(4 / 6)

    def test_degenerate_no_positive_predictions(self):
        stats = prf1(ConfusionMatrix(tp=0, fp=0, fn=3, tn=5))
        assert stats["precision"] == 0.0
        assert stats["f1"] == 0.0

    def test_degenerate_no_positive_labels(self):
        stats = prf1(ConfusionMatrix(tp=0, fp=2, fn=0, tn=5))
        assert stats["recall"] == 0.0

    def test_perfect(self):
        stats = prf1(ConfusionMatrix(tp=4, fp=0, fn=0, tn=4))
        assert stats["accuracy"] == stats["f1"] == 1.0


def roc_by_blocks(labels, scores):
    """The per-block loop that roc_auc's vectorised block ends replaced:
    the reference for its curve points, thresholds and area."""
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    points = [(0.0, 0.0)]
    thresholds = [float("inf")]
    tp = fp = 0
    i = 0
    n = len(labels)
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        block = sorted_labels[i:j]
        tp += int(np.sum(block == 1))
        fp += int(np.sum(block == 0))
        points.append((fp / n_neg, tp / n_pos))
        thresholds.append(float(sorted_scores[i]))
        i = j
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    auc = float((np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0).sum())
    return points, thresholds, auc


class TestRocAuc:
    def test_known_auc(self):
        # scores .9,.8 positive, .7,.4 negative except one inversion:
        # labels 1,0,1,0 with scores .9,.8,.6,.4 -> pairs: (.9 beats both),
        # (.6 beats .4 only) => 3/4 = 0.75
        labels = [1, 0, 1, 0]
        scores = [0.9, 0.8, 0.6, 0.4]
        _, auc = roc_auc(labels, scores)
        assert auc == pytest.approx(0.75)

    def test_perfect_and_inverted(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])[1] == pytest.approx(1.0)
        assert roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9])[1] == pytest.approx(0.0)

    def test_all_tied_is_half(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])[1] == pytest.approx(0.5)

    def test_curve_monotone(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        scores = rng.random(50).round(1)  # force ties
        curve, _ = roc_auc(labels, scores)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert curve.thresholds == sorted(curve.thresholds, reverse=True)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassInput):
            roc_auc([1, 1], [0.2, 0.4])

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, 1e-300,
                                               float("inf"), float("-inf")])),
                    min_size=2, max_size=40))
    def test_bit_identical_to_block_loop(self, pairs):
        labels = [p[0] for p in pairs]
        scores = [p[1] for p in pairs]
        if len(set(labels)) < 2:
            return
        curve, auc = roc_auc(labels, scores)
        points, thresholds, loop_auc = roc_by_blocks(labels, scores)
        assert curve.points == points
        assert [repr(t) for t in curve.thresholds] == [repr(t) for t in thresholds]
        assert repr(auc) == repr(loop_auc)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1),
                              st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0])),
                    min_size=2, max_size=30))
    def test_trapezoid_equals_pairwise_oracle(self, pairs):
        labels = [p[0] for p in pairs]
        scores = [p[1] for p in pairs]
        if len(set(labels)) < 2:
            return
        _, auc = roc_auc(labels, scores)
        assert auc == pytest.approx(auc_pairwise(labels, scores), abs=1e-12)


class TestCrossValidate:
    def test_fold_count_and_range(self):
        ds = make_ternary_dataset(n=300, seed=1)
        result = cross_validate(lambda d: train_linear(d), ds,
                                {"accuracy": accuracy_metric}, k=5, seed=0)["accuracy"]
        assert len(result.scores) == 5
        assert all(0.0 <= s <= 1.0 for s in result.scores)
        assert result.mean == pytest.approx(np.mean(result.scores))
        assert result.std == pytest.approx(np.std(result.scores))

    def test_seed_determinism(self):
        ds = make_ternary_dataset(n=200, seed=2)
        a = cross_validate(lambda d: train_linear(d), ds, {"auc": auc_metric}, k=3, seed=7)
        b = cross_validate(lambda d: train_linear(d), ds, {"auc": auc_metric}, k=3, seed=7)
        assert a["auc"].scores == b["auc"].scores

    def test_metrics_share_one_model_per_fold(self):
        ds = make_ternary_dataset(n=200, seed=2)
        fits = []

        def trainer(train_ds):
            fits.append(len(train_ds))
            return train_linear(train_ds)

        both = cross_validate(trainer, ds, {"accuracy": accuracy_metric, "auc": auc_metric},
                              k=4, seed=7)
        assert len(fits) == 4
        assert list(both) == ["accuracy", "auc"]
        for name, metric in (("accuracy", accuracy_metric), ("auc", auc_metric)):
            alone = cross_validate(lambda d: train_linear(d), ds, {name: metric}, k=4, seed=7)
            assert both[name].scores == alone[name].scores

    def test_fold_error_annotated(self):
        # all-positive labels make every fold single-class
        ds = make_ternary_dataset(n=60, seed=3)
        ds.y[:] = 1
        with pytest.raises(SingleClassDataset) as err:
            cross_validate(lambda d: train_linear(d), ds, {"auc": auc_metric}, k=3)
        assert "fold 0" in str(err.value)

    def test_fold_error_keeps_class_with_several_arguments(self):
        # UnmappableFeature's constructor takes (dataset, feature)
        def trainer(train_ds):
            raise UnmappableFeature("d.csv", "DNSRecord")

        ds = make_ternary_dataset(n=60, seed=3)
        with pytest.raises(UnmappableFeature) as err:
            cross_validate(trainer, ds, {"auc": auc_metric}, k=3)
        assert str(err.value) == "fold 0: feature 'DNSRecord' not found in dataset 'd.csv'"
        assert err.value.feature == "DNSRecord"

    @pytest.mark.parametrize("row", [0, 3, 59])
    def test_infinite_cell_names_the_dataset_row(self, row):
        ds = make_ternary_dataset(n=60, seed=3)
        ds.X[row, 2] = -np.inf
        with pytest.raises(InfiniteCell) as err:
            cross_validate(train_tree, ds, {"auc": auc_metric}, k=3)
        assert (err.value.row, err.value.column) == (row, 2)
        assert f"-inf at row {row} of the dataset, column 2" in str(err.value)


def test_metrics_table_layout():
    text = metrics_table({
        "LogReg": {"accuracy": 0.9196, "precision": 0.91, "recall": 0.93,
                   "f1": 0.92, "auc": 0.9757},
    })
    lines = text.splitlines()
    assert lines[0].split() == ["Model", "Accuracy", "Precision", "Recall",
                                "F1", "ROC", "AUC"]
    assert "0.9196" in lines[1]
    assert "0.9757" in lines[1]

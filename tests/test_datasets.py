import csv

import numpy as np
import pytest

from phishguard.datasets import (
    Dataset,
    align_features,
    class_distribution,
    concatenate,
    load_csv,
    save_csv,
)
from phishguard.errors import (
    EmptyDataset,
    MissingLabelColumn,
    NonNumericCell,
    UnmappableFeature,
)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestLoadCsv:
    def test_result_column_remapped(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "f2", "Result"], [[1, 0, -1], [0, 1, 1]])
        ds = load_csv(path, provenance="UCI")
        assert ds.y.tolist() == [0, 1]
        assert ds.feature_names == ("f1", "f2")
        assert ds.provenance == ("UCI", "UCI")

    def test_distinct_rows_unchanged(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "label"], [[1, 0], [2, 0], [3, 1]])
        assert len(load_csv(path)) == 3

    def test_duplicates_collapse(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "label"], [[1, 0]] * 4 + [[2, 1]])
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.X[0, 0] == 1  # first occurrence kept

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "f2"], [[1, 2]])
        with pytest.raises(MissingLabelColumn):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "label"], [["abc", 0]])
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert err.value.column == "f1"

    def test_non_numeric_cell_reports_its_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "f2", "f3", "label"],
                  [[1, 2, 3, 0], [4, "5", "x", 1], [7, "y", 9, 1]])
        with pytest.raises(NonNumericCell) as err:
            load_csv(path)
        assert (err.value.row, err.value.column) == (1, "f3")
        assert "'x'" in str(err.value)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,label\n1,0\n\n , \n\t\n2,1\n")
        ds = load_csv(path)
        assert ds.X[:, 0].tolist() == [1.0, 2.0]
        assert ds.y.tolist() == [0, 1]

    def test_save_csv_text(self, tmp_path):
        ds = Dataset(np.array([[1.0, -0.0, 0.5], [-1.0, 2.5e-300, 3.0]]),
                     np.array([1, 0]), ("a", "b", "c"))
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        assert path.read_bytes() == b"a,b,c,label\r\n1,0,0.5,1\r\n-1,2.5e-300,3,0\r\n"

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "label"], [])
        with pytest.raises(EmptyDataset):
            load_csv(path)

    def test_dedup_idempotent_via_reserialize(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "f2", "label"],
                  [[1, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1]])
        ds1 = load_csv(path)
        out = tmp_path / "out.csv"
        save_csv(ds1, out)
        ds2 = load_csv(out)
        assert np.array_equal(ds1.X, ds2.X)
        assert np.array_equal(ds1.y, ds2.y)
        assert ds1.feature_names == ds2.feature_names

    def test_no_stray_labels_survive(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "label"], [[1, 2]])
        with pytest.raises(Exception):
            load_csv(path)


class TestClassDistribution:
    def test_single_phishing(self):
        ds = Dataset(np.zeros((1, 2)), np.array([1]), ("a", "b"))
        assert class_distribution(ds) == (0, 1)

    def test_balanced(self):
        ds = Dataset(np.zeros((10, 1)), np.array([0, 1] * 5), ("a",))
        assert class_distribution(ds) == (5, 5)

    def test_counts_sum(self, toy_dataset):
        n0, n1 = class_distribution(toy_dataset)
        assert n0 + n1 == len(toy_dataset)


class TestAlignFeatures:
    def test_alias_unification(self):
        ds = Dataset(np.array([[10.0, 1.0]]), np.array([1]),
                     ("url_length", "having_ip_address"))
        (aligned,) = align_features([ds], ["URL_Length", "having_IP_Address"])
        assert aligned.feature_names == ("URL_Length", "having_IP_Address")
        assert aligned.X[0].tolist() == [10.0, 1.0]

    def test_single_column(self):
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([0]), ("a", "b"))
        (aligned,) = align_features([ds], ["b"])
        assert aligned.feature_names == ("b",)
        assert aligned.X[0].tolist() == [2.0]

    def test_unmappable(self):
        ds = Dataset(np.array([[1.0]]), np.array([0]), ("a",))
        with pytest.raises(UnmappableFeature):
            align_features([ds], ["nonexistent"])

    def test_reorders_to_keep_order(self):
        ds = Dataset(np.array([[1.0, 2.0, 3.0]]), np.array([0]), ("c", "a", "b"))
        (aligned,) = align_features([ds], ["a", "b", "c"])
        assert aligned.X[0].tolist() == [2.0, 3.0, 1.0]


def test_concatenate(toy_dataset):
    both = concatenate([toy_dataset, toy_dataset])
    assert len(both) == 2 * len(toy_dataset)
    assert both.feature_names == toy_dataset.feature_names

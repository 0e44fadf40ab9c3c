import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_reference
from phishguard.datasets import (
    LABEL_COLUMNS,
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
    PhishguardError,
    RaggedRow,
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

    @pytest.mark.parametrize("ragged", [[5, 0], [5, 6, 7, 0, 8], [5, 6, 7, 0, "x"]],
                             ids=["short", "long", "long_non_numeric"])
    def test_ragged_row_reports_its_row_and_cell_counts(self, tmp_path, ragged):
        path = tmp_path / "d.csv"
        write_csv(path, ["f1", "f2", "f3", "label"], [[1, 2, 3, 0], ragged, [4, 5, 6, 1]])
        with pytest.raises(RaggedRow) as err:
            load_csv(path)
        assert err.value.row == 1
        assert str(err.value) == f"row 1 has {len(ragged)} cells but the header has 4"

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


class TestLabels:
    @pytest.mark.parametrize("y, row, label", [
        ([0.7, 2.0, 1.0, 0.0], 0, "0.7"),
        ([0.0, 2.0, 1.0, 0.0], 1, "2.0"),
        ([1, 0, 2, 0], 2, "2"),
        ([1, 0, 1, -1], 3, "-1"),
        ([1.0, float("nan"), 0.0, 0.0], 1, "nan"),
    ])
    def test_only_0_and_1_are_labels(self, y, row, label):
        with pytest.raises(PhishguardError, match=f"^label {label} at row {row} is not 0 or 1$"):
            Dataset(np.zeros((4, 1)), y, ("a",))

    @pytest.mark.parametrize("y", [[0, 1, 1, 0], [0.0, 1.0, 1.0, -0.0], [False, True, True, False]])
    def test_0_and_1_of_any_type_are_int_labels(self, y):
        ds = Dataset(np.zeros((4, 1)), y, ("a",))
        assert ds.y.dtype == int and ds.y.tolist() == [0, 1, 1, 0]


# ------------------------------------------------- the reference codec

# cells that float() reads, that it does not, and that it reads to a
# label outside {-1, 0, 1}; some on which numpy's C reader and float()
# may part, as "\x1c1", which numpy strips to 1 and float() refuses
NUMBER_CELLS = ["0", "1", "-1", "1.0", "-0.0", "0.0", " 1 ", "1_000", "٣", "nan",
                "-nan", "inf", "-inf", "1e20", "2", "0.5", "-1e-300", '"1"', '"-1"', '" 0 "',
                "+1", ".5", "1.", "Infinity", "\t1"]
OTHER_CELLS = ["", " ", "x", '"1,0"', "1__0", "--1", '"a ""b"""', "#1", "1#", "0x10", "1e",
               "\x1c1"]


@st.composite
def csv_texts(draw):
    """CSV text with a label column and 0-3 features, whose rows may be
    blank, whitespace-only, all empty cells, ragged or faulty, and which
    repeats rows, under labels -1 and 0 too."""
    n_features = draw(st.integers(0, 3))
    header = [f"f{i}" for i in range(n_features)]
    header.insert(draw(st.integers(0, n_features)), draw(st.sampled_from(LABEL_COLUMNS)))
    cell = st.one_of(st.sampled_from(NUMBER_CELLS),
                     st.sampled_from(NUMBER_CELLS + OTHER_CELLS),
                     st.floats().map(repr))
    row = st.one_of(
        st.lists(cell, min_size=len(header), max_size=len(header)).map(",".join),
        st.lists(st.sampled_from(["0", "1", "-1"]), min_size=len(header),
                 max_size=len(header)).map(",".join),
        st.sampled_from(["", "   ", "\t", ",".join([""] * len(header)),
                         ",".join([" "] * len(header))]),
        st.lists(cell, min_size=0, max_size=len(header) + 2).map(",".join),
    )
    lines = draw(st.lists(row, max_size=12))
    if lines and draw(st.booleans()):
        # the same cells again, and under the other legitimate label
        lines.append(draw(st.sampled_from(lines)))
        twin = lines[-1].split(",")
        if len(twin) == len(header):
            label = header.index(next(c for c in header if c in LABEL_COLUMNS))
            twin = [{"0": "-0.0"}.get(c, c) for c in twin]
            twin[label] = {"-1": "0", "0": "-1"}.get(twin[label], twin[label])
            lines.append(",".join(twin))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([",".join(header), *lines]) + draw(st.sampled_from(["", newline]))


def outcome(load, path):
    try:
        return load(path)
    except PhishguardError as exc:
        return exc


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
def test_load_csv_agrees_with_the_reference(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    expected = outcome(lambda p: csv_reference.load_csv(p, provenance="UCI"), path)
    got = outcome(lambda p: load_csv(p, provenance="UCI"), path)
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
        return
    assert not isinstance(got, Exception), got
    for name in ("X", "y"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert (got.feature_names, got.provenance) == (expected.feature_names, expected.provenance)


@pytest.mark.parametrize("text, fault", [
    ("f,label\n1,2\n1\n", "label 2.0 at row 0"),
    ("f,label\n1,0\n1\nx,5\n", "row 1 has 1 cells"),
    ("f,label\n\n1,0\n1,0\n\nx,5\n1\n", "value 'x' at row 4"),
    ("f,label\n,\n\n1,0\n\n1,nan\nx,1\n", "label nan at row 4"),
    ("f,label\n1,٣\n1,-1\n", "label 3.0 at row 0"),
    ("label\n\nnan", "label nan at row 1"),
    ("f,label\n1,0\n\x1c1,1\n", "value '\\x1c1' at row 1"),
], ids=["label_before_ragged", "ragged_before_non_numeric", "non_numeric_before_ragged",
        "label_after_blank_rows", "non_ascii_digit_label", "nan_label_after_a_blank_line",
        "separator_numpy_strips"])
def test_the_first_fault_in_row_order_raises(tmp_path, text, fault):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PhishguardError) as err:
        load_csv(path)
    assert fault in str(err.value)
    assert str(err.value) == str(outcome(csv_reference.load_csv, path))


def test_load_csv_reads_a_pipe(tmp_path):
    # a pipe cannot be read twice, so the row walk reads it
    text = "f,label\n1,0\n1,0\n-1,1\n"
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    probe = ("from phishguard.datasets import load_csv\n"
             "ds = load_csv('/dev/stdin')\nprint(ds.X.tolist(), ds.y.tolist())")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], input=text, capture_output=True,
                         text=True, check=True, env=env).stdout
    ds = load_csv(path)
    assert out.strip() == f"{ds.X.tolist()} {ds.y.tolist()}"


def test_dedup_follows_the_bits_and_the_remapped_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f,g,label\n1,nan,-1\n1,nan,0\n-0.0,1,1\n0.0,1,1\n1,nan,1\n-0.0,1,1\n",
                    encoding="utf-8")
    ds = load_csv(path)
    assert ds.y.tolist() == [0, 1, 1, 1]
    assert [str(v) for v in ds.X[:, 0]] == ["1.0", "-0.0", "0.0", "1.0"]


def save_text(save, ds, path):
    save(ds, path)
    return path.read_bytes()


CELLS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, -0.0, 7.0, 2.0**53 - 1]),
                  st.sampled_from([0.5, float("nan"), float("inf"), -float("inf"), 1e20,
                                   2.0**53, -(2.0**53), 1e-300]),
                  st.floats())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(0, 6), d=st.integers(0, 4), integral=st.booleans())
def test_save_csv_agrees_with_the_reference(tmp_path, data, n, d, integral):
    # whole numbers, some too large to be written through an int64
    whole = st.one_of(st.integers(-(2**53) + 1, 2**53 - 1).map(float),
                      st.sampled_from([-0.0, 2.0**53, 1e20, 2.0**63, -1e300]))
    cells = whole if integral else CELLS
    X = np.array(data.draw(st.lists(st.lists(cells, min_size=d, max_size=d),
                                    min_size=n, max_size=n)), dtype=float).reshape(n, d)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=int)
    ds = Dataset(X, y, tuple(f"f{i}" for i in range(d)))
    assert (save_text(save_csv, ds, tmp_path / "a.csv")
            == save_text(csv_reference.save_csv, ds, tmp_path / "b.csv"))

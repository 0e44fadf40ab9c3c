"""Dataset ingestion: CSV loading, dedup, label standardization, alignment."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataset,
    MissingLabelColumn,
    NonNumericCell,
    PhishguardError,
    RaggedRow,
    UnmappableFeature,
)

LABEL_COLUMNS = ("label", "Result")


class InvalidLabel(PhishguardError):
    def __init__(self, row: int, value):
        super().__init__(f"label {value!r} at row {row} is not in {{-1, 0, 1}}")


@dataclass
class Dataset:
    """Aligned, labeled samples. X rows follow `feature_names` order."""

    X: np.ndarray  # (n_samples, n_features)
    y: np.ndarray  # (n_samples,) in {0, 1}
    feature_names: tuple[str, ...]
    provenance: tuple[str, ...] = field(default=())

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        # the int cast would turn 0.7 into 0 and keep 2 as a third class
        y = np.asarray(self.y)
        invalid = ~((y == 0) | (y == 1))
        if invalid.any():
            row = int(np.argmax(invalid))
            raise PhishguardError(f"label {y.flat[row].item()!r} at row {row} is not 0 or 1")
        self.y = y.astype(int)
        if self.X.ndim != 2 or len(self.X) != len(self.y):
            raise PhishguardError("X and y shapes disagree")
        if not self.provenance:
            self.provenance = ("Unknown",) * len(self.y)

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(
            self.X[indices],
            self.y[indices],
            self.feature_names,
            tuple(self.provenance[i] for i in indices),
        )


def _normalize_name(name: str) -> str:
    return name.strip().lower().replace("-", "_").replace(" ", "_")


# Known alternate spellings seen across the source datasets, keyed by
# normalized form.
FEATURE_ALIASES = {
    "url_length": "URL_Length",
    "popupwindow": "popup_window",
    "popup_window": "popup_window",
    "having_ip_address": "having_IP_Address",
    "having_at_symbol": "having_At_Symbol",
    "shortining_service": "Shortening_Service",
    "shortening_service": "Shortening_Service",
    "https_token": "HTTPS_token",
    "dnsrecord": "DNSRecord",
    "google_index": "Google_Index",
    "abnormal_url": "Abnormal_URL",
    "web_traffic": "web_traffic",
}


def resolve_alias(name: str, available: dict[str, str]) -> str | None:
    """Map a wanted feature name onto a column of a dataset.

    `available` maps normalized column names to their original spelling.
    """
    norm = _normalize_name(name)
    if norm in available:
        return available[norm]
    canonical = FEATURE_ALIASES.get(norm)
    if canonical is not None:
        norm2 = _normalize_name(canonical)
        if norm2 in available:
            return available[norm2]
    # reverse direction: a column whose alias resolves to the wanted name
    for col_norm, original in available.items():
        if FEATURE_ALIASES.get(col_norm) == name:
            return original
    return None


def load_csv(path, provenance: str = "Unknown") -> Dataset:
    """Load a labeled CSV, remap Result {-1,1} to {0,1}, drop exact
    duplicate rows (first occurrence wins). numpy's C reader parses the
    body; what it refuses, or a label outside {-1, 0, 1}, goes through
    `float` cell by cell, and the first faulty row in file order raises."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path} is empty")
        header = [h.strip() for h in header]
        label_col = next((header.index(c) for c in LABEL_COLUMNS if c in header), None)
        if label_col is None:
            raise MissingLabelColumn(f"{path}: no 'label' or 'Result' column")
        feature_names = tuple(h for i, h in enumerate(header) if i != label_col)
        body = fh.read()
        table = None
        # numpy's C reader parses a number with `PyOS_string_to_double`, as
        # float does, but warns on a body with no data and strips the ASCII
        # separators \x1c-\x1f as whitespace. It reads the file again past
        # the header, line by line: a StringIO of `body` takes 4 bytes a
        # character.
        if fh.seekable() and body.strip() and not any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
            fh.seek(0)
            next(csv.reader(fh))
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', dtype=float,
                                   ndmin=2)
            except ValueError:
                pass
    # the row walk reads what the C reader refuses, and finds a bad label's row
    if (table is None or table.shape[1] != len(header)
            or not np.isin(table[:, label_col], (-1, 0, 1)).all()):
        table = _walked(body, header, label_col)
    if not len(table):
        raise EmptyDataset(f"{path} has a header but no rows")

    labels = table[:, label_col]
    X = np.delete(table, label_col, axis=1)
    y = np.where(labels == -1, 0, labels).astype(int)
    # the first row of each distinct (X bits, y) pair
    keep = np.sort(distinct_rows(np.column_stack([X, y]))[0])
    return Dataset(X[keep], y[keep], feature_names, (provenance,) * len(keep))


def distinct_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) for a float matrix M: the index of the first of
    each bit-distinct row, and each row's place in `first`, so
    M[first][inverse] is M bit for bit. -0.0 and 0.0 differ; NaNs of
    equal bits are equal."""
    bits = np.ascontiguousarray(M, dtype=float).view(np.uint64)
    # one stable sort of whole rows, each seen as one opaque value, puts
    # bit-equal rows side by side, lowest index first
    rows = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
    order = np.argsort(rows, kind="stable")
    ordered = bits[order]
    starts = np.ones(len(M), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(M), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return order[starts], inverse


def _walked(body: str, header: list[str], label_col: int) -> np.ndarray:
    """The rows of `body` through `float`, which reads "1_000" and "٣";
    raises the first fault in row order: an invalid label, a ragged row
    or a cell that is not a number."""
    faults: list[PhishguardError] = []
    rows = _numeric_rows(csv.reader(io.StringIO(body, newline="")), header, faults)
    table = np.fromiter(chain.from_iterable(rows), dtype=float).reshape(-1, len(header) + 1)
    invalid = ~np.isin(table[:, label_col], (-1, 0, 1))
    if invalid.any():
        row = table[np.argmax(invalid)]
        raise InvalidLabel(int(row[-1]), float(row[label_col]))
    if faults:
        raise faults[0]
    return table[:, :-1]


def _numeric_rows(reader, header: list[str], faults: list):
    """Each non-blank row of `reader` as its floats, then its reader index.
    A ragged row or a cell that is not a number ends the rows, with its
    exception appended to `faults`: it is the file's first fault unless
    an earlier row has an invalid label."""
    for row_idx, row in enumerate(reader):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            faults.append(RaggedRow(row_idx, len(row), len(header)))
            return
        try:
            values = [*map(float, row), row_idx]
        except ValueError:
            faults.append(_non_numeric(row_idx, row, header))
            return
        yield values


def _non_numeric(row_idx: int, row: list[str], header: list[str]) -> NonNumericCell:
    """NonNumericCell for the first cell of a failed `row` that is no number."""
    for col_idx, cell in enumerate(row):
        try:
            float(cell)
        except ValueError:
            break
    return NonNumericCell(row_idx, header[col_idx], cell)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset back out with the label as the final column and a
    whole-number cell as an int."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow([*ds.feature_names, "label"])
        table = np.column_stack([ds.X, ds.y])
        # in blocks of rows, so that the text's temporaries stay small
        for start in range(0, len(table), 4096):
            fh.write(_joined(table[start : start + 4096]))


def _joined(table: np.ndarray) -> str:
    """Rows of floats as `csv.writer` writes them, a whole number as an
    int, through one join: each distinct value becomes text once, with
    the comma after it, or the line end when it ends a row."""
    values, inverse = np.unique(table, return_inverse=True)
    codes = inverse.reshape(table.shape)
    codes[:, -1] += len(values)
    texts = [str(int(v)) if v.is_integer() else str(v) for v in values.tolist()]
    tokens = np.array([t + "," for t in texts] + [t + "\r\n" for t in texts], dtype=object)
    return "".join(tokens[codes].ravel().tolist())


def class_distribution(ds: Dataset) -> tuple[int, int]:
    """(count of label 0, count of label 1)."""
    if len(ds) == 0:
        raise EmptyDataset("cannot summarize an empty dataset")
    ones = int(np.sum(ds.y == 1))
    return len(ds) - ones, ones


def align_features(datasets: list[Dataset], keep: list[str],
                   names: list[str] | None = None) -> list[Dataset]:
    """Restrict every dataset to the `keep` features, in that order,
    resolving known alternate spellings."""
    names = names or [f"dataset[{i}]" for i in range(len(datasets))]
    aligned = []
    for ds, ds_name in zip(datasets, names):
        available = {_normalize_name(col): col for col in ds.feature_names}
        columns = []
        for wanted in keep:
            original = resolve_alias(wanted, available)
            if original is None:
                raise UnmappableFeature(ds_name, wanted)
            columns.append(ds.feature_names.index(original))
        aligned.append(
            Dataset(ds.X[:, columns], ds.y, tuple(keep), ds.provenance)
        )
    return aligned


def concatenate(datasets: list[Dataset]) -> Dataset:
    """Stack datasets that already share a feature space."""
    names = {ds.feature_names for ds in datasets}
    if len(names) != 1:
        raise PhishguardError("datasets must be aligned before concatenation")
    return Dataset(
        np.vstack([ds.X for ds in datasets]),
        np.concatenate([ds.y for ds in datasets]),
        datasets[0].feature_names,
        tuple(p for ds in datasets for p in ds.provenance),
    )

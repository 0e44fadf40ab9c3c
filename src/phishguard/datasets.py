"""Dataset ingestion: CSV loading, dedup, label standardization, alignment."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
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

PROVENANCES = ("UCI", "OpenPhish", "EvilGinx", "GenAI", "Unknown")

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
        self.y = np.asarray(self.y, dtype=int)
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
    duplicate rows (first occurrence wins)."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path} is empty")
        header = [h.strip() for h in header]
        label_col = None
        for candidate in LABEL_COLUMNS:
            if candidate in header:
                label_col = header.index(candidate)
                break
        if label_col is None:
            raise MissingLabelColumn(f"{path}: no 'label' or 'Result' column")
        feature_names = tuple(h for i, h in enumerate(header) if i != label_col)

        rows, labels = [], []
        for row_idx, row in enumerate(reader):
            if not "".join(row).strip():
                continue
            if len(row) != len(header):
                raise RaggedRow(row_idx, len(row), len(header))
            try:
                values = list(map(float, row))
            except ValueError:
                _raise_non_numeric(row_idx, row, header)
            label = values.pop(label_col)
            if label == -1:
                label = 0
            elif label not in (0, 1):
                raise InvalidLabel(row_idx, label)
            rows.append(values)
            labels.append(int(label))

    if not rows:
        raise EmptyDataset(f"{path} has a header but no rows")

    X = np.array(rows)
    y = np.array(labels)
    # dedup on (features, label), keeping first occurrence
    seen = set()
    keep = []
    for i, key in enumerate(zip(map(np.ndarray.tobytes, X), y.tolist())):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    X, y = X[keep], y[keep]
    return Dataset(X, y, feature_names, (provenance,) * len(y))


def _raise_non_numeric(row_idx: int, row: list[str], header: list[str]):
    """Raise NonNumericCell for the first cell of `row` that is not a
    number."""
    for col_idx, cell in enumerate(row):
        try:
            float(cell)
        except ValueError:
            raise NonNumericCell(row_idx, header[col_idx], cell)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset back out with the label as the final column."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["label"])
        for row, label in zip(ds.X.tolist(), ds.y.tolist()):
            writer.writerow([_format_cell(v) for v in row] + [int(label)])


def _format_cell(v: float):
    return int(v) if v.is_integer() else v


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

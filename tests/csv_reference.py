"""Reference CSV codec: the row-by-row `load_csv` and per-cell `save_csv`
that `phishguard.datasets` streamed and vectorised. `test_datasets`
requires the program's codec to agree with these on every input: the
same arrays bit for bit, the same bytes, or the same exception with the
same message."""

import csv
from pathlib import Path

import numpy as np

from phishguard.datasets import LABEL_COLUMNS, Dataset, InvalidLabel
from phishguard.errors import EmptyDataset, MissingLabelColumn, NonNumericCell, RaggedRow


def load_csv(path, provenance: str = "Unknown") -> Dataset:
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
    for col_idx, cell in enumerate(row):
        try:
            float(cell)
        except ValueError:
            raise NonNumericCell(row_idx, header[col_idx], cell)


def save_csv(ds: Dataset, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.feature_names) + ["label"])
        for row, label in zip(ds.X.tolist(), ds.y.tolist()):
            writer.writerow([_format_cell(v) for v in row] + [int(label)])


def _format_cell(v: float):
    return int(v) if v.is_integer() else v

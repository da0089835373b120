"""CSV ingestion into rectangular numeric datasets.

Rows containing missing, non-numeric, or non-finite cells are dropped and
counted rather than erroring; a requested natural-log transform of a
non-positive value is an error naming the row and column, because silently
dropping those would bias the case being studied.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import DataError

__all__ = ["Dataset", "ingest_csv", "file_digest"]


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns of equal length, plus ingestion provenance."""

    column_names: tuple[str, ...]
    columns: tuple[tuple[float, ...], ...]
    source: str
    n_rows: int
    dropped_rows: int
    # sha256 hex digest of the exact bytes parsed, for report provenance
    digest: str
    # optional per-row text labels (a non-numeric identifier column)
    row_labels: tuple[str, ...] | None = None

    def column(self, name: str) -> tuple[float, ...]:
        try:
            return self.columns[self.column_names.index(name)]
        except ValueError:
            raise DataError(
                f"no column named {name!r}; available: {', '.join(self.column_names)}"
            ) from None


def _parse_cell(cell: str) -> float | None:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def ingest_csv(
    path: str | Path,
    delimiter: str = ",",
    header: bool = True,
    columns: Sequence[str] = (),
    log_columns: Sequence[str] = (),
    label_column: str | None = None,
) -> Dataset:
    """Read a delimited text file into a Dataset.

    With header=False columns are named col0, col1, ...  `columns` restricts
    (and orders) which numeric columns are kept; empty means all except the
    label column.  `log_columns` natural-log transforms the named columns
    after ingestion.  Rows with unusable numeric cells are dropped and
    counted in `dropped_rows`; row numbers in error messages count data rows
    from 1.  The file is read once, and `digest` is the sha256 of the bytes
    parsed.  Bytes that are not UTF-8 and duplicate header names are errors.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        raw_lines = data.decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    reader = csv.reader(raw_lines, delimiter=delimiter)
    rows = [row for row in reader if row]
    if not rows:
        raise DataError(f"{path} contains no rows")

    if header:
        names = [name.strip() for name in rows[0]]
        data_rows = rows[1:]
        if len(set(names)) < len(names):
            raise DataError(f"duplicate column names in the header of {path}: {names}")
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
        data_rows = rows

    if label_column is not None and label_column not in names:
        raise DataError(f"label column {label_column!r} not found in {names}")
    keep = list(columns) if columns else [n for n in names if n != label_column]
    for name in keep:
        if name not in names:
            raise DataError(f"requested column {name!r} not found in {names}")
    for name in log_columns:
        if name not in keep:
            raise DataError(
                f"log-transform column {name!r} is not among the ingested columns {keep}"
            )

    keep_idx = [names.index(n) for n in keep]
    label_idx = names.index(label_column) if label_column is not None else None

    parsed: list[tuple[float, ...]] = []
    row_numbers: list[int] = []
    labels: list[str] = []
    dropped = 0
    for rownum, row in enumerate(data_rows, start=1):
        if len(row) < len(names):
            dropped += 1
            continue
        values = [_parse_cell(row[i]) for i in keep_idx]
        if any(v is None for v in values):
            dropped += 1
            continue
        parsed.append(tuple(v for v in values if v is not None))
        row_numbers.append(rownum)
        if label_idx is not None:
            labels.append(row[label_idx].strip())

    if not parsed:
        raise DataError(f"{path} has no usable data rows")

    table = [list(col) for col in zip(*parsed)]
    for name in log_columns:
        j = keep.index(name)
        for i, v in enumerate(table[j]):
            if v <= 0.0:
                raise DataError(
                    f"cannot log-transform non-positive value {v!r} "
                    f"at row {row_numbers[i]}, column {name!r}"
                )
            table[j][i] = math.log(v)

    return Dataset(
        column_names=tuple(keep),
        columns=tuple(tuple(col) for col in table),
        source=str(path),
        n_rows=len(parsed),
        dropped_rows=dropped,
        digest=hashlib.sha256(data).hexdigest(),
        row_labels=tuple(labels) if label_idx is not None else None,
    )


def file_digest(path: str | Path) -> str:
    """sha256 hex digest of the raw input bytes, for report provenance."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

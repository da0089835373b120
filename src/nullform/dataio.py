"""CSV ingestion into rectangular numeric datasets.

Only the requested columns are parsed (all but the label column when none
are named), so a row is dropped, and counted rather than erroring, only for
a missing, non-numeric or non-finite cell in one of them, or for being
shorter than the header.  A requested natural-log transform of a
non-positive value is an error naming the row and column, because silently
dropping those would bias the case being studied.  A UTF-8 byte order mark
is not part of the first header name.

Records end only at \\n, \\r\\n and \\r (not at U+2028 or the other breaks
of str.splitlines()), and empty lines are skipped.  The cells are split by
one of two routes, chosen from the decoded text alone.  A text with no `"`
whose non-blank lines all hold the first line's number of delimiters, none
longer than the csv field size limit, is joined and split once on the
delimiter, and column j is the slice flat[j::width]; the csv module would
split it the same way.  Any other text, quoted or ragged, goes through
csv.reader, which keeps a line break inside a quoted cell in it; a
malformed or over-long field there is a DataError.

Parsing is column-wise: each kept column is converted with one float() pass
and screened with one fsum; only a column that fails the screen is parsed
cell by cell, and its unusable cells drop their rows.  The two passes accept
the same cells, because float() succeeds only where the stripped cell parses.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_
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


def _parse_column(cells: Sequence[str]) -> tuple[list, list[bool] | None]:
    """One column's values and a usable-cell mask, or None when all are usable.

    A clean column costs one float() pass and one plain sum screen: the sum
    of floats is non-finite whenever a value is NaN or infinite.  A column
    that raises (a blank or non-numeric cell) or sums to a non-finite value
    (an unusable cell, or finite values whose sum overflows) is parsed cell
    by cell, and its unusable cells become None.
    """
    try:
        values = list(map(float, cells))
        if math.isfinite(sum(values)):
            return values, None
    except ValueError:
        pass
    values = [_parse_cell(cell) for cell in cells]
    return values, [v is not None for v in values]


def _records(text: str) -> list[str]:
    """The lines of `text`, broken only at \\n, \\r\\n and \\r.

    str.splitlines() also breaks at U+2028, U+0085, form feeds and the other
    Unicode line boundaries, which would split a row inside a cell.  As with
    splitlines(), a final line break ends the last line and starts no other.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _split_table(
    lines: list[str], delimiter: str, header: bool
) -> tuple[list[str], int, list[list[str]], range] | None:
    """First row, data-row count, columns and row numbers, from one split.

    For a text without a quote character the csv module splits each line at
    every delimiter, so when every non-blank line holds the first line's
    number of delimiters, one split of the joined lines gives every cell and
    column j is the slice flat[j::width].  Any other text, or a line longer
    than the csv field size limit (whose error the csv route reports), gives
    None.  The caller checks for quotes.
    """
    records = list(filter(None, lines))
    if not records or max(map(len, records)) > csv.field_size_limit():
        return None
    count = records[0].count(delimiter)
    if set(map(str.count, records, repeat(delimiter))) != {count}:
        return None
    width = count + 1
    flat = delimiter.join(records).split(delimiter)
    start = width if header else 0
    n_data = (len(flat) - start) // width
    columns = [flat[start + j::width] for j in range(width)]
    return flat[:width], n_data, columns, range(1, n_data + 1)


def _csv_table(
    text: str, delimiter: str, header: bool, path: Path
) -> tuple[list[str], int, list[tuple[str, ...]], list[int]]:
    """First row, data-row count, columns and row numbers, by the csv module.

    This route reads ragged rows and quoted cells, a line break inside one
    kept.  The columns and row numbers cover the data rows at least as long
    as the first row; a malformed or over-long field is a DataError.
    """
    try:
        reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} contains no rows")
    data_rows = rows[1:] if header else rows
    width = len(rows[0])
    full_rows = [row for row in data_rows if len(row) >= width]
    row_numbers = [k for k, row in enumerate(data_rows, start=1) if len(row) >= width]
    return rows[0], len(data_rows), list(zip(*full_rows)), row_numbers


def ingest_csv(
    path: str | Path,
    delimiter: str = ",",
    header: bool = True,
    columns: Sequence[str | int] = (),
    log_columns: Sequence[str] = (),
    label_column: str | None = None,
) -> Dataset:
    """Read a delimited text file into a Dataset.

    With header=False columns are named col0, col1, ...  `columns` restricts
    (and orders) which numeric columns are kept, each by name or by its
    position among the columns other than the label column, and keeps a
    column named twice once; empty means all except the label column.
    `log_columns` natural-log transforms each named column once, after
    ingestion.  Rows with an unusable cell in a kept column are
    dropped and counted in `dropped_rows`; row numbers in error messages
    count data rows from 1.  The file is read once, and `digest` is the
    sha256 of the raw bytes, a leading byte order mark included.  Bytes that
    are not UTF-8, duplicate header names, a delimiter that is not one
    character and a malformed or over-long CSV field are errors.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise DataError(f"the delimiter must be one character, got {delimiter!r}")
    path = Path(path)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    split = None if '"' in text else _split_table(_records(text), delimiter, header)
    first, n_data, cells, row_numbers = split or _csv_table(text, delimiter, header, path)

    if header:
        names = [name.strip() for name in first]
        if len(set(names)) < len(names):
            raise DataError(f"duplicate column names in the header of {path}: {names}")
    else:
        names = [f"col{i}" for i in range(len(first))]

    if label_column is not None and label_column not in names:
        raise DataError(f"label column {label_column!r} not found in {names}")
    numeric = [n for n in names if n != label_column]
    for c in columns:
        if isinstance(c, int) and not 0 <= c < len(numeric):
            raise DataError(f"no column at position {c} among {numeric}")
    keep = list(dict.fromkeys(numeric[c] if isinstance(c, int) else c for c in columns))
    keep = keep or numeric
    for name in keep:
        if name not in names:
            raise DataError(f"requested column {name!r} not found in {names}")
    log_columns = tuple(dict.fromkeys(log_columns))
    for name in log_columns:
        if name not in keep:
            raise DataError(
                f"log-transform column {name!r} is not among the ingested columns {keep}"
            )
    if not row_numbers:
        raise DataError(f"{path} has no usable data rows")

    parsed: dict[str, list] = {}
    mask: list[bool] | None = None
    for name in keep:
        if name not in parsed:
            parsed[name], usable = _parse_column(cells[names.index(name)])
            if usable is not None:
                mask = usable if mask is None else list(map(and_, mask, usable))

    def kept(seq) -> list:
        return list(seq) if mask is None else list(compress(seq, mask))

    n_rows = len(row_numbers) if mask is None else sum(mask)
    if not n_rows:
        raise DataError(f"{path} has no usable data rows")
    table = [kept(parsed[name]) for name in keep]
    for name in log_columns:
        j = keep.index(name)
        bad = next((i for i, v in enumerate(table[j]) if v <= 0.0), None)
        if bad is not None:
            raise DataError(
                f"cannot log-transform non-positive value {table[j][bad]!r} "
                f"at row {kept(row_numbers)[bad]}, column {name!r}"
            )
        table[j] = list(map(math.log, table[j]))

    labels = None
    if label_column is not None:
        labels = tuple(kept(map(str.strip, cells[names.index(label_column)])))

    return Dataset(
        column_names=tuple(keep),
        columns=tuple(map(tuple, table)),
        source=str(path),
        n_rows=n_rows,
        dropped_rows=n_data - n_rows,
        digest=hashlib.sha256(data).hexdigest(),
        row_labels=labels,
    )


def file_digest(path: str | Path) -> str:
    """sha256 hex digest of the raw input bytes, for report provenance."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

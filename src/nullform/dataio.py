"""CSV ingestion into rectangular numeric datasets.

Only the requested columns are parsed (all but the label column when none
are named), so a row is dropped, and counted rather than erroring, only for
a missing, non-numeric or non-finite cell in one of them, or for being
shorter than the header.  A requested natural-log transform of a
non-positive value is an error naming the row and column, because silently
dropping those would bias the case being studied.  A UTF-8 byte order mark
is not part of the first header name.

Records end only at \\n, \\r\\n and \\r (not at U+2028 or the other breaks
of str.splitlines()), and empty lines are skipped.  The file's bytes are
hashed, decoded and dropped, and the first row resolves the columns before
any data row is parsed.  The cells are split by one of two routes.  A text
with no `"` is read in blocks of whole lines of about `_BLOCK_CHARS`
characters: when each of a block's non-blank lines holds the first line's
number of delimiters and none is longer than the csv field size limit, the
block is joined and split once on the delimiter, only the kept columns and
the label column are sliced from it (column j is flat[j::width]), and its
other cells are freed with it; the csv module would split it the same way.
So ingest holds the text, the parsed columns and one block's cells: about 4
times the file's bytes on a tall numeric file, where the whole text's cells
took about 9.  A text with a `"`, or any block that fails a check, or a first
row that does not resolve, goes through csv.reader instead, which keeps a
line break inside a quoted cell in it and gives every error its message; it
reads the text's records, with their line ends, and parses its rows in
blocks of `_CSV_ROWS`, about 4 times the file's bytes too, where the whole
text's rows took about 13.  A malformed or over-long field there is a
DataError, raised before a column that does not resolve.

Parsing is column-wise, block by block: each kept column of a block is
converted with one float() pass and screened with one plain sum; only a
column that fails the screen is parsed cell by cell, and its unusable cells
drop their rows.  The two passes accept the same cells, because float()
succeeds only where the stripped cell parses.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import and_
from pathlib import Path
from typing import Callable, Sequence

from .errors import DataError

__all__ = ["Dataset", "ingest_csv", "file_digest"]

# the characters of text in one block of the split route: a block's lines
# and cells are the only ones held at a time
_BLOCK_CHARS = 1 << 18
# the non-blank rows the csv route reads and parses at a time
_CSV_ROWS = 1 << 10
# a line end, \r\n taken whole, a non-blank line, and a record with its end
_LINE_END = re.compile(r"\r\n?|\n")
_LINE = re.compile(r"[^\r\n]+")
_RECORD = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


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


def _split_block(block: str, delimiter: str, count: int) -> list[str] | None:
    """The cells of the non-blank lines of `block`, row after row, or None
    when a line does not hold `count` delimiters or is longer than the csv
    field size limit.

    Lines end only at \\n, \\r\\n and \\r: str.splitlines() also breaks at
    U+2028, U+0085, form feeds and the other Unicode line boundaries, which
    would split a row inside a cell.
    """
    if "\r" in block:
        block = block.replace("\r\n", "\n").replace("\r", "\n")
    lines = list(filter(None, block.split("\n")))
    if not lines:
        return []
    if (max(map(len, lines)) > csv.field_size_limit()
            or set(map(str.count, lines, repeat(delimiter))) != {count}):
        return None
    return delimiter.join(lines).split(delimiter)


class _Columns:
    """The kept columns of a table's data rows, parsed block by block.

    Made from the table's first row, whose names it resolves against the
    requested columns, raising DataError as `ingest_csv` documents.  `add`
    parses the kept columns and the label column of a block of data rows;
    `dataset` drops the unusable rows and applies the log transforms.
    """

    def __init__(self, first: Sequence[str], path: Path, header: bool,
                 columns: Sequence[str | int], log_columns: Sequence[str],
                 label_column: str | None):
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
        self.path = path
        self.log_columns = log_columns
        # each kept column's position in a row, and its values so far
        self.index = {name: names.index(name) for name in keep}
        self.values: dict[str, list] = {name: [] for name in keep}
        self.label = None if label_column is None else names.index(label_column)
        self.labels: list[str] = []
        # the usable rows so far, or None while every row is
        self.mask: list[bool] | None = None
        self.rows = 0

    def add(self, column: Callable[[int], Sequence[str]], rows: int) -> None:
        """Parse the kept cells of `rows` data rows, column j's from column(j)."""
        mask = None
        for name, values in self.values.items():
            parsed, usable = _parse_column(column(self.index[name]))
            values.extend(parsed)
            if usable is not None:
                mask = usable if mask is None else list(map(and_, mask, usable))
        if mask is not None and self.mask is None:
            self.mask = [True] * self.rows
        if self.mask is not None:
            self.mask.extend(repeat(True, rows) if mask is None else mask)
        if self.label is not None:
            self.labels.extend(map(str.strip, column(self.label)))
        self.rows += rows

    def dataset(self, n_data: int, row_numbers: Sequence[int], digest: str) -> Dataset:
        """The Dataset of the rows added, whose numbers are row_numbers, out
        of n_data data rows."""
        mask = self.mask

        def kept(seq: Sequence) -> Sequence:
            return seq if mask is None else list(compress(seq, mask))

        n_rows = self.rows if mask is None else sum(mask)
        if not n_rows:
            raise DataError(f"{self.path} has no usable data rows")
        keep = list(self.values)
        table = [kept(self.values[name]) for name in keep]
        for name in self.log_columns:
            j = keep.index(name)
            bad = next((i for i, v in enumerate(table[j]) if v <= 0.0), None)
            if bad is not None:
                raise DataError(
                    f"cannot log-transform non-positive value {table[j][bad]!r} "
                    f"at row {kept(row_numbers)[bad]}, column {name!r}"
                )
            table[j] = list(map(math.log, table[j]))

        return Dataset(
            column_names=tuple(keep),
            columns=tuple(map(tuple, table)),
            source=str(self.path),
            n_rows=n_rows,
            dropped_rows=n_data - n_rows,
            digest=digest,
            row_labels=None if self.label is None else tuple(kept(self.labels)),
        )


def _split_table(
    text: str, delimiter: str, header: bool, resolve: Callable[[list[str]], _Columns]
) -> tuple[_Columns, int, range] | None:
    """The parsed columns, data-row count and row numbers, block by block.

    For a text without a quote character the csv module splits each line at
    every delimiter, so when every non-blank line holds the first line's
    number of delimiters, one split of a block's joined lines gives its
    cells, and column j is the slice flat[j::width].  Only the kept columns
    are sliced, and a block's cells are dropped before the next is split.
    A block with any other line, or a line longer than the csv field size
    limit (whose error the csv route reports), or a first row that does not
    resolve, gives None.  The caller checks for quotes.
    """
    first = _LINE.search(text)
    if first is None:
        return None
    count = first.group().count(delimiter)
    width = count + 1
    try:
        table = resolve(first.group().split(delimiter))
    except DataError:
        return None
    start = width if header else 0  # the header's cells, in the first block
    at = 0
    while at < len(text):
        # the block runs to the first line end at or past _BLOCK_CHARS
        end = _LINE_END.search(text, at + _BLOCK_CHARS - 1)
        stop = end.end() if end else len(text)
        flat = _split_block(text[at:stop], delimiter, count)
        at = stop
        if flat is None:
            return None
        if flat:
            rows = (len(flat) - start) // width
            if rows:
                table.add(lambda j: flat[start + j::width], rows)
            start = 0
        del flat  # before the next block is split
    return table, table.rows, range(1, table.rows + 1)


def _csv_table(
    text: str, delimiter: str, header: bool, path: Path,
    resolve: Callable[[list[str]], _Columns],
) -> tuple[_Columns, int, list[int]]:
    """The parsed columns, data-row count and row numbers, by the csv module.

    This route reads ragged rows and quoted cells, a line break inside one
    kept, `_CSV_ROWS` non-blank rows at a time, each block parsed before the
    next is read.  The columns and row numbers cover the data rows at least
    as long as the first row.  A malformed or over-long field anywhere is a
    DataError, raised before any error of the first row's resolution.
    """
    # csv.reader takes the text's records with their line ends, which is how
    # it reads a file opened with newline=""
    rows = filter(None, csv.reader(map(re.Match.group, _RECORD.finditer(text)),
                                   delimiter=delimiter))
    try:
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path} contains no rows")
        try:
            table = resolve(first)
        except DataError:
            for _ in rows:  # a csv error in a later row comes first
                pass
            raise
        width = len(first)
        data_rows = rows if header else chain([first], rows)
        n_data, row_numbers = 0, []
        while block := list(islice(data_rows, _CSV_ROWS)):
            full = [row for row in block if len(row) >= width]
            row_numbers += (k for k, row in enumerate(block, start=n_data + 1)
                            if len(row) >= width)
            n_data += len(block)
            if full:
                table.add(list(zip(*full)).__getitem__, len(full))
            del block, full  # before the next block is read
    except csv.Error as exc:
        raise DataError(f"cannot parse {path}: {exc}") from exc
    return table, n_data, row_numbers


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
    digest = hashlib.sha256(data).hexdigest()
    del data

    def resolve(first: list[str]) -> _Columns:
        return _Columns(first, path, header, columns, log_columns, label_column)

    split = None if '"' in text else _split_table(text, delimiter, header, resolve)
    table, n_data, row_numbers = split or _csv_table(text, delimiter, header, path, resolve)
    del text
    return table.dataset(n_data, row_numbers, digest)


def file_digest(path: str | Path) -> str:
    """sha256 hex digest of the raw input bytes, for report provenance."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

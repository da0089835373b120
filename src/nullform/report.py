"""Analysis reports: a JSON-serializable record of one command invocation.

Reports always carry both statistic forms and both p-value routes of the
invoked test, the decisions at the requested level, and provenance (command
echo, input content digest, tool version).  Serialization uses sorted keys
and bans NaN/Infinity so that equal reports are byte-equal.  The report is
the one place that maps non-finite values to null, when it is built.

`to_json` writes the bytes of `json.dumps(payload, sort_keys=True, indent=2,
allow_nan=False)` with one writer per shape.  A dict is written key by key
in sorted order, each scalar with the C encoder.  A list of flat rows is
held and written as a `_Rows`, a read-only table of the rows held as
columns.  Any other container goes through json.dumps's own indent-2
encoder and is re-indented to its depth, which is exact because an encoded
string never holds a raw line break.

A list (or tuple) anywhere in the payload is a list of flat rows when every
entry is a dict with str keys, the first entry's keys and only scalars; it
becomes a `_Rows` when the report is built, whoever built the list (cli, a
library caller, `from_json`).  Only a column whose floats do not sum to a
finite value is scanned for NaN and infinities, which become null in a copy
of that column.  A `_Rows` is written column by column: a column of strings
is encoded value by value with `encode_basestring_ascii` (a column that
mixes strings and other scalars, by the C encoder value by value), any
other column with one C-encoder call split at its commas (the text of a
number, a bool or null holds none), and one join interleaves the columns
with the key and indent text in sorted-key order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain, repeat

__all__ = ["AnalysisReport", "REPORT_VERSION"]

REPORT_VERSION = "0.1.0"

_INDENT = "  "
# the scalars a canonical container holds; a float only when finite
_SCALARS = frozenset({str, int, bool, float, type(None)})
_FLOAT = frozenset({float})
_NOT_ROWS = "rows need str keys and equally long columns of scalars"
_is_float = float.__instancecheck__
_encode_str = json.encoder.encode_basestring_ascii
# C-encoder `encode` of one scalar, or of a list of scalars with bare commas
_encode_scalar = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode
# json.dumps's indent-2 encoder; a _Rows is encoded as the list of its rows
_encode_indented = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=list).encode


class _Rows:
    """A read-only table of flat rows held as columns: the sorted str keys,
    one tuple of scalars per key and each column's set of value types.

    Built from a mapping (or an iterable of (key, values) pairs) of equally
    long columns, which are copied and checked one at a time, so a column
    that is not all scalars raises before the next pair is drawn.  Row i, or
    each row in turn when iterated, is a fresh dict, a slice is a list of
    fresh row dicts, and the table equals a list of the same row dicts."""

    __slots__ = ("keys", "columns", "types")

    def __init__(self, columns) -> None:
        checked = {}
        for key, column in columns.items() if hasattr(columns, "items") else columns:
            column = tuple(column)
            kinds = frozenset(map(type, column))
            if key.__class__ is not str or not _SCALARS.issuperset(kinds):
                raise TypeError(_NOT_ROWS)
            checked[key] = column, kinds
        self.keys = tuple(sorted(checked))
        self.columns = tuple(checked[k][0] for k in self.keys)
        self.types = tuple(checked[k][1] for k in self.keys)
        if len(set(map(len, self.columns))) != 1:
            raise TypeError(_NOT_ROWS)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return dict(zip(self.keys, [column[i] for column in self.columns]))

    def __iter__(self):
        return map(dict, map(zip, repeat(self.keys), zip(*self.columns)))

    def __eq__(self, other):
        if other.__class__ is _Rows:
            return self.keys == other.keys and self.columns == other.columns
        return list(self) == other if isinstance(other, list) else NotImplemented


def _as_rows(value):
    """A list or tuple of flat rows as a `_Rows`: every entry a dict with str
    keys, the first entry's keys and only scalars.  Any other value is
    returned as it is.  Row 0's values are checked first, so that rows of
    numpy scalars are turned down before any column is gathered, and the
    columns are gathered one at a time as `_Rows` checks them, so none is
    gathered past the first that holds a value that is not a scalar."""
    first = value[0] if value else None
    if first.__class__ is not dict or not _SCALARS.issuperset(map(type, first.values())):
        return value
    keys = first.keys()
    if not keys or not all(row.__class__ is dict and row.keys() == keys for row in value):
        return value
    try:
        return _Rows((key, [row[key] for row in value]) for key in keys)
    except TypeError:  # a non-str key or a value that is not a scalar
        return value


def _jsonable(value):
    """Recursively convert to JSON-encodable content; non-finite floats
    become null (flagged diagnostics rows carry NaN by contract).

    A list or tuple of flat rows becomes a `_Rows`.  A `_Rows` is copied with
    its columns shared, but for each column whose floats do not sum to a
    finite value: that one is copied with null in place of NaN and +-inf.
    Every other container is converted value by value."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        value = _as_rows(value)
        if value.__class__ is not _Rows:
            return [_jsonable(v) for v in value]
    if value.__class__ is _Rows:
        columns, types = list(value.columns), list(value.types)
        for j, (column, kinds) in enumerate(zip(columns, types)):
            if float in kinds and not math.isfinite(
                    sum(column) if kinds == _FLOAT else sum(filter(_is_float, column))):
                columns[j] = column = tuple(
                    v if v.__class__ is not float or math.isfinite(v) else None for v in column)
                types[j] = frozenset(map(type, column))
        rows = object.__new__(_Rows)
        rows.keys, rows.columns, rows.types = value.keys, tuple(columns), tuple(types)
        return rows
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _encoded(column, kinds) -> list[str]:
    """The JSON text of each value of a column of canonical scalars."""
    if kinds == {str}:
        return list(map(_encode_str, column))
    if str in kinds:
        return list(map(_encode_scalar, column))
    # the text of a number, a bool or null never holds a comma
    return _encode_scalar(column)[1:-1].split(",")


def _write_rows(keys, columns, types, depth: int, out: list) -> None:
    """Append the indent-2 text of a list of flat rows at nesting depth
    `depth` from its sorted keys and columns: each row's encoded values
    between the key and indent fragments, all rows in one pass."""
    inner = "\n" + _INDENT * (depth + 1)
    field = inner + _INDENT
    names = [_encode_str(k) + ": " for k in keys]
    fragments = ["{" + field + names[0], *("," + field + name for name in names[1:])]
    encoded = map(_encoded, columns, types)
    out += ("[", inner)
    out += chain.from_iterable(zip(*chain.from_iterable(zip(map(repeat, fragments), encoded)),
                                   repeat(inner + "}," + inner)))
    # the last row ends the list, not in a separator
    out[-1] = inner + "}\n" + _INDENT * depth + "]"


def _write(value, depth: int, out: list) -> None:
    """Append the indent-2 text of a canonical value at nesting depth `depth`:
    a non-empty `_Rows` column by column, a non-empty dict key by key, and
    anything else with the indent encoder, re-indented to `depth`."""
    if value and value.__class__ is _Rows:
        _write_rows(value.keys, value.columns, value.types, depth, out)
    elif value and value.__class__ is dict:
        inner = "\n" + _INDENT * (depth + 1)
        start = "{"
        for key in sorted(value):
            out.append(start + inner + _encode_str(key) + ": ")
            start = ","
            item = value[key]
            if isinstance(item, (dict, list, tuple, _Rows)):
                _write(item, depth + 1, out)
            else:
                out.append(_encode_scalar(item))
        out.append("\n" + _INDENT * depth + "}")
    else:
        out.append(_encode_indented(value).replace("\n", "\n" + _INDENT * depth))


@dataclass(frozen=True)
class AnalysisReport:
    test: str
    command: tuple[str, ...]
    alpha: float
    results: dict
    decisions: dict
    input_digest: str | None = None
    diagnostics: list[dict] | _Rows | None = None
    warnings: tuple[str, ...] = ()
    version: str = REPORT_VERSION

    def __post_init__(self) -> None:
        # canonicalize payload containers up front (tuples to lists, NaN to
        # null) so that serialize/parse is an exact round trip
        object.__setattr__(self, "command", tuple(str(c) for c in self.command))
        object.__setattr__(self, "alpha", _jsonable(self.alpha))
        object.__setattr__(self, "results", _jsonable(self.results))
        object.__setattr__(self, "decisions", _jsonable(self.decisions))
        rows = self.diagnostics  # any iterable of rows, a generator included
        if rows is not None and rows.__class__ is not _Rows:
            rows = tuple(rows)
        object.__setattr__(self, "diagnostics", _jsonable(rows))
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))

    def to_json(self) -> str:
        # every field was canonicalized in __post_init__
        out: list[str] = []
        _write({f.name: getattr(self, f.name) for f in fields(self)}, 0, out)
        out.append("\n")
        return "".join(out)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """Parse to_json output.  __post_init__ turns command and warnings back
        into tuples and every list of flat rows back into a `_Rows`, as when
        cli built the report; a key that is not a field (report.schema.json
        forbids one) raises TypeError."""
        return cls(**json.loads(text))

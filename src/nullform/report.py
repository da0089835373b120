"""Analysis reports: a JSON-serializable record of one command invocation.

Reports always carry both statistic forms and both p-value routes of the
invoked test, the decisions at the requested level, and provenance (command
echo, input content digest, tool version).  Serialization uses sorted keys
and bans NaN/Infinity so that equal reports are byte-equal; non-finite
diagnostic entries are mapped to null before they reach the encoder.

`to_json` writes the bytes of `json.dumps(payload, sort_keys=True, indent=2,
allow_nan=False)`, but not through that call, which always runs the
pure-Python encoder.  It writes the indent-2 frame itself and encodes each
container with the C encoder, whose item separator is a comma, a line break
and the indent of the container's items.  A container's nested containers
are encoded as null placeholders and spliced in, which is exact because an
encoded string never holds a raw line break.

A list of flat rows (dicts that share one set of str keys and hold only
scalars: every diagnostics row, every gap_ranking entry) is handled as
columns, both when the report is built and when it is written.  Built, each
column's types are checked once and only a column whose floats do not sum
to a finite value is scanned for NaN and infinities; the rows are copied.
Written, a column of strings is encoded value by value with
`encode_basestring_ascii` (a column that mixes strings and other scalars, by
the C encoder value by value), any other column with one C-encoder call split
at its commas (the text of a number, a bool or null holds none), and one join
interleaves the columns with the key and indent text in sorted-key order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain, repeat
from operator import itemgetter

__all__ = ["AnalysisReport", "REPORT_VERSION"]

REPORT_VERSION = "0.1.0"

_INDENT = "  "
# the canonical containers; encoded, a tuple is a list
_NESTED = frozenset({dict, list, tuple})
# the scalars a canonical container holds; a float only when finite
_SCALARS = frozenset({str, int, bool, float, type(None)})
_STR = frozenset({str})
_DICT = frozenset({dict})
_FLOAT = frozenset({float})
_is_float = float.__instancecheck__
_encode_str = json.encoder.encode_basestring_ascii
# C-encoder `encode` of one scalar, or of a list of scalars with bare commas
_encode_scalar = json.JSONEncoder(allow_nan=False, separators=(",", ":")).encode


def _settled(keys, values) -> bool:
    """Whether keys and values are canonical as they are: str keys, scalar
    values, and floats whose sum is finite (a sum of finite floats that
    overflows only sends them down the value-by-value path)."""
    values = list(values)
    return (_STR.issuperset(map(type, keys)) and _SCALARS.issuperset(map(type, values))
            and math.isfinite(sum(filter(_is_float, values))))


def _columns(rows):
    """(sorted keys, columns, each column's set of value types) of flat rows:
    non-empty dicts that share one set of str keys and hold only scalars.
    None for any other list."""
    if not rows or not _DICT.issuperset(map(type, rows)):
        return None
    keys = rows[0].keys()
    if not keys or not _STR.issuperset(map(type, keys)) or len(set(map(len, rows))) != 1:
        return None
    keys = sorted(keys)
    try:
        # rows of equal length that all hold every key share one key set
        columns = [tuple(map(itemgetter(k), rows)) for k in keys]
    except KeyError:
        return None
    types = [set(map(type, column)) for column in columns]
    if not all(map(_SCALARS.issuperset, types)):
        return None
    return keys, columns, types


def _jsonable(value):
    """Recursively convert to JSON-encodable content; non-finite floats
    become null (flagged diagnostics rows carry NaN by contract).

    A container of settled scalars is checked by C-level passes and copied.
    A list of flat rows (every diagnostics row, every gap_ranking entry) is
    checked column by column and copied row by row, and only its columns
    whose floats do not sum to a finite value are scanned for non-finite
    floats.  Every other container is converted value by value."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        if _settled(value, value.values()):
            return dict(value)
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if _settled((), value):
            return list(value)
        table = _columns(value)
        if table is None:
            return [_jsonable(v) for v in value]
        rows = list(map(dict, value))
        for key, column, kinds in zip(*table):
            if float in kinds and not math.isfinite(
                    sum(column) if kinds == _FLOAT else sum(filter(_is_float, column))):
                for row, v in zip(rows, column):
                    if v.__class__ is float and not math.isfinite(v):
                        row[key] = None
        return rows
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


@cache
def _encoder(depth: int):
    """C-encoder `encode` for a container at `depth`: sorted keys, no NaN, and
    a line break plus the indent of depth + 1 after each item's comma."""
    separators = ("," + "\n" + _INDENT * (depth + 1), ": ")
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=separators).encode


def _encoded(column, kinds) -> list[str]:
    """The JSON text of each value of a column of canonical scalars."""
    if kinds == _STR:
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
    """Append the indent-2 text of a canonical container whose opening bracket
    sits at nesting depth `depth`."""
    is_dict = value.__class__ is dict
    start, end = "{}" if is_dict else "[]"
    if not value:
        out.append(start + end)
        return
    inner = "\n" + _INDENT * (depth + 1)
    outer = "\n" + _INDENT * depth
    values = value.values() if is_dict else value
    if _NESTED.isdisjoint(map(type, values)):
        out += (start, inner, _encoder(depth)(value)[1:-1], outer, end)
        return
    table = None if is_dict else _columns(value)
    if table is not None:
        _write_rows(*table, depth, out)
        return
    # nested containers go through the C encoder as null placeholders, and
    # each is written in its placeholder's place
    items = [value[k] for k in sorted(value)] if is_dict else value
    if is_dict:
        value = {k: None if v.__class__ in _NESTED else v for k, v in value.items()}
    else:
        value = [None if v.__class__ in _NESTED else v for v in value]
    separator = "," + inner
    out += (start, inner)
    for i, part in enumerate(_encoder(depth)(value)[1:-1].split(separator)):
        if i:
            out.append(separator)
        if items[i].__class__ in _NESTED:
            out.append(part[:-len("null")])
            _write(items[i], depth + 1, out)
        else:
            out.append(part)
    out += (outer, end)


@dataclass(frozen=True)
class AnalysisReport:
    test: str
    command: tuple[str, ...]
    alpha: float
    results: dict
    decisions: dict
    input_digest: str | None = None
    diagnostics: tuple[dict, ...] | None = None
    warnings: tuple[str, ...] = ()
    version: str = REPORT_VERSION

    def __post_init__(self) -> None:
        # canonicalize payload containers up front (tuples to lists, NaN to
        # null) so that serialize/parse is an exact round trip
        object.__setattr__(self, "command", tuple(str(c) for c in self.command))
        object.__setattr__(self, "alpha", _jsonable(self.alpha))
        object.__setattr__(self, "results", _jsonable(self.results))
        object.__setattr__(self, "decisions", _jsonable(self.decisions))
        if self.diagnostics is not None:
            object.__setattr__(
                self, "diagnostics", tuple(_jsonable(tuple(self.diagnostics)))
            )
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))

    def to_json(self) -> str:
        # every field was canonicalized in __post_init__
        out: list[str] = []
        _write({f.name: getattr(self, f.name) for f in fields(self)}, 0, out)
        out.append("\n")
        return "".join(out)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """Parse to_json output; __post_init__ turns its lists back into tuples,
        and a key that is not a field (report.schema.json forbids one) raises
        TypeError."""
        return cls(**json.loads(text))

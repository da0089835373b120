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
are encoded as null placeholders and spliced in, and a list of flat rows
(every diagnostics row, every gap_ranking entry) is one call whose row
boundaries are rewritten afterwards.  Both rewrites are exact because an
encoded string never holds a raw line break.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain

__all__ = ["AnalysisReport", "REPORT_VERSION"]

REPORT_VERSION = "0.1.0"

_INDENT = "  "
# the canonical containers; encoded, a tuple is a list
_NESTED = frozenset({dict, list, tuple})
# the scalars a canonical container holds; a float only when finite
_SCALARS = frozenset({str, int, bool, float, type(None)})
_STR = frozenset({str})
_DICT = frozenset({dict})
_is_float = float.__instancecheck__


def _settled(keys, values) -> bool:
    """Whether keys and values are canonical as they are: str keys, scalar
    values, and floats whose sum is finite (a sum of finite floats that
    overflows only sends them down the value-by-value path)."""
    values = list(values)
    return (_STR.issuperset(map(type, keys)) and _SCALARS.issuperset(map(type, values))
            and math.isfinite(sum(filter(_is_float, values))))


def _row_values(rows):
    """The values of a list of dicts, in one chain."""
    return chain.from_iterable(map(dict.values, rows))


def _jsonable(value):
    """Recursively convert to JSON-encodable content; non-finite floats
    become null (flagged diagnostics rows carry NaN by contract).

    A container of settled scalars, or a list of dicts whose keys and values
    are all settled (every diagnostics row, every gap_ranking entry), is
    checked by C-level passes and copied; only the others are converted
    value by value."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        if _settled(value, value.values()):
            return dict(value)
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if _settled((), value):
            return list(value)
        if _DICT.issuperset(map(type, value)) and _settled(
                chain.from_iterable(value), _row_values(value)):
            return list(map(dict, value))
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


@cache
def _encoder(depth: int):
    """C-encoder `encode` for a container at `depth`: sorted keys, no NaN, and
    a line break plus the indent of depth + 1 after each item's comma."""
    separators = ("," + "\n" + _INDENT * (depth + 1), ": ")
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=separators).encode


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
    if not is_dict and _DICT.issuperset(map(type, value)) and all(value) and (
            _NESTED.isdisjoint(map(type, _row_values(value)))):
        # flat rows: one call at the rows' item indent, where "}" before a
        # separator can only end a row
        row = inner + _INDENT
        body = _encoder(depth + 1)(value)[2:-2]
        body = body.replace("}," + row + "{", inner + "}," + inner + "{" + row)
        out += ("[", inner, "{", row, body, inner, "}", outer, "]")
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

"""Analysis reports: a JSON-serializable record of one command invocation.

Reports always carry both statistic forms and both p-value routes of the
invoked test, the decisions at the requested level, and provenance (command
echo, input content digest, tool version).  Serialization uses sorted keys
and bans NaN/Infinity so that equal reports are byte-equal; non-finite
diagnostic entries are mapped to null before they reach the encoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

__all__ = ["AnalysisReport", "REPORT_VERSION"]

REPORT_VERSION = "0.1.0"


def _jsonable(value):
    """Recursively convert to JSON-encodable content; non-finite floats
    become null (flagged diagnostics rows carry NaN by contract)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


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
                self, "diagnostics", tuple(_jsonable(row) for row in self.diagnostics)
            )
        object.__setattr__(self, "warnings", tuple(str(w) for w in self.warnings))

    def to_json(self) -> str:
        # every field was canonicalized in __post_init__
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        raw = json.loads(text)
        return cls(
            test=raw["test"],
            command=tuple(raw["command"]),
            alpha=raw["alpha"],
            results=raw["results"],
            decisions=raw["decisions"],
            input_digest=raw.get("input_digest"),
            diagnostics=(
                tuple(raw["diagnostics"]) if raw.get("diagnostics") is not None else None
            ),
            warnings=tuple(raw.get("warnings", ())),
            version=raw.get("version", REPORT_VERSION),
        )

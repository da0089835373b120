"""Report serialization: canonical, byte-deterministic, exact round trip."""

import json
import math
from pathlib import Path

import pytest

from nullform.report import REPORT_VERSION, AnalysisReport

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "report.schema.json"


def sample_report(**overrides):
    kwargs = dict(
        test="ttest",
        command=("nullform", "ttest", "--mu0", "0"),
        alpha=0.05,
        results={"t": 3.5, "t0": 1.6, "n": 3, "flags": (True, False)},
        decisions={"reject_traditional": True, "reject_null_form": True},
        input_digest="ab" * 32,
        diagnostics=None,
        warnings=("dropped 1 row(s) with unusable cells",),
    )
    kwargs.update(overrides)
    return AnalysisReport(**kwargs)


def test_round_trip_is_exact():
    report = sample_report()
    again = AnalysisReport.from_json(report.to_json())
    assert again == report
    assert again.to_json() == report.to_json()


def test_from_json_fills_defaults_and_rejects_unknown_keys():
    raw = json.loads(sample_report().to_json())
    for key in ("input_digest", "diagnostics", "warnings", "version"):
        del raw[key]
    assert AnalysisReport.from_json(json.dumps(raw)) == sample_report(
        input_digest=None, warnings=())
    with pytest.raises(TypeError, match="extra"):
        AnalysisReport.from_json(json.dumps({**raw, "extra": 1}))


def test_to_json_bytes_pinned():
    report = sample_report(
        alpha=0.1,
        results={"t": math.inf, "cols": ("a", "b"), "nested": {"r": (1.5, math.nan)}},
        diagnostics=(
            {"index": 0, "label": "a", "leverage": 0.25, "studentized": math.nan,
             "flagged": True},
            {"index": 1, "label": "b", "leverage": 0.5, "studentized": -2.0,
             "flagged": False},
        ),
    )
    canonical = {
        "test": "ttest",
        "command": ["nullform", "ttest", "--mu0", "0"],
        "alpha": 0.1,
        "results": {"t": None, "cols": ["a", "b"], "nested": {"r": [1.5, None]}},
        "decisions": {"reject_traditional": True, "reject_null_form": True},
        "input_digest": "ab" * 32,
        "diagnostics": [
            {"index": 0, "label": "a", "leverage": 0.25, "studentized": None,
             "flagged": True},
            {"index": 1, "label": "b", "leverage": 0.5, "studentized": -2.0,
             "flagged": False},
        ],
        "warnings": ["dropped 1 row(s) with unusable cells"],
        "version": REPORT_VERSION,
    }
    want = json.dumps(canonical, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert report.to_json() == want


def test_serialization_is_byte_deterministic():
    a = sample_report().to_json()
    b = sample_report().to_json()
    assert a == b
    assert a.endswith("\n")


def test_keys_are_sorted():
    payload = json.loads(sample_report().to_json())
    assert list(payload) == sorted(payload)
    assert list(payload["results"]) == sorted(payload["results"])


def test_non_finite_values_become_null():
    report = sample_report(
        results={"t": math.inf, "gap": math.nan, "ok": 1.5},
        diagnostics=({"index": 0, "studentized": -math.inf},),
    )
    assert report.results == {"t": None, "gap": None, "ok": 1.5}
    assert report.diagnostics[0]["studentized"] is None
    text = report.to_json()
    assert "NaN" not in text and "Infinity" not in text


def test_tuples_canonicalize_to_lists():
    report = sample_report()
    assert report.results["flags"] == [True, False]
    again = AnalysisReport.from_json(report.to_json())
    assert again.results["flags"] == [True, False]


def test_unserializable_payload_rejected_eagerly():
    with pytest.raises(TypeError, match="cannot serialize"):
        sample_report(results={"oops": object()})


def test_version_default():
    assert sample_report().version == REPORT_VERSION


def test_matches_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    report = sample_report(
        diagnostics=(
            {
                "index": 0,
                "label": "alpha",
                "leverage": 0.4,
                "raw_residual": 1.0,
                "standardized": 1.2,
                "studentized": 1.3,
                "outlier_p_value": 0.4,
                "bonferroni_p_value": 1.0,
                "gap": 0.1,
                "flagged": False,
            },
        ),
    )
    jsonschema.validate(json.loads(report.to_json()), schema)


def test_schema_rejects_extra_top_level_key():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    payload = json.loads(sample_report().to_json())
    payload["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, schema)

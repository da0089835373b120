"""Report serialization: canonical, byte-deterministic, exact round trip."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullform import cli
from nullform import report as report_module
from nullform.diagnostics import DiagnosticsRow
from nullform.report import REPORT_VERSION, AnalysisReport, _Rows

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


# the DiagnosticsRow fields a flagged row leaves undefined (NaN)
FLAGGED_NAN_FIELDS = ("standardized", "studentized", "outlier_p_value",
                      "bonferroni_p_value", "gap")


def listed(value):
    """A columns table as the list of its row dicts, for the oracle."""
    if isinstance(value, _Rows):
        return list(value)
    raise TypeError(f"{type(value).__name__} is not a columns table")


def oracle(report):
    """The bytes to_json promises: the pure-Python indent-2 encoder, with each
    columns table encoded as the list of its rows."""
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=listed) + "\n"


# strings that stress the comma split of encoded columns, the row fragments
# and the escapes
TRICKY_TEXT = st.text(alphabet=st.sampled_from(
    ['"', "\\", "}", ",", "{", "[", "]", "\n", " ", ":", "a", "é", "中", " ", "😀"]),
    max_size=8) | st.sampled_from(["},", '},\n    {', "}]", "null", ""])
KEYS = TRICKY_TEXT | st.text(max_size=4)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**20, max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7]),
    TRICKY_TEXT,
)
FLAT_ROW = st.dictionaries(KEYS, SCALARS, min_size=1, max_size=6)


# the values of one column of flat rows, by kind
COLUMN_VALUES = {
    "float": st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    "int": st.integers() | st.integers(min_value=10**20, max_value=10**400),
    "bool": st.booleans(),
    "none": st.none(),
    "str": TRICKY_TEXT,
    "mixed": SCALARS,
}


@st.composite
def column_rows(draw, canonical=False):
    """Rows that share one key set, each column of one kind, each row with
    its own insertion order; then, unless `canonical`, maybe a NaN or +-inf
    in one column and maybe non-str keys; and maybe one row that lacks a key
    or adds one."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=5, unique=True))
    kinds = {k: draw(st.sampled_from(sorted(COLUMN_VALUES))) for k in keys}
    rows = [dict(draw(st.permutations([(k, draw(COLUMN_VALUES[kinds[k]])) for k in keys])))
            for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    key = draw(st.sampled_from(keys))
    if not canonical and draw(st.booleans()):
        rows[i][key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    changes = ["none", "drop", "add"] + ([] if canonical else ["non-str", "non-str in one row"])
    change = draw(st.sampled_from(changes))
    if change == "drop":
        del rows[i][key]
    elif change == "add":
        rows[i][draw(KEYS.filter(lambda k: k not in keys))] = draw(SCALARS)
    elif change.startswith("non-str"):
        other = draw(st.sampled_from([0, 7, True, None]))
        for row in rows if change == "non-str" else [rows[i]]:
            row[other] = row.pop(key)
    return rows


PAYLOAD = st.recursive(
    SCALARS | FLAT_ROW | st.lists(FLAT_ROW, max_size=4) | column_rows(canonical=True),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=25,
)


def table_of(rows):
    """{key: column} of rows that are dicts which all hold the same keys, or
    None."""
    if not rows or not all(isinstance(row, dict) for row in rows):
        return None
    keys = rows[0].keys()
    if not keys or any(row.keys() != keys for row in rows):
        return None
    return {key: [row[key] for row in rows] for key in keys}


ROW_SCALAR_TYPES = (str, int, bool, float, type(None))


def assert_written_like_the_oracle(rows):
    """rows as the diagnostics (a generator of them), as a list in results
    and as a list in a dict in results: held as a `_Rows` when they are flat
    (dicts with one set of str keys and only scalars) and as a list
    otherwise, the indent encoder's bytes, an exact round trip, and the
    caller's rows neither changed nor held by the report.  Rows that all
    hold the same keys are also passed as a `_Rows` built from their
    columns, which must write the same bytes, round-trip, and leave the
    caller's column lists unchanged and not held; a table `_Rows` cannot
    hold (a non-str key, a nested value) raises TypeError."""
    columns = table_of(rows)
    flat = columns is not None and all(type(key) is str for key in columns) and all(
        type(v) in ROW_SCALAR_TYPES for column in columns.values() for v in column)
    before = repr(rows)
    report = sample_report(results={"rows": rows, "n": len(rows), "deeper": {"rows": rows}},
                           diagnostics=(row for row in rows))
    lists = (report.diagnostics, report.results["rows"], report.results["deeper"]["rows"])
    assert {type(held) for held in lists} == {_Rows if flat else list}
    text = report.to_json()
    assert text == oracle(report)
    assert AnalysisReport.from_json(text) == report
    assert repr(rows) == before
    held = [row for rows_held in lists for row in rows_held]
    assert not {id(row) for row in rows if isinstance(row, (dict, list))} & set(map(id, held))

    if columns is None:
        return
    if not flat:
        with pytest.raises(TypeError):
            _Rows(columns)
        return
    before = repr(columns)
    table = _Rows(columns)
    assert table == rows and list(table) == rows and len(table) == len(rows)
    report = sample_report(results={"rows": table, "n": len(rows), "deeper": {"rows": table}},
                           diagnostics=table)
    assert report.to_json() == text == oracle(report)
    assert AnalysisReport.from_json(text) == report
    assert repr(columns) == before
    held = {id(column) for held_table in (report.diagnostics, report.results["rows"],
                                          report.results["deeper"]["rows"])
            for column in held_table.columns}
    assert not set(map(id, columns.values())) & held


@settings(max_examples=500, deadline=None)
@given(results=st.dictionaries(KEYS, PAYLOAD, max_size=6),
       rows=st.none() | st.lists(FLAT_ROW, max_size=5) | st.lists(PAYLOAD, max_size=3)
       | column_rows())
def test_to_json_equals_the_indent_encoder(results, rows):
    report = sample_report(results=results, decisions={"k": results},
                           diagnostics=None if rows is None else tuple(rows))
    text = report.to_json()
    assert text == oracle(report)
    assert json.loads(text)["results"] == json.loads(json.dumps(results))
    assert AnalysisReport.from_json(text) == report
    if rows is not None:
        assert_written_like_the_oracle(rows)


@pytest.mark.parametrize("rows", [
    [{"a": 1.5, "b": "x", "c": True}, {"c": False, "a": -2.0, "b": "y"},
     {"b": "z", "c": None, "a": 3}],
    [{"a": 1.0, "b": 2.0}, {"a": 3.0}],
    [{"a": 1.0}, {"a": 2.0, "b": 3.0}],
    [{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}],
    [{2: 1.0, True: "t", None: None}, {2: 2.0, True: "u", None: 5}],
    [{"a": 1.0, 2: 1.0, "2": 3.0}, {"a": 2.0, 2: 4.0, "2": 5.0}],
    [{"a": 1.0, "b": math.nan}, {"a": 2.0, "b": 3.0}],
    [{"a": math.inf, "b": 1.0}, {"a": -math.inf, "b": None}],
    [{"s": ",", "t": '"'}, {"s": "\\", "t": "\n"}, {"s": "},\n  {", "t": "\u2028"},
     {"s": "é中😀", "t": ""}],
    [{"},\n    {": 1, "é": ",", '"': "\\"}, {"},\n    {": 2, "é": "}", '"': "\u2028"}],
    [{"x": -0.0}, {"x": 5e-324}, {"x": 1.7976931348623157e308},
     {"x": 1.7976931348623157e308}],
    [{"v": 1e308, "w": 1}, {"v": 10**400, "w": 2.5}, {"v": 1e308, "w": math.nan}],
    [{"b": True, "i": 10**30, "n": None, "m": "1,2"},
     {"b": False, "i": -7, "n": None, "m": 3.5}, {"b": True, "i": 0, "n": None, "m": 4}],
    [{"only": 1.0}],
    [{"a": 1, "b": [1, 2]}, {"a": 2, "b": {"c": 1}}],
    [{"a": 1}, {}],
], ids=["insertion-orders", "row-lacks-a-key", "row-adds-a-key", "row-swaps-a-key",
        "non-str-keys", "colliding-keys", "nan-in-one-column", "inf-in-one-column",
        "tricky-strings", "tricky-keys", "float-extremes", "overflowing-sums",
        "scalar-and-mixed-columns", "one-cell", "nested-values", "empty-row"])
def test_rows_of_every_shape_equal_the_indent_encoder(rows):
    assert_written_like_the_oracle(rows)


def test_rows_slice_like_the_list_they_equal():
    table = _Rows({"a": [1, 2, 3], "b": ("x", "y", "z")})
    rows = list(table)
    for part in (slice(0, 2), slice(None, None, -1), slice(1, None), slice(5, None),
                 slice(-2, None), slice(None, None, 2)):
        assert table[part] == rows[part]
    assert table[-1] == rows[-1] and table[0:2] == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    # a slice holds fresh dicts
    table[0:1][0]["a"] = 9
    assert table[0]["a"] == 1


def test_rows_stop_at_the_first_column_that_is_not_all_scalars(monkeypatch):
    # each column is built and checked before the next pair is drawn, so a
    # list of row dicts is turned down without gathering its later columns
    drawn = []

    def recorded(pairs):
        for key, column in pairs:
            drawn.append(key)
            yield key, column

    with pytest.raises(TypeError):
        _Rows(recorded([("a", [1.5, 2.5]), ("b", [1, [2]]), ("c", ["x", "y"])]))
    assert drawn == ["a", "b"]
    drawn.clear()
    monkeypatch.setattr(report_module, "_Rows", lambda pairs: _Rows(recorded(pairs)))
    rows = [{"a": 1.5, "b": 2, "c": "x"}, {"a": np.float64(2.5), "b": 3, "c": "y"}]
    assert report_module._as_rows(rows) is rows
    assert drawn == ["a"]
    with pytest.raises(TypeError):
        _Rows({})


def test_from_json_reads_flat_rows_as_columns_and_leaves_other_lists():
    # a list of flat rows anywhere in results or diagnostics is held as a
    # _Rows, whoever built it and whatever its container; any other list
    # stays a list
    flat = [{"a": 1.5, "b": "x", "c": None}, {"c": True, "b": "y", "a": 2}]
    report = sample_report(
        results={"gap_ranking": flat, "other": tuple(flat), "deeper": {"rows": flat},
                 "in_list": [flat, 1]},
        diagnostics=(row for row in flat))
    again = AnalysisReport.from_json(report.to_json())
    for made in (report, again):
        results = made.results
        for held in (made.diagnostics, results["gap_ranking"], results["other"],
                     results["deeper"]["rows"], results["in_list"][0]):
            assert type(held) is _Rows and held == flat
        assert type(results["in_list"]) is list
    assert again == report and again.to_json() == report.to_json() == oracle(report)
    for rows in ([{"a": 1}, {"b": 2}], [{"a": 1}, {"a": 2, "b": 3}], [{"a": [1]}, {"a": [2]}],
                 [{"a": {"b": 1}}], [{"a": 1}, 2], [2, {"a": 1}], [{}, {}], [1, 2], [[]], []):
        report = sample_report(results={"gap_ranking": rows, "deeper": {"rows": rows}},
                               diagnostics=iter(rows))
        again = AnalysisReport.from_json(report.to_json())
        for made in (report, again):
            for held in (made.diagnostics, made.results["gap_ranking"],
                         made.results["deeper"]["rows"]):
                assert type(held) is list
        assert again == report and again.to_json() == report.to_json()
    # a non-str key or a numpy scalar keeps a list a list; its JSON text is
    # flat, so it reads back as a _Rows that equals it
    for rows in ([{1: 1.5}, {1: 2.5}], [{"a": np.float64(1.5)}, {"a": 2.5}],
                 [{"a": 2.5}, {"a": np.float64(1.5)}]):
        report = sample_report(results={"rows": rows}, diagnostics=rows)
        assert type(report.diagnostics) is list and type(report.results["rows"]) is list
        again = AnalysisReport.from_json(report.to_json())
        assert type(again.diagnostics) is _Rows and type(again.results["rows"]) is _Rows
        assert again == report and again.to_json() == report.to_json() == oracle(report)


def test_empty_containers_and_lists_of_rows():
    report = sample_report(
        results={"e": {}, "l": [], "t": (), "nested": [[], {}, [{}], [[]]],
                 "rows": [{"a": 1}, {"b": "x"}], "mixed": [{"a": 1}, {}, 2],
                 "no_rows": _Rows({"a": [], "b": ()}), "in_list": [_Rows({"a": [1.5]})]},
        diagnostics=({"a": -0.0, "s": "},\n  {"}, {"a": 5e-324, "s": None}),
    )
    assert report.to_json() == oracle(report)


def raw_outlier_rows(n, sign, seed=3):
    """n rows on the exact line y = 1 + 2 x but for row 0, which sits 5 * sign
    off it, so deleting row 0 leaves an exact fit (studentized +-inf); the
    indicator column d gives row 7 leverage 1 (flagged)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, n)
    y = 1.0 + 2.0 * x
    y[0] += 5.0 * sign
    d = np.zeros(n)
    d[7] = 1.0
    return ["name,y,x1,d"] + [f"r{i},{a!r},{b!r},{c!r}" for i, (a, b, c) in
                              enumerate(zip(y.tolist(), x.tolist(), d.tolist()))]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_outliers_report_of_2000_rows_matches_the_indent_encoder(tmp_path, sign):
    path = tmp_path / "line.csv"
    path.write_text("\n".join(raw_outlier_rows(2000, sign)) + "\n", encoding="utf-8")
    argv = ["outliers", "--input", str(path), "--response", "y", "--label-column", "name"]
    report, (_, raw) = cli._assemble_report(cli._build_parser().parse_args(argv), argv)
    assert raw[0]["studentized"] == sign * math.inf and raw[0]["gap"] == math.inf
    assert raw[7]["flagged"]
    text = report.to_json()
    assert text == oracle(report)
    rows = json.loads(text)["diagnostics"]
    assert rows[0]["studentized"] is None and rows[0]["gap"] is None
    assert rows[0]["standardized"] is not None and rows[0]["outlier_p_value"] == 0.0
    assert AnalysisReport.from_json(text) == report
    assert AnalysisReport.from_json(text).to_json() == text


def test_flagged_rows_read_null_in_every_undefined_field(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("\n".join(raw_outlier_rows(40, 1.0)) + "\n", encoding="utf-8")
    argv = ["outliers", "--input", str(path), "--response", "y", "--label-column", "name"]
    report, (_, raw) = cli._assemble_report(cli._build_parser().parse_args(argv), argv)
    # the rows reach the report holding NaN, and the report nulls it
    assert [r["flagged"] for r in raw] == [i == 7 for i in range(40)]
    for name in FLAGGED_NAN_FIELDS:
        assert math.isnan(raw[7][name]) and report.diagnostics[7][name] is None
        assert json.loads(report.to_json())["diagnostics"][7][name] is None
    assert raw[7]["leverage"] == pytest.approx(1.0) and report.diagnostics[7]["label"] == "r7"
    assert all(raw[i][name] is not None for i in range(1, 40) if i != 7
               for name in FLAGGED_NAN_FIELDS)


def test_json_path_builds_no_row_dict(tmp_path, monkeypatch, capsys):
    # outliers --json hands the report the diagnostics and the gap ranking
    # as columns tables and writes them column by column: with no way to
    # build a row dict of a table, it writes the same bytes
    path = tmp_path / "line.csv"
    path.write_text("\n".join(raw_outlier_rows(40, 1.0)) + "\n", encoding="utf-8")
    argv = ["outliers", "--input", str(path), "--response", "y", "--label-column", "name",
            "--json"]
    assert cli.run_command(argv) == 0
    text = capsys.readouterr().out

    def no_row(*args):
        raise AssertionError("a row dict was built")

    monkeypatch.setattr(_Rows, "__getitem__", no_row)
    monkeypatch.setattr(_Rows, "__iter__", no_row)
    assert cli.run_command(argv) == 0
    assert capsys.readouterr().out == text
    payload = json.loads(text)
    assert len(payload["diagnostics"]) == 40 and len(payload["results"]["gap_ranking"]) == 39


def test_raw_rows_holding_nan_and_inf_are_canonicalized():
    # a report built from DiagnosticsRow fields as the table holds them: NaN
    # on a flagged row, +-inf on an exact-fit deletion
    flagged = DiagnosticsRow(0, 1.0, 0.0, *[math.nan] * 5, flagged=True)
    exact = DiagnosticsRow(1, 0.5, 0.25, 0.5, -math.inf, 0.0, 0.0, math.inf)
    plain = DiagnosticsRow(2, 0.25, 1.5, 0.75, 0.8, 0.5, 1.0, 0.05)
    rows = tuple({"label": str(r.index), **vars(r)} for r in (flagged, exact, plain))
    report = sample_report(diagnostics=rows)
    assert [report.diagnostics[0][k] for k in FLAGGED_NAN_FIELDS] == [None] * 5
    assert report.diagnostics[1]["studentized"] is None and report.diagnostics[1]["gap"] is None
    assert report.diagnostics[2] == rows[2]
    # the caller's rows are copied, not adopted
    assert report.diagnostics[2] is not rows[2]
    assert rows[0]["gap"] != rows[0]["gap"]
    assert report.to_json() == oracle(report)
    assert AnalysisReport.from_json(report.to_json()) == report

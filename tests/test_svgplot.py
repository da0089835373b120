"""Deterministic SVG residual panels."""

import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nullform.cli import run_command
from nullform.diagnostics import DiagnosticsRow, DiagnosticsTable, residual_diagnostics
from nullform.errors import DomainError
from nullform.linmodel import DesignMatrix, fit
from nullform.sample import Sample
from nullform.svgplot import emit_residual_plots, escape

SRC = Path(__file__).resolve().parents[1] / "src"


def make_table(values, design=None):
    y = Sample.from_iterable(values)
    if design is None:
        design = DesignMatrix.from_columns([[1.0] * y.n], ["const"])
    return residual_diagnostics(design, y), fit(design, y).fitted


def expected_point_counts(table, fitted, alpha):
    """Circles and diamonds the document should contain, over all 4 panels."""
    circles = diamonds = 0
    cells = zip(table.flagged.tolist(), fitted, table.outlier_p_value.tolist(),
                table.standardized.tolist(), table.studentized.tolist())
    for flagged, fit_i, p, r, t in cells:
        if flagged or not math.isfinite(fit_i):
            continue
        outlier = math.isfinite(p) and p <= alpha
        for y in (r, t, r**2, t**2):
            if not math.isfinite(y):
                continue
            if outlier:
                diamonds += 1
            else:
                circles += 1
    return circles, diamonds


def test_document_structure():
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    doc = emit_residual_plots(table, fitted)
    assert doc.startswith('<?xml version="1.0"')
    assert doc.endswith("</svg>\n")
    root = ET.fromstring(doc)
    assert root.get("width") == "1200" and root.get("height") == "900"
    # each panel carries its title once and repeats it as the y-axis label
    for title in (
        "standardized residuals",
        "studentized residuals",
        "squared standardized (F null form)",
        "squared studentized (F traditional form)",
    ):
        assert doc.count(f">{title}<") == 2
    assert doc.count(">fitted value<") == 4


def test_point_counts_match_table():
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    for alpha in (0.01, 0.2, 0.9):
        doc = emit_residual_plots(table, fitted, alpha=alpha)
        circles, diamonds = expected_point_counts(table, fitted, alpha)
        assert doc.count("<circle") == circles
        assert doc.count("<path") == diamonds
        assert circles + diamonds == 4 * len(table)
    # alpha=0.9 must actually exercise the diamond branch
    assert expected_point_counts(table, fitted, 0.9)[1] > 0


def test_outlier_labels_rendered():
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    doc = emit_residual_plots(
        table, fitted, alpha=0.2, labels=["a", "b", "big", "d", "e"]
    )
    _, diamonds = expected_point_counts(table, fitted, 0.2)
    assert diamonds == 4
    assert doc.count('fill="#b83232">big</text>') == 4
    # default labels are row indices
    doc = emit_residual_plots(table, fitted, alpha=0.2)
    assert doc.count('fill="#b83232">2</text>') == 4


def test_byte_determinism_and_file_output(tmp_path):
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    a = emit_residual_plots(table, fitted)
    b = emit_residual_plots(table, fitted)
    assert a == b
    out = tmp_path / "panels.svg"
    c = emit_residual_plots(table, fitted, out)
    assert out.read_text(encoding="utf-8") == c == a


def test_nonfinite_studentized_points_are_skipped():
    # deleting row 0 leaves an exact fit, so its studentized residual is
    # infinite; the squared panels must drop it instead of emitting inf
    design = DesignMatrix.from_columns(
        [
            [1.0] * 6,
            [0.1, 1.2, 2.1, 2.9, 4.2, 5.1],
            [2.0, 1.0, 5.0, 2.0, 3.0, 4.0],
        ],
        ["const", "x1", "x2"],
    )
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0, 5.0], design)
    assert not np.isfinite(table.studentized).all()
    doc = emit_residual_plots(table, fitted, alpha=0.05)
    assert "inf" not in doc and "nan" not in doc
    circles, diamonds = expected_point_counts(table, fitted, 0.05)
    assert doc.count("<circle") == circles
    assert doc.count("<path") == diamonds
    assert circles + diamonds < 4 * len(table)
    ET.fromstring(doc)


def test_nonfinite_fitted_points_are_skipped():
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    fitted = list(fitted)
    fitted[2] = math.inf
    doc = emit_residual_plots(table, fitted, labels=list("abcde"), alpha=0.5)
    assert "inf" not in doc and "nan" not in doc
    circles, diamonds = expected_point_counts(table, fitted, 0.5)
    assert doc.count("<circle") == circles
    assert doc.count("<path") == diamonds
    assert circles + diamonds == 4 * 4
    ET.fromstring(doc)


def test_fit_and_diagnostics_fitted_values_render_the_same_plot(capsys, tmp_path):
    # the benchmark's plot check renders a table rebuilt from the `outliers
    # --json` rows with the fitted values of `fit`, and the plot command
    # renders its own table with the fitted values of `residual_diagnostics`
    rng = np.random.default_rng(3)
    n = 40
    x = rng.standard_normal((n, 3))
    y = 1.0 + x @ np.array([0.5, -1.0, 2.0]) + rng.standard_normal(n)
    y[[4, 17]] += (9.0, -7.0)
    labels = [f"r{i}" for i in range(n)]
    path = tmp_path / "reg.csv"
    path.write_text("name,y,x1,x2,x3\n" + "".join(
        f"{label},{yi!r},{a!r},{b!r},{c!r}\n" for label, yi, (a, b, c) in zip(labels, y.tolist(), x.tolist())
    ), encoding="utf-8")
    common = ["--input", str(path), "--response", "y", "--label-column", "name"]
    assert run_command(["outliers", *common, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert run_command(["plot", *common, "--out", str(tmp_path / "p.svg")]) == 0
    capsys.readouterr()

    design = DesignMatrix(np.column_stack([np.ones(n), x]), ("const", "x1", "x2", "x3"))
    sample = Sample.from_iterable(y.tolist())
    from_fit = fit(design, sample).fitted
    from_table = residual_diagnostics(design, sample).fitted
    assert len(from_fit) == len(from_table) == n
    assert all(a == b for a, b in zip(from_fit, from_table))
    table = DiagnosticsTable(tuple(
        DiagnosticsRow(**{k: (math.nan if v is None else v) for k, v in row.items()
                          if k != "label"})
        for row in report["diagnostics"]), n=n, p=4)
    assert report["results"]["outliers"]
    docs = {emit_residual_plots(table, fitted, None, 0.05, labels=labels)
            for fitted in (from_fit, from_table)}
    assert docs == {(tmp_path / "p.svg").read_text(encoding="utf-8")}


def test_flagged_rows_are_skipped_entirely():
    design = DesignMatrix.from_rows(
        [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        ["const", "only_last"],
    )
    table, fitted = make_table([1.0, 2.0, 3.0, 2.0, 9.0], design)
    assert table.flagged[4]
    doc = emit_residual_plots(table, fitted)
    circles, diamonds = expected_point_counts(table, fitted, 0.05)
    assert doc.count("<circle") + doc.count("<path") == circles + diamonds
    assert circles + diamonds == 4 * 4


def panels(doc):
    """Each panel's x tick labels, y tick labels and drawn points, in the
    order standardized, studentized and their squares."""
    out = []
    for chunk in doc.split('fill="none" stroke="#333333"')[1:]:
        x_ticks = re.findall(r'text-anchor="middle" font-size="9">([^<]*)<', chunk)
        y_ticks = re.findall(r'text-anchor="end" font-size="9">([^<]*)<', chunk)
        out.append((x_ticks, y_ticks, chunk.count("<circle") + chunk.count("<path")))
    return out


def unit_axis(ticks):
    return len(ticks) == 10 and (ticks[0], ticks[-1]) == ("-1", "1")


def test_all_flagged_rows_draw_four_empty_frames_over_the_unit_range():
    # no row is kept, so no axis has a finite value to span
    nan = [math.nan] * 3
    table = DiagnosticsTable.from_columns(3, 1, (), [1.0] * 3, [0.0] * 3, nan, nan, nan, nan,
                                          nan, [True] * 3)
    doc = emit_residual_plots(table, [1.0, 2.0, 3.0], labels=list("abc"))
    assert [(unit_axis(x), unit_axis(y), points) for x, y, points in panels(doc)] == [
        (True, True, 0)] * 4
    assert doc.count("stroke-dasharray") == 4
    ET.fromstring(doc)


def test_infinite_studentized_residuals_leave_their_panels_empty():
    # row 0 is flagged; every kept row's studentized residual is +-inf, so
    # the studentized panels have no finite value and span the unit range
    inf = math.inf
    table = DiagnosticsTable.from_columns(
        5, 1, (), [1.0, 0.2, 0.2, 0.2, 0.2], [0.0, 1.0, -0.5, 2.0, -2.5],
        [math.nan, 0.7, -0.3, 1.4, -1.8], [math.nan, inf, -inf, inf, -inf],
        [math.nan, 0.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0, 0.0],
        [math.nan, inf, inf, inf, inf], [True, False, False, False, False])
    doc = emit_residual_plots(table, [1.0, 2.0, 3.0, 4.0, 5.0], alpha=0.05)
    assert "inf" not in doc and "nan" not in doc
    drawn = panels(doc)
    assert [points for _, _, points in drawn] == [4, 0, 4, 0]
    assert [unit_axis(y) for _, y, _ in drawn] == [False, True, False, True]
    assert not any(unit_axis(x) for x, _, _ in drawn)
    ET.fromstring(doc)


def test_zero_line_drawn_only_when_range_straddles_zero():
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    doc = emit_residual_plots(table, fitted)
    # residual panels straddle zero, squared panels may not
    assert doc.count("stroke-dasharray") >= 2


def test_validation_errors():
    table, fitted = make_table([1.0, 2.0, 6.0, 3.0, 4.0])
    with pytest.raises(DomainError, match="fitted values"):
        emit_residual_plots(table, fitted[:-1])
    with pytest.raises(DomainError, match="labels"):
        emit_residual_plots(table, fitted, labels=["a"])
    with pytest.raises(DomainError, match="alpha"):
        emit_residual_plots(table, fitted, alpha=1.5)
    empty = DiagnosticsTable(rows=(), n=0, p=0)
    with pytest.raises(DomainError, match="empty"):
        emit_residual_plots(empty, [])


@given(st.text(alphabet="&<>\"';#ab", max_size=12))
@example("a&b<c>d\"e'f")
@example("&amp;&lt;")
def test_escape_matches_saxutils(label):
    assert escape(label) == saxutils.escape(label)


def test_import_leaves_out_the_network_stack():
    # xml.sax.saxutils would pull in urllib.request, http.client, ssl, email
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, nullform; "
            "print(sorted({'http.client', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

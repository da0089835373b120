"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from nullform import cli as cli_module
from nullform.cli import run_command
from nullform.report import AnalysisReport, _Rows

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "report.schema.json"


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("y\n1\n2\n3\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def reg_csv(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text(
        "name,y,x1\n"
        "a,1.1,0.2\n"
        "b,1.8,1.1\n"
        "c,3.1,2.0\n"
        "d,9.0,2.9\n"
        "e,4.9,4.1\n"
        "f,6.2,5.0\n"
        "g,7.1,6.2\n",
        encoding="utf-8",
    )
    return str(path)


def run_json(capsys, argv):
    rc = run_command([*argv, "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_ttest_report_values(capsys, tiny_csv):
    payload = run_json(capsys, ["ttest", "--input", tiny_csv, "--mu0", "0"])
    res = payload["results"]
    assert res["n"] == 3
    assert res["mean"] == pytest.approx(2.0)
    assert res["t"] == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    assert res["t0"] == pytest.approx(6.0 / math.sqrt(14.0), rel=1e-12)
    assert res["r_ratio"] == pytest.approx(7.0, rel=1e-12)
    assert res["p_value_t"] == pytest.approx(res["p_value_t0"], rel=1e-10)
    assert payload["decisions"] == {
        "reject_traditional": False,
        "reject_null_form": False,
    }
    assert len(payload["input_digest"]) == 64


def test_ttest_human_output(capsys, tiny_csv):
    assert run_command(["ttest", "--input", tiny_csv, "--mu0", "0"]) == 0
    out = capsys.readouterr().out
    assert "nullform ttest" in out
    assert "3.464102" in out  # 7 significant digits
    assert "decisions:" in out


def test_proptest_agreeing_forms(capsys):
    payload = run_json(
        capsys, ["proptest", "--successes", "50", "--n", "100", "--p0", "0.5"]
    )
    res = payload["results"]
    assert res["z_null"] == 0.0 and res["z_wald"] == 0.0
    assert res["p_value_null"] == pytest.approx(1.0)
    assert res["p_value_wald"] == pytest.approx(1.0)


def test_proptest_one_sided(capsys):
    two = run_json(
        capsys, ["proptest", "--successes", "60", "--n", "100", "--p0", "0.5"]
    )["results"]
    greater = run_json(
        capsys,
        ["proptest", "--successes", "60", "--n", "100", "--p0", "0.5",
         "--alternative", "greater"],
    )["results"]
    less = run_json(
        capsys,
        ["proptest", "--successes", "60", "--n", "100", "--p0", "0.5",
         "--alternative", "less"],
    )["results"]
    assert greater["p_value_null"] == pytest.approx(two["p_value_null"] / 2, rel=1e-10)
    assert less["p_value_null"] + greater["p_value_null"] == pytest.approx(1.0)


def test_proptest_far_tail(capsys):
    # z_null = 9: the upper normal tail is 1.1e-19, not 1 - cdf = 0
    base = ["proptest", "--successes", "95", "--n", "100", "--p0", "0.5"]
    two = run_json(capsys, base)["results"]
    greater = run_json(capsys, base + ["--alternative", "greater"])["results"]
    upper = 0.5 * math.erfc(9.0 / math.sqrt(2.0))
    assert two["p_value_null"] == pytest.approx(2.0 * upper, rel=1e-12)
    assert greater["p_value_null"] == pytest.approx(upper, rel=1e-12)


@pytest.mark.parametrize("successes, alternative, p_wald", [
    (0, "greater", 1.0), (0, "less", 0.0), (10, "greater", 0.0), (10, "less", 1.0),
])
def test_proptest_one_sided_at_the_wald_boundary(capsys, successes, alternative, p_wald):
    # p_hat in {0, 1}: z_wald is signed infinity, so its one-sided p is 0 or 1
    res = run_json(capsys, ["proptest", "--successes", str(successes), "--n", "10",
                            "--p0", "0.5", "--alternative", alternative])["results"]
    assert res["wald_degenerate"] is True
    assert res["p_value_wald"] == p_wald
    # |z_null| = sqrt(10); the null form stays on the side of the Wald form
    tail = 0.5 * math.erfc(math.sqrt(10.0) / math.sqrt(2.0))
    expected = tail if p_wald == 0.0 else 1.0 - tail
    assert res["p_value_null"] == pytest.approx(expected, rel=1e-12)


def test_ftest_columns_and_forms(capsys, reg_csv):
    payload = run_json(
        capsys,
        ["ftest", "--input", reg_csv, "--response", "y", "--full-cols", "x1",
         "--intercept", "--label-column", "name"],
    )
    res = payload["results"]
    assert res["full_columns"] == ["const", "x1"]
    assert res["p1"] == 1 and res["p2"] == 1
    assert res["sse1"] > res["sse12"] > 0
    assert res["p_value_f"] == pytest.approx(res["p_value_beta"], rel=1e-10)
    # t-test of the slope: F mapping identity holds through the CLI too
    assert res["f_trad"] == pytest.approx(
        (res["n"] - 2) * res["f_null"] / (res["n"] - 1 - res["f_null"]), rel=1e-10
    )


def test_outliers_report(capsys, reg_csv):
    payload = run_json(
        capsys,
        ["outliers", "--input", reg_csv, "--response", "y",
         "--predictors", "x1", "--label-column", "name"],
    )
    assert payload["results"]["outliers"] == ["d"]
    assert payload["decisions"]["any_outlier"] is True
    diag = payload["diagnostics"]
    assert len(diag) == 7
    assert diag[3]["label"] == "d"
    assert diag[3]["outlier_p_value"] < 0.05
    ranking = payload["results"]["gap_ranking"]
    assert ranking[0]["label"] == "d"
    gaps = [entry["gap"] for entry in ranking]
    assert gaps == sorted(gaps, reverse=True)


def test_simulate_seed_from_environment(capsys, monkeypatch):
    argv = ["simulate", "--scenario", "t", "--replicates", "100", "--n", "4"]
    monkeypatch.setenv("NULLFORM_SEED", "99")
    from_env = run_json(capsys, argv)
    assert from_env["results"]["seed"] == 99
    monkeypatch.delenv("NULLFORM_SEED")
    default = run_json(capsys, argv)
    assert default["results"]["seed"] == 0
    explicit = run_json(capsys, [*argv, "--seed", "99"])
    assert explicit["results"]["reject_rate_trad"] == from_env["results"]["reject_rate_trad"]


def test_simulate_reports_ks_only_under_the_null(capsys):
    base = ["simulate", "--scenario", "f", "--replicates", "500", "--n", "8",
            "--p1", "2", "--p2", "1", "--seed", "3"]
    null_run = run_json(capsys, base)
    assert "ks_statistic" in null_run["results"]
    assert null_run["decisions"]["forms_agree_everywhere"] is True
    power_run = run_json(capsys, [*base, "--effect", "1.5"])
    assert "ks_statistic" not in power_run["results"]
    assert power_run["results"]["reject_rate_trad"] > null_run["results"]["reject_rate_trad"]


def test_plot_writes_svg(capsys, reg_csv, tmp_path):
    out = tmp_path / "panels.svg"
    payload = run_json(
        capsys,
        ["plot", "--input", reg_csv, "--response", "y", "--predictors", "x1",
         "--label-column", "name", "--out", str(out)],
    )
    assert payload["results"]["labeled_outliers"] == ["d"]
    doc = out.read_text(encoding="utf-8")
    ET.fromstring(doc)
    assert doc.count('fill="#b83232">d</text>') == 4


def test_json_output_is_byte_deterministic(capsys, reg_csv, tmp_path):
    argv = ["outliers", "--input", reg_csv, "--response", "y",
            "--label-column", "name", "--json"]
    assert run_command(argv) == 0
    first = capsys.readouterr().out
    assert run_command(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = AnalysisReport.from_json(first)
    assert report.to_json() == first


# Apart from the spike "<top%d&co>", the rows lie on y = 1 + 2 x1.  Row "lev&1"
# is the only row with d = 1, so its leverage is 1 and it is flagged.  Rows
# "zero" and "c0" sit where their hat value with the spike is 0, so the fit
# leaves them on the line: their residuals are rounding dust and they are not
# tested.  Without the spike the other rows fit exactly, so its studentized
# residual is infinite.  At alpha 0.5 the outliers are "R&D" and the spike.
STATES_CSV = (
    "name,y,x1,d\n"
    "lev&1,3.5,2,1\n"
    "c0,1,0,0\n"
    "c1,3,1,0\n"
    "<c2>,5,2,0\n"
    "c3,7,3,0\n"
    "R&D,9,4,0\n"
    "zero,1,0,0\n"
    "<top%d&co>,13,3,0\n"
)

# sha256 of the stdout of each command, with --json and without, and of the
# plot's SVG.  The human table prints results in insertion order, so these
# also pin the key order of every results record.
GOLDEN_ARGV = {
    "ttest": ["ttest", "--input", "tiny.csv", "--mu0", "0"],
    "ttest-boundary": ["ttest", "--input", "const.csv", "--mu0", "0"],
    "proptest": ["proptest", "--successes", "60", "--n", "100", "--p0", "0.5"],
    "proptest-less": ["proptest", "--successes", "60", "--n", "100", "--p0", "0.5",
                      "--alternative", "less"],
    "proptest-greater": ["proptest", "--successes", "60", "--n", "100", "--p0", "0.5",
                         "--alternative", "greater"],
    "ftest": ["ftest", "--input", "reg.csv", "--response", "y", "--full-cols", "x1",
              "--intercept", "--label-column", "name"],
    "outliers": ["outliers", "--input", "reg.csv", "--response", "y",
                 "--label-column", "name"],
    "simulate-t": ["simulate", "--scenario", "t", "--replicates", "300", "--n", "6",
                   "--seed", "5"],
    "simulate-f": ["simulate", "--scenario", "f", "--replicates", "300", "--n", "8",
                   "--p1", "2", "--p2", "1", "--seed", "5"],
    "simulate-proportion": ["simulate", "--scenario", "proportion", "--replicates",
                            "300", "--n", "20", "--p0", "0.3", "--seed", "5"],
    "plot": ["plot", "--input", "reg.csv", "--response", "y", "--predictors", "x1",
             "--label-column", "name", "--out", "panels.svg"],
    # more than two generator blocks of 2^16 cells, with a short last block
    "simulate-t-blocks": ["simulate", "--scenario", "t", "--replicates", "13200", "--n", "10",
                          "--seed", "5"],
    "simulate-f-blocks": ["simulate", "--scenario", "f", "--replicates", "9000", "--n", "16",
                          "--p1", "2", "--p2", "2", "--seed", "5"],
    "simulate-proportion-blocks": ["simulate", "--scenario", "proportion", "--replicates",
                                   "7000", "--n", "20", "--p0", "0.3", "--effect", "0.05",
                                   "--seed", "5"],
    # states.csv: one row of each diagnostics state, and outlier labels that
    # hold the characters SVG text and %-formatting treat specially
    "outliers-states": ["outliers", "--input", "states.csv", "--response", "y",
                        "--label-column", "name", "--alpha", "0.5"],
    "plot-states": ["plot", "--input", "states.csv", "--response", "y",
                    "--label-column", "name", "--alpha", "0.5", "--out", "panels.svg"],
}

GOLDEN_SHA256 = {
    "ftest": {
        "json": "ce8c897d9c2f00a2f63452baf656571321e9b4822b21f2ae0129bfc7cd740e0d",
        "human": "b0fce9480d94a6f1f51aa0398e4f18c65f09fd712fe8318aea751a872665928d",
    },
    "outliers": {
        "json": "71bcb7648187b2280980014b4bd599e4903067a6a2f15c43d24b4004d6c5caba",
        "human": "fa9807fad3293fd96a7ca38f54c80dbdda3686c285977c25032d464854a88085",
    },
    "outliers-states": {
        "json": "6e96b5825c7034a11437f22e9fdbc3750262d9438aa80d7bd02ba81bb79601ba",
        "human": "be91a9cf94f6dbb942a70eb5649c6a2c4aa48c048a9cf7f273df39771c69db86",
    },
    "plot": {
        "json": "e9de7a374eb1248ea0f26319e0d19a1122dc2c0f43439af0f90f5b2c9fc344d1",
        "human": "bd63ba83876d35212ebe32508bdb2707eedd7f39cc9d376d290e003f06e80568",
        "svg": "99c531c2169960f70268af9b73a79ba29625aeb29cd4ff1c29709191d95364e4",
    },
    "plot-states": {
        "json": "e45f8bdc110f6f9d0c5aa42633174dfe02f9968acf7a5f5f29f17cd361b01e63",
        "human": "f38b8b37006247a7fcff4bad1c7851132019d805b8eb8de3c3aaa3448da00f3c",
        "svg": "e703647824faf9ee33b3706d7dc0a86c9e4b6708126c6a96435a779958270d40",
    },
    "proptest": {
        "json": "8af8219f02b71f69ccceca1259440b1d4340082105ba199b71a1076b0bede23f",
        "human": "c4f2c2bf6625982f595ee65b2f25c595236ed5daecdd5973236adf953ccfa8fb",
    },
    "proptest-greater": {
        "json": "1bbd30ef22d0124614263484f46d5dd5639d3bcb45b79425daab963255311aed",
        "human": "8ce51567794ea7e64cc0f8bfaac1377e853f8a29366afe15e376eee6cfc6bc7d",
    },
    "proptest-less": {
        "json": "300a379c3056ae1a33fbc8e18e22f2746edee88dc97d285c29bde9ecae294f0f",
        "human": "21b821826737c7c82a1f2ad6d5dd08b19931481f0a4e3d5b8cfdf4aeb6caf801",
    },
    "simulate-f": {
        "json": "c906fbacb4ca4ba1e6d4024d33e1431bda2b13db9ff1cfee3a9c14b15bdf7570",
        "human": "91c97c2f7b54c6f1260d3bc7a036a589bf3704c208e52a79d75d2d6194b65569",
    },
    "simulate-f-blocks": {
        "json": "dff1d558f5b94a5e0d4259967e1ed85f9be7096d08fcbcbdc9926f24b61871c4",
        "human": "8ad4872c30867ec74d53ad4d83cab557c20a654a0ce62e184004bf5a4ed39546",
    },
    "simulate-proportion": {
        "json": "1ca3411416408a6988e0c1535ae96fc295029d5582bc8a8cf92a9dccedc46dfb",
        "human": "7b9a2ef00a5772bdd791bffa1ff27e97ddb616a88333a2824d2b82b77b2ce5f9",
    },
    "simulate-proportion-blocks": {
        "json": "cd312e96cd6af19766fb1699ec54e68717156d60504ae888a4a140fdf06d792f",
        "human": "39ba6bb3605eeb44d410074c84d0572ed163ae303c29380346e72a7f2b2c8de5",
    },
    "simulate-t": {
        "json": "5abd26cb0bfb7c7181f156d54b2a28c21d5193e233d694e37e1508988790e00f",
        "human": "ae6c3146d4d7b9cebc3d7cdf65b0de9d2d028a5b4a0a4abf7722bf9f1532e657",
    },
    "simulate-t-blocks": {
        "json": "2bba870c1d910d78289a81c352e2c2ef44f560e7899b8c166fa1925d07171b76",
        "human": "2e514e8cc83bd5a32d58dc61797d29f8b128746fb2a564f24aa66b9cc1e744f9",
    },
    "ttest": {
        "json": "008be479893662fa4cf2bac9469b9c703dd5c71907b104006f1a450be4d7c17f",
        "human": "e16df3d0c15ff68a0ba02e75dfedd5760110c561e1156b3c8af21dc25fe7aee1",
    },
    "ttest-boundary": {
        "json": "c879e69f2f8bcdbd7da240fe5ed67697d275d44dbc34487289bf4276041441a8",
        "human": "5b21627b0011eb3ee4b66e8c39faea00f3307e5322342bd9c7a9ed621b7e3e07",
    },
}


def write_golden_inputs() -> None:
    """The GOLDEN_ARGV inputs besides tiny.csv and reg.csv, in the current
    directory."""
    Path("const.csv").write_text("y\n2\n2\n2\n", encoding="utf-8")
    Path("states.csv").write_text(STATES_CSV, encoding="utf-8")


def golden_hashes(capsys, name) -> dict:
    """sha256 of the stdout of GOLDEN_ARGV[name], with --json and without, and
    of the SVG a plot writes; run in the directory of tiny.csv and reg.csv."""
    write_golden_inputs()
    got = {}
    for mode, extra in (("json", ["--json"]), ("human", [])):
        assert run_command([*GOLDEN_ARGV[name], *extra]) == 0
        got[mode] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    if GOLDEN_ARGV[name][0] == "plot":
        got["svg"] = hashlib.sha256(Path("panels.svg").read_bytes()).hexdigest()
    return got


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_stdout_bytes_pinned(capsys, monkeypatch, tiny_csv, reg_csv, name):
    # relative paths keep the command echo in the report the same in every run
    monkeypatch.chdir(Path(tiny_csv).parent)
    assert golden_hashes(capsys, name) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_report_matches_schema_and_round_trips(capsys, monkeypatch, tiny_csv, reg_csv, name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    monkeypatch.chdir(Path(tiny_csv).parent)
    write_golden_inputs()
    assert run_command([*GOLDEN_ARGV[name], "--json"]) == 0
    text = capsys.readouterr().out
    jsonschema.validate(json.loads(text), schema)
    assert AnalysisReport.from_json(text).to_json() == text


@pytest.mark.parametrize("name", ["outliers", "outliers-states"])
def test_round_trip_reads_rows_as_columns_and_builds_no_row_dict(
        capsys, monkeypatch, reg_csv, name):
    # from_json reads the diagnostics and the gap ranking back as the columns
    # tables cli builds, so to_json writes them column by column
    monkeypatch.chdir(Path(reg_csv).parent)
    write_golden_inputs()
    argv = [*GOLDEN_ARGV[name], "--json"]
    built, _ = cli_module._assemble_report(cli_module._build_parser().parse_args(argv), argv)
    assert run_command(argv) == 0
    text = capsys.readouterr().out
    again = AnalysisReport.from_json(text)
    pairs = ((again.diagnostics, built.diagnostics),
             (again.results["gap_ranking"], built.results["gap_ranking"]))
    for parsed, table in pairs:
        assert type(parsed) is _Rows and type(table) is _Rows
        assert (parsed.keys, parsed.columns, parsed.types) == (table.keys, table.columns,
                                                               table.types)

    def no_row(*args):
        raise AssertionError("a row dict was built")

    monkeypatch.setattr(_Rows, "__getitem__", no_row)
    monkeypatch.setattr(_Rows, "__iter__", no_row)
    assert AnalysisReport.from_json(text).to_json() == text


@pytest.mark.parametrize("name", ["outliers", "outliers-states", "plot", "plot-states"])
def test_diagnostics_commands_build_no_row_record(capsys, monkeypatch, reg_csv, name):
    # outliers and plot read the table's columns: a DiagnosticsRow built
    # anywhere on their path would raise here
    from nullform.diagnostics import DiagnosticsRow

    def refuse(self, *args, **kwargs):
        raise AssertionError("a DiagnosticsRow was built")

    monkeypatch.setattr(DiagnosticsRow, "__init__", refuse)
    monkeypatch.chdir(Path(reg_csv).parent)
    assert golden_hashes(capsys, name) == GOLDEN_SHA256[name]


def test_human_output_prints_infinities(capsys, tmp_path):
    # the JSON report turns +-inf into null; the human table keeps the sign
    # and prints -- only for absent or NaN values
    const = tmp_path / "const.csv"
    const.write_text("y\n2\n2\n2\n", encoding="utf-8")
    argv = ["ttest", "--input", str(const), "--mu0", "0"]
    assert run_command(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  t           inf" in lines
    assert "  r_ratio     inf" in lines
    payload = run_json(capsys, argv)
    assert payload["results"]["t"] is None and payload["results"]["r_ratio"] is None
    for successes, z_wald in ((0, "-inf"), (10, "inf")):
        assert run_command(["proptest", "--successes", str(successes), "--n", "10",
                            "--p0", "0.5"]) == 0
        assert f"  z_wald           {z_wald}" in capsys.readouterr().out.splitlines()
    # row 0 leaves an exact fit when deleted: studentized -inf, gap inf
    sat = tmp_path / "sat.csv"
    sat.write_text("y,x1,x2\n1,0.1,2\n2,1.2,1\n6,2.1,5\n3,2.9,2\n4,4.2,3\n5,5.1,4\n",
                   encoding="utf-8")
    assert run_command(["outliers", "--input", str(sat), "--response", "y"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "    0                        inf" in lines
    row = next(line for line in lines if line.startswith("     0 0 "))
    assert row.split()[-3:] == ["-inf", "0", "inf"]
    # a flagged row has NaN residual fields
    flagged = tmp_path / "flagged.csv"
    flagged.write_text("y,x1,d\n1.1,0.2,1\n1.8,1.1,0\n3.1,2.0,0\n9.0,2.9,0\n"
                       "4.9,4.1,0\n6.2,5.0,0\n", encoding="utf-8")
    assert run_command(["outliers", "--input", str(flagged), "--response", "y"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("     0 0 "))
    assert row.split()[-8:] == ["--"] * 4 + ["<-", "flagged", "(leverage", "1)"]


def test_dropped_row_warning(capsys, tmp_path):
    path = tmp_path / "gappy.csv"
    path.write_text("y\n1\n\n2\nbad\n3\n", encoding="utf-8")
    payload = run_json(capsys, ["ttest", "--input", str(path), "--mu0", "0"])
    assert payload["warnings"] == ["dropped 1 row(s) with unusable cells"]
    assert payload["results"]["n"] == 3
    assert run_command(["ttest", "--input", str(path), "--mu0", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "warning: dropped 1 row(s) with unusable cells"


def test_outliers_without_intercept_or_predictors_exits_4(capsys, tmp_path):
    path = tmp_path / "response_only.csv"
    path.write_text("y\n1\n2\n4\n3\n", encoding="utf-8")
    assert run_command(["outliers", "--input", str(path), "--response", "y",
                        "--no-intercept"]) == 4
    assert "the design needs at least one column" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["ftest", "--response", "y", "--full-cols", "x", "--json"],
    ["outliers", "--response", "y", "--predictors", "x", "--no-intercept"],
])
def test_an_all_zero_predictor_is_rank_deficient(capsys, tmp_path, command):
    path = tmp_path / "zero_x.csv"
    path.write_text("y,x\n1.2,0\n0.5,0\n2.0,0\n-1.0,0\n0.3,0\n", encoding="utf-8")
    assert run_command([*command, "--input", str(path)]) == 4
    captured = capsys.readouterr()
    assert "design matrix is rank deficient at column 'x'" in captured.err
    assert captured.out == ""


def test_a_predictor_of_order_1e11_is_tested_as_in_any_other_unit(capsys, tmp_path):
    # a currency amount: a rank threshold relative to the largest |R_jj| refused
    # the intercept beside it (exit 4); the sine of each column to the columns
    # before it does not see the unit, so the scaled copy reads the same
    rng = random.Random(31)
    x = [round(rng.uniform(1.0, 5.0) * 1e11, 2) for _ in range(20)]
    y = [1.5 + 4e-11 * v + rng.gauss(0.0, 1.0) for v in x]
    y[7] += 6.0
    reports = []
    for scale in (1.0, 2.0 ** -37):
        path = tmp_path / f"amount{scale!r}.csv"
        path.write_text("y,x\n" + "".join(f"{a!r},{b * scale!r}\n" for a, b in zip(y, x)),
                        encoding="utf-8")
        common = ["--input", str(path), "--response", "y"]
        svg = tmp_path / "amount.svg"
        reports.append([
            run_json(capsys, ["ftest", *common, "--intercept", "--full-cols", "x"]),
            run_json(capsys, ["outliers", *common, "--predictors", "x"]),
            run_json(capsys, ["plot", *common, "--predictors", "x", "--out", str(svg)]),
            svg.read_bytes(),
        ])
    for report in (*reports[0][:3], *reports[1][:3]):
        del report["command"], report["input_digest"]
    # one predictor: F_null = (n - 1) cos^2 of the centred y and x
    dx = [v - math.fsum(x) / 20 for v in x]
    dy = [v - math.fsum(y) / 20 for v in y]
    cos2 = math.fsum(a * b for a, b in zip(dx, dy)) ** 2 / (
        math.fsum(a * a for a in dx) * math.fsum(b * b for b in dy))
    assert reports[0][0]["results"]["f_null"] == pytest.approx(19 * cos2, rel=1e-9)
    assert reports[0][1]["diagnostics"] and reports[0][:3] == reports[1][:3]
    assert reports[0][3] == reports[1][3]


REG_ROWS = [("a", 1.1, 0.2), ("b", 1.8, 1.1), ("c", 3.1, 2.0), ("d", 9.0, 2.9),
            ("e", 4.9, 4.1), ("f", 6.2, 5.0), ("g", 7.1, 6.2)]


def reg_with_z(tmp_path, z_cells):
    """reg_csv plus a column z that no command below uses."""
    path = tmp_path / "reg_z.csv"
    lines = ["name,y,x1,z"]
    lines += [f"{name},{y},{x},{z}" for (name, y, x), z in zip(REG_ROWS, z_cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def used_column_commands(path, out):
    common = ["--input", path, "--label-column", "name"]
    return {
        "ttest": ["ttest", *common, "--column", "y", "--mu0", "4"],
        "ftest": ["ftest", *common, "--response", "y", "--full-cols", "x1", "--intercept"],
        "outliers": ["outliers", *common, "--response", "y", "--predictors", "x1"],
        "plot": ["plot", *common, "--response", "y", "--predictors", "x1", "--out", out],
    }


@pytest.mark.parametrize("command", ["ttest", "ftest", "outliers", "plot"])
def test_blank_in_unused_column_drops_no_row(capsys, tmp_path, command):
    path = reg_with_z(tmp_path, ["1", "", "3", "abc", "5", "nan", "7"])
    payload = run_json(capsys, used_column_commands(path, str(tmp_path / "p.svg"))[command])
    assert payload["results"]["n"] == 7
    assert payload["warnings"] == []


def test_ttest_without_column_ingests_only_the_first_column(capsys, tmp_path):
    # the blank in b dropped its row while the default read every column
    path = tmp_path / "ab.csv"
    path.write_text("a,b\n1,2\n2,\n3,4\n5,6\n", encoding="utf-8")
    argv = ["ttest", "--input", str(path), "--mu0", "0"]
    default = run_json(capsys, argv)
    named = run_json(capsys, [*argv, "--column", "a"])
    assert default["results"]["n"] == 4 and default["results"]["mean"] == 2.75
    assert default["warnings"] == []
    assert default["results"] == named["results"]
    # the first column is the first one other than the label column, and a
    # --log-columns column is still ingested, so its blank drops its row
    path.write_text("name,a,b\nw,1,2\nx,2,\ny,3,4\nz,5,6\n", encoding="utf-8")
    argv = [*argv, "--label-column", "name"]
    assert run_json(capsys, argv)["results"]["n"] == 4
    logged = run_json(capsys, [*argv, "--log-columns", "b"])
    assert logged["results"]["column"] == "a" and logged["results"]["n"] == 3
    # a file holding only the label column has no first column
    path.write_text("name\nw\nx\n", encoding="utf-8")
    assert run_command(argv) == 3
    assert "no column at position 0" in capsys.readouterr().err


def test_bom_file(capsys, tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x\n1,1\n2,1\n4,1\n")
    payload = run_json(capsys, ["ttest", "--input", str(path), "--column", "y", "--mu0", "0"])
    assert payload["results"]["n"] == 3


def test_log_column_outside_the_used_columns(capsys, tmp_path):
    argv = ["ttest", "--column", "y", "--mu0", "4", "--label-column", "name",
            "--log-columns", "z", "--input"]
    payload = run_json(capsys, [*argv, reg_with_z(tmp_path, ["1", "2", "", "4", "5", "6", "7"])])
    # z is ingested for its transform, so its blank still drops its row
    assert payload["results"]["n"] == 6
    assert run_command([*argv, reg_with_z(tmp_path, ["1", "2", "3", "-4", "5", "6", "7"])]) == 3
    assert "non-positive value -4.0 at row 4, column 'z'" in capsys.readouterr().err


def test_used_column_ingest_matches_every_column_ingest(capsys, tmp_path, monkeypatch):
    """On a file without unusable cells, ingesting only the used columns
    changes no output byte against ingesting every column."""
    path = reg_with_z(tmp_path, ["1", "2", "3", "4", "5", "6", "7"])
    out = tmp_path / "p.svg"

    def outputs():
        texts = []
        for argv in used_column_commands(path, str(out)).values():
            assert run_command([*argv, "--json"]) == 0
            texts.append(capsys.readouterr().out)
        return texts, out.read_bytes()

    used = outputs()
    every = cli_module.ingest_csv
    monkeypatch.setattr(
        cli_module, "ingest_csv", lambda *a, **kw: every(*a, **{**kw, "columns": ()})
    )
    assert outputs() == used


def test_exit_code_usage():
    assert run_command(["nonsense"]) == 2
    assert run_command(["ttest"]) == 2
    assert run_command([]) == 2


def test_exit_code_data(capsys, tmp_path):
    assert run_command(["ttest", "--input", str(tmp_path / "nope.csv"), "--mu0", "0"]) == 3
    assert "error:" in capsys.readouterr().err
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"y\n1\n\xff3\n")
    assert run_command(["ttest", "--input", str(latin), "--mu0", "0"]) == 3
    assert "can't decode byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_exit_code_data_for_a_delimiter_that_is_not_one_character(capsys, tiny_csv, delimiter):
    assert run_command(["ttest", "--input", tiny_csv, "--mu0", "0",
                        "--delimiter", delimiter]) == 3
    assert "delimiter must be one character" in capsys.readouterr().err


@pytest.mark.parametrize("quote", ["", '"'])
def test_exit_code_data_for_an_over_long_field(capsys, tmp_path, quote):
    # longer than the csv module's default field size limit of 131072
    path = tmp_path / "long.csv"
    path.write_text(f"name,y\n{quote}{'a' * 140_000}{quote},1\nb,2\nc,3\n",
                    encoding="utf-8")
    assert run_command(["ttest", "--input", str(path), "--label-column", "name",
                        "--column", "y", "--mu0", "0"]) == 3
    err = capsys.readouterr().err
    assert f"cannot parse {path}" in err
    assert "field larger than field limit" in err


def test_non_integer_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("NULLFORM_SEED", "abc")
    argv = ["simulate", "--scenario", "t", "--replicates", "10", "--n", "5"]
    assert run_command(argv) == 4
    assert "NULLFORM_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    # the flag overrides the environment
    assert run_command([*argv, "--seed", "3"]) == 0


def test_exit_code_numeric(capsys, tiny_csv, tmp_path):
    assert run_command(["ttest", "--input", tiny_csv, "--mu0", "0", "--alpha", "2"]) == 4
    # alpha is checked before the input is read
    assert run_command(
        ["ttest", "--input", str(tmp_path / "nope.csv"), "--mu0", "0", "--alpha", "2"]
    ) == 4
    assert run_command(
        ["proptest", "--successes", "5", "--n", "10", "--p0", "0"]
    ) == 4
    # constant response: the intercept alone already fits it exactly, so the
    # F-test denominator is empty and the request is a domain error
    const = tmp_path / "const.csv"
    const.write_text("y,x\n5,1\n5,2\n5,3\n5,4\n", encoding="utf-8")
    assert run_command(
        ["ftest", "--input", str(const), "--response", "y",
         "--full-cols", "x", "--intercept"]
    ) == 4


@pytest.mark.parametrize("command", ["ttest", "ttest_mu0", "ftest", "outliers", "plot",
                                     "ttest_1e-320", "ttest_1e-160", "ftest_1e-170",
                                     "outliers_1e-170"])
def test_an_overflowing_sum_of_squares_exits_4(capsys, tmp_path, command):
    path = tmp_path / "huge.csv"
    path.write_text("y,x\n1e200,1\n-1e200,2\n3,3\n4,5\n", encoding="utf-8")
    small = tmp_path / "small.csv"
    small.write_text("y,x\n1,1\n2,2\n4,3\n3,5\n", encoding="utf-8")
    # sums of squares that underflow: 1e-320 squares to 0, 1e-160 to a subnormal
    tiny = {}
    for scale in ("1e-320", "1e-160", "1e-170"):
        tiny[scale] = tmp_path / f"tiny{scale}.csv"
        tiny[scale].write_text(
            "y,x\n" + "".join(f"{v}{scale[1:]},{v + 1}\n" for v in (1, 2, 4, 3)),
            encoding="utf-8")
    argv = {
        "ttest": ["ttest", "--input", str(path), "--column", "y", "--mu0", "0"],
        "ttest_mu0": ["ttest", "--input", str(small), "--column", "y", "--mu0", "1e308"],
        "ftest": ["ftest", "--input", str(path), "--response", "y", "--intercept",
                  "--full-cols", "x"],
        "outliers": ["outliers", "--input", str(path), "--response", "y"],
        "plot": ["plot", "--input", str(path), "--response", "y",
                 "--out", str(tmp_path / "p.svg")],
        "ttest_1e-320": ["ttest", "--input", str(tiny["1e-320"]), "--column", "y",
                         "--mu0", "0"],
        "ttest_1e-160": ["ttest", "--input", str(tiny["1e-160"]), "--column", "y",
                         "--mu0", "0"],
        "ftest_1e-170": ["ftest", "--input", str(tiny["1e-170"]), "--response", "y",
                         "--intercept", "--full-cols", "x"],
        "outliers_1e-170": ["outliers", "--input", str(tiny["1e-170"]), "--response", "y"],
    }[command]
    assert run_command(argv) == 4
    captured = capsys.readouterr()
    flow = "underflow" if "_1e-" in command else "overflow"
    assert flow in captured.err and "double precision" in captured.err
    assert captured.out == ""


def test_a_repeated_log_column_takes_the_log_once(capsys, tmp_path):
    path = tmp_path / "pos.csv"
    path.write_text("y\n5\n6\n7\n9\n", encoding="utf-8")
    argv = ["ttest", "--input", str(path), "--column", "y", "--mu0", "0", "--log-columns"]
    twice = run_json(capsys, [*argv, "y,y"])["results"]
    assert twice == run_json(capsys, [*argv, "y"])["results"]
    assert twice["mean"] == pytest.approx(math.fsum(map(math.log, (5, 6, 7, 9))) / 4)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_exits_1_without_a_traceback(tmp_path, unbuffered):
    path = tmp_path / "tall.csv"
    path.write_text("y,x\n" + "".join(f"{(i * 7919) % 1000 / 10},{i}\n" for i in range(2000)),
                    encoding="utf-8")
    # unbuffered, stdout's text layer sits on the raw file and would ignore
    # the short write before the closed pipe; main must still exit 1
    env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "nullform", "outliers", "--json", "--input", str(path),
         "--response", "y"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    # the report is several times the pipe buffer: the writer is still
    # writing when the pipe closes
    assert proc.stdout.read(16).startswith(b"{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_reduced_must_be_prefix(capsys, reg_csv):
    rc = run_command(
        ["ftest", "--input", reg_csv, "--response", "y",
         "--full-cols", "x1", "--reduced-cols", "y"]
    )
    assert rc == 4
    assert "prefix" in capsys.readouterr().err


@pytest.mark.parametrize("full, reduced", [("x1", "x1"), ("", "")], ids=["equal", "empty"])
def test_reduced_must_leave_a_column_to_test(capsys, reg_csv, full, reduced):
    rc = run_command(["ftest", "--input", reg_csv, "--response", "y", "--intercept",
                      "--full-cols", full, "--reduced-cols", reduced])
    assert rc == 4
    err = capsys.readouterr().err
    assert "--reduced-cols must be a proper prefix of --full-cols" in err


def test_module_entry_point(tiny_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "nullform", "ttest", "--input", tiny_csv,
         "--mu0", "0", "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["test"] == "ttest"


# Cold start: a fresh `python -m nullform` imports only what its command runs.

SRC = Path(__file__).resolve().parents[1] / "src"
TRACING_PATH = Path(__file__).resolve().parents[1] / "nullbench" / "tracing.py"


def fresh_env():
    # COLUMNS pins argparse's help width in and out of process
    return {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


def run_fresh(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# argv[1]: comma-separated modules to look for; argv[2:]: the command, if any
LOADED_AFTER = """
import contextlib, io, json, sys
import nullform
if sys.argv[2:]:
    from nullform import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_command(sys.argv[2:]) == 0
print(json.dumps(sorted(set(sys.argv[1].split(",")) & set(sys.modules))))
"""

NUMPY_MODULES = ("numpy", "nullform.diagnostics", "nullform.linmodel",
                 "nullform.montecarlo", "nullform.svgplot")
# the test extras: no command may need them, as a plain install lacks them
TEST_MODULES = ("scipy", "hypothesis", "jsonschema", "mpmath", "pytest")


@pytest.mark.parametrize("argv, absent", [
    ((), NUMPY_MODULES),
    (("proptest", "--successes", "7", "--n", "20", "--p0", "0.5", "--json"), NUMPY_MODULES),
    (("ttest", "--input", "{reg}", "--mu0", "1", "--column", "y", "--json"), NUMPY_MODULES),
    (("ttest", "--input", "{tiny}", "--mu0", "1"), NUMPY_MODULES),
    (("ftest", "--input", "{reg}", "--response", "y", "--full-cols", "x1", "--json"),
     ("nullform.montecarlo", "nullform.svgplot")),
    (("ftest", "--input", "{reg}", "--response", "y", "--full-cols", "x1",
      "--reduced-cols", "", "--intercept"), TEST_MODULES),
    (("outliers", "--input", "{reg}", "--response", "y", "--predictors", "x1", "--json"),
     TEST_MODULES),
    (("simulate", "--scenario", "f", "--replicates", "50", "--n", "8", "--seed", "1",
      "--json"), TEST_MODULES),
    (("plot", "--input", "{reg}", "--label-column", "name", "--response", "y",
      "--out", "{out}"), TEST_MODULES),
], ids=["import", "proptest", "ttest-column", "ttest-first-column", "ftest",
        "ftest-extras", "outliers-extras", "simulate-extras", "plot-extras"])
def test_cold_path_imports_only_what_it_runs(reg_csv, tiny_csv, tmp_path, argv, absent):
    out = tmp_path / "plot.svg"
    argv = [a.format(reg=reg_csv, tiny=tiny_csv, out=out) for a in argv]
    assert run_fresh(LOADED_AFTER, ",".join(absent), *argv) == []


@pytest.fixture
def cold_csv(tmp_path):
    # 40 rows as in the benchmark's cold workload: a label column, three
    # predictors, one high-leverage row and one planted outlier
    lines = ["label,y,x1,x2,x3"]
    for i in range(40):
        x1, x2, x3 = math.sin(1.3 * i), math.cos(0.7 * i), ((i * 7) % 11) / 5.0
        y = 2.0 + 0.8 * x1 + 0.3 * (x2 + x3) + 0.5 * math.sin(3.1 * i + 1.0)
        if i == 0:
            x1, y = 8.0, 8.4
        if i == 17:
            y += 6.0
        lines.append(f"obs{i:05d},{y!r},{x1!r},{x2!r},{x3!r}")
    path = tmp_path / "small.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cold_cycle(path, svg):
    regression = ["--input", path, "--label-column", "label", "--response", "y"]
    return [
        ["ttest", "--input", path, "--label-column", "label", "--column", "y",
         "--mu0", "2.5", "--json"],
        ["proptest", "--successes", "131", "--n", "240", "--p0", "0.5", "--json"],
        ["ftest", *regression, "--full-cols", "x1,x2,x3", "--reduced-cols", "x1",
         "--intercept", "--json"],
        ["outliers", *regression, "--predictors", "x1,x2,x3", "--json"],
        ["simulate", "--scenario", "t", "--replicates", "2000", "--n", "10",
         "--seed", "987654321", "--json"],
        ["plot", *regression, "--predictors", "x1,x2,x3", "--out", svg, "--json"],
        ["--help"],
        *([name, "--help"] for name in ("ttest", "proptest", "ftest", "outliers",
                                        "plot", "simulate")),
    ]


def test_cold_process_matches_warm_in_process_bytes(capsys, monkeypatch, cold_csv, tmp_path):
    # every module imported up front, as the in-process workloads have them
    from nullform import diagnostics, linmodel, montecarlo, svgplot

    monkeypatch.setenv("COLUMNS", "80")
    svg = tmp_path / "residuals.svg"
    for argv in cold_cycle(cold_csv, str(svg)):
        cold = subprocess.run([sys.executable, "-m", "nullform", *argv], env=fresh_env(),
                              capture_output=True, timeout=120)
        assert cold.returncode == 0, cold.stderr.decode()
        cold_svg = svg.read_bytes() if "--out" in argv else b""
        assert run_command(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == cold.stdout, argv
        if cold_svg:
            assert svg.read_bytes() == cold_svg
    # the last command was `simulate --help`
    assert "--scenario {f,proportion,t}" in cold.stdout.decode()


def test_the_one_parser_carries_no_state_between_calls(capsys, monkeypatch, cold_csv):
    # each step runs in process, after the step before it, and in a fresh
    # process: a value or error left by one parse would show in the next
    monkeypatch.setenv("COLUMNS", "80")
    ttest = ["ttest", "--input", cold_csv, "--label-column", "label", "--mu0", "0", "--json"]
    simulate = ["simulate", "--scenario", "t", "--replicates", "200", "--n", "6", "--json"]
    steps = [
        ({}, [*ttest, "--column", "x2"]),
        ({}, ttest),
        ({}, [*simulate, "--seed", "5"]),
        ({"NULLFORM_SEED": "11"}, simulate),
        ({}, ["ftest", "--input", cold_csv, "--response"]),
        ({}, ["ftest", "--input", cold_csv, "--response", "y", "--full-cols", "x1", "--json"]),
    ]
    parser = cli_module._build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    codes = []
    for env, argv in steps:
        cold = subprocess.run([sys.executable, "-m", "nullform", *argv],
                              env={**fresh_env(), **env}, capture_output=True,
                              text=True, timeout=120)
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            codes.append(run_command(argv))
        out = capsys.readouterr()
        assert (codes[-1], out.out, out.err) == (cold.returncode, cold.stdout, cold.stderr), argv
        if "--seed" not in argv and argv[0] == "simulate":
            assert json.loads(out.out)["results"]["seed"] == 11
    assert codes == [0, 0, 0, 0, 2, 0]
    assert cli_module._build_parser() is parser
    assert built == []


# Runs one ftest under the benchmark's tracer in a fresh process, then one
# untraced ftest after `uninstall`.
TRACED_FRESH = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("nullbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from nullform import (cli, dataio, diagnostics, linmodel, montecarlo,
                      proportion, report, specfun, svgplot, ttest)
modules = {m.__name__.rsplit(".", 1)[1]: m for m in
           (cli, dataio, diagnostics, linmodel, montecarlo, proportion,
            report, specfun, svgplot, ttest)}
argv = sys.argv[2:]
tracer = tracing.Tracer(modules)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        assert tracer.run_op(0, lambda: tracer.run_command(argv)) == 0
    finally:
        tracer.uninstall()
    traced = len(tracer.spans)
    assert cli.run_command(argv) == 0
counts = tracing.counts_by_command(tracer.spans, {0: "ftest"})["ftest"]
print(json.dumps({"fit": counts["fit"], "nested_f_test": counts["nested_f_test"],
                  "untraced_spans": len(tracer.spans) - traced,
                  "slot_restored": cli.nested_f_test is None}))
"""


def test_tracer_in_a_fresh_process_counts_once_and_uninstalls(reg_csv):
    argv = ["ftest", "--input", reg_csv, "--response", "y", "--full-cols", "x1",
            "--intercept", "--json"]
    out = run_fresh(TRACED_FRESH, str(TRACING_PATH), *argv)
    assert out["fit"] == [0]
    assert out["nested_f_test"] == [1]
    # cli's slot held None before install, and uninstall put None back
    assert out["slot_restored"]
    assert out["untraced_spans"] == 0

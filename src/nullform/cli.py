"""Command-line surface.

Subcommands: ttest, proptest, ftest, outliers, simulate, plot.  Human output
prints statistics at 7 significant digits; --json prints the full-precision
AnalysisReport.  Every test report carries both statistic forms and both
p-value routes.

Exit codes: 0 success, 1 output pipe closed by the reader, 2 usage error,
3 data/input error (DataError or OSError), 4 any other NullformError
(numeric or domain).  The default simulation seed comes from the
NULLFORM_SEED environment variable when the flag is absent.

One parser per process: `_build_parser` is cached, and each parse gets a fresh
Namespace.  Three add_help=False parents declare each shared option once:
common (--alpha, --json), data (common + the input options) and regression
(data + --response, --predictors, --no-intercept).  Each subcommand names its
parent and binds its handler with `set_defaults(run=_cmd_*)`.

Every report is assembled in `_assemble_report`: it checks alpha before any
command runs, takes the payload `args.run(args, alpha)` returns (results,
decisions, dataset or None, the diagnostics as a columns table or None), and
adds the command echo, the input digest and the dropped-row warning.

Import rule: this module imports only the numpy-free modules (dataio,
errors, proportion, report, sample, specfun, ttest).  linmodel, diagnostics,
montecarlo and svgplot load numpy, so each command imports the ones it uses
when it runs and calls their functions through the module: ttest and
proptest never load numpy, and ftest loads neither montecarlo nor svgplot.
The ten names the benchmark tracer rebinds here are slots bound to None.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import compress
from typing import TYPE_CHECKING

from .dataio import Dataset, ingest_csv
from .errors import DataError, DomainError, NullformError
from .proportion import ProportionData, proportion_test
from .report import AnalysisReport, _Rows
from .sample import Sample
from .specfun import std_normal_cdf
from .ttest import _t_triangle, t_test

if TYPE_CHECKING:
    from .linmodel import DesignMatrix

__all__ = ["run_command", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Slots nullbench/tracing.py rebinds while it traces an op.  Not imports: binding
# the real functions would load numpy on the ttest/proptest path.
(file_digest, geometry, fit, nested_f_test, f_geometry, residual_diagnostics,
 residual_gaps, simulate_size_power, null_law_check, emit_residual_plots) = (None,) * 10


# --scenario choice -> montecarlo.Scenario value
_SCENARIOS = {"t": "one_sample_t", "f": "nested_f", "proportion": "proportion"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=0.05,
                        help="test level (default 0.05)")
    common.add_argument("--json", action="store_true",
                        help="print the JSON report instead of the human table")
    data = argparse.ArgumentParser(add_help=False, parents=[common])
    data.add_argument("--input", required=True, help="CSV file to analyze")
    data.add_argument("--delimiter", default=",", help="CSV delimiter")
    data.add_argument("--no-header", action="store_true",
                      help="file has no header row; columns are col0, col1, ...")
    data.add_argument("--log-columns", default="",
                      help="comma-separated columns to natural-log transform")
    data.add_argument("--label-column", default=None,
                      help="text column holding observation identifiers")
    regression = argparse.ArgumentParser(add_help=False, parents=[data])
    regression.add_argument("--response", required=True)
    regression.add_argument("--predictors", default="",
                            help="comma-separated predictor columns (default: all "
                                 "others; leaving it out ingests every column)")
    regression.add_argument("--no-intercept", action="store_true",
                            help="do not prepend a constant column")

    parser = argparse.ArgumentParser(
        prog="nullform",
        description=(
            "Classical tests in traditional and null-variance forms, with "
            "regression outlier diagnostics and equivalence checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ttest", parents=[data],
                       help="one-sample location test, both forms")
    p.set_defaults(run=_cmd_ttest)
    p.add_argument("--mu0", type=float, required=True, help="hypothesized mean")
    p.add_argument("--column", default=None,
                   help="response column (default: the first column other than "
                        "--label-column)")

    p = sub.add_parser("proptest", parents=[common],
                       help="one-sample proportion test, both forms")
    p.set_defaults(run=_cmd_proptest)
    p.add_argument("--successes", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p0", type=float, required=True, help="hypothesized proportion")
    p.add_argument("--alternative", choices=("two-sided", "less", "greater"),
                   default="two-sided")

    p = sub.add_parser("ftest", parents=[data],
                       help="nested linear model F-test, both forms")
    p.set_defaults(run=_cmd_ftest)
    p.add_argument("--response", required=True, help="response column")
    p.add_argument("--full-cols", required=True,
                   help="comma-separated predictor columns of the full model")
    p.add_argument("--reduced-cols", default="",
                   help="comma-separated prefix of --full-cols kept under H0")
    p.add_argument("--intercept", action="store_true",
                   help="prepend a constant column to both models")

    sub.add_parser("outliers", parents=[regression],
                   help="per-observation outlier diagnostics").set_defaults(run=_cmd_outliers)

    p = sub.add_parser("simulate", parents=[common],
                       help="size/power and null-law simulation")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--scenario", choices=sorted(_SCENARIOS), required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="per-replicate sample size")
    p.add_argument("--effect", type=float, default=0.0)
    p.add_argument("--p1", type=int, default=1, help="reduced model columns (f scenario)")
    p.add_argument("--p2", type=int, default=1, help="tested block columns (f scenario)")
    p.add_argument("--p0", type=float, default=0.5, help="null proportion (proportion scenario)")
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed (default: NULLFORM_SEED or 0)")

    p = sub.add_parser("plot", parents=[regression],
                       help="residual diagnostic panels as SVG")
    p.set_defaults(run=_cmd_plot)
    p.add_argument("--out", required=True, help="output SVG path")
    return parser


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_dataset(args: argparse.Namespace, used: tuple[str | int, ...] = ()) -> Dataset:
    """Ingest the columns a command uses plus any --log-columns, so a blank in
    another column drops no row; a column in `used` is a name or a position
    among the non-label columns, and empty `used` ingests every column."""
    log_columns = tuple(_split_list(args.log_columns))
    columns: tuple[str | int, ...] = ()
    if used:
        columns = tuple(n for n in (*used, *log_columns) if n != args.label_column)
    return ingest_csv(
        args.input,
        delimiter=args.delimiter,
        header=not args.no_header,
        columns=columns,
        log_columns=log_columns,
        label_column=args.label_column,
    )


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def _design_from(
    dataset: Dataset, predictor_names: list[str], intercept: bool
) -> DesignMatrix:
    from . import linmodel

    columns: list[tuple[float, ...]] = []
    labels: list[str] = []
    if intercept:
        columns.append((1.0,) * dataset.n_rows)
        labels.append("const")
    for name in predictor_names:
        columns.append(dataset.column(name))
        labels.append(name)
    if not columns:
        raise DomainError("the design needs at least one column")
    return linmodel.DesignMatrix.from_columns(columns, labels)


def _cmd_ttest(args, alpha: float):
    # without --column the first non-label column, by position, and no other
    dataset = _load_dataset(args, (args.column or 0,))
    column = args.column or dataset.column_names[0]
    sample = Sample(dataset.column(column))
    res = t_test(sample, args.mu0)
    results = {"n": sample.n, "column": column, **vars(res)}
    if not res.degenerate:
        results["theta"] = _t_triangle(res).theta
    decisions = {
        "reject_traditional": res.p_value_t <= alpha,
        "reject_null_form": res.p_value_t0 <= alpha,
    }
    return results, decisions, dataset, None


def _cmd_proptest(args, alpha: float):
    res = proportion_test(ProportionData(args.successes, args.n), args.p0, alpha)
    if args.alternative == "two-sided":
        p_null, p_wald = res.p_value_null, res.p_value_wald
    else:
        # a degenerate Wald z is signed infinity, whose cdf is exactly 0 or 1
        sign = 1.0 if args.alternative == "less" else -1.0
        p_null, p_wald = std_normal_cdf(sign * res.z_null), std_normal_cdf(sign * res.z_wald)
    results = {
        "successes": args.successes, "n": args.n, "p0": args.p0,
        "p_hat": res.p_hat, "z_null": res.z_null, "z_wald": res.z_wald,
        "p_value_null": p_null, "p_value_wald": p_wald,
        "ci_lower": res.ci_lower, "ci_upper": res.ci_upper,
        "alternative": args.alternative, "wald_degenerate": res.wald_degenerate,
    }
    decisions = {
        "reject_null_variance_form": p_null <= alpha,
        "reject_wald_form": p_wald <= alpha,
    }
    return results, decisions, None, None


def _cmd_ftest(args, alpha: float):
    from . import linmodel

    full_names = _split_list(args.full_cols)
    reduced_names = _split_list(args.reduced_cols)
    if full_names[: len(reduced_names)] != reduced_names or reduced_names == full_names:
        raise DomainError(
            "--reduced-cols must be a proper prefix of --full-cols "
            f"(got {reduced_names} vs {full_names})"
        )
    dataset = _load_dataset(args, (args.response, *full_names))
    design = _design_from(dataset, full_names, args.intercept)
    p1 = len(reduced_names) + (1 if args.intercept else 0)
    spec = linmodel.NestedSpec(design, p1=p1)
    y = Sample(dataset.column(args.response))
    res = linmodel.nested_f_test(spec, y)
    geo = linmodel._f_triangle(res)
    n, rp1, p2 = res.dims
    results = {
        "response": args.response, "full_columns": design.labels,
        "n": n, "p1": rp1, "p2": p2,
        **{k: v for k, v in vars(res).items() if k != "dims"},
        "theta": geo.theta, "side_a": geo.a, "side_b": geo.b, "side_c": geo.c,
    }
    decisions = {
        "reject_traditional": res.p_value_f <= alpha,
        "reject_null_form": res.p_value_beta <= alpha,
    }
    return results, decisions, dataset, None


def _diagnostics_payload(args, alpha: float):
    """Shared by outliers and plot: dataset, design, table, row labels and the
    labels of the rows that test as outliers at level alpha."""
    from . import diagnostics

    predictor_names = _split_list(args.predictors)
    used = (args.response, *predictor_names) if predictor_names else ()
    dataset = _load_dataset(args, used)
    if not predictor_names:
        predictor_names = [n for n in dataset.column_names if n != args.response]
    design = _design_from(dataset, predictor_names, not args.no_intercept)
    table = diagnostics.residual_diagnostics(design, Sample(dataset.column(args.response)))
    labels = dataset.row_labels or tuple(str(i) for i in range(table.n))
    outliers = list(compress(labels, table.outliers(alpha).tolist()))
    return dataset, design, table, labels, outliers


def _cmd_outliers(args, alpha: float):
    from . import diagnostics

    dataset, design, table, labels, outliers = _diagnostics_payload(args, alpha)
    ranking = diagnostics.residual_gaps(table)
    results = {
        "response": args.response, "design_columns": design.labels,
        "n": table.n, "p": table.p, "outlier_df": table.n - table.p - 1,
        "outliers": outliers,
        "gap_ranking": _Rows({"label": [labels[i] for i, _ in ranking],
                              "gap": [g for _, g in ranking]}),
    }
    # the row label plus the DiagnosticsRow fields, as the table's columns; a
    # flagged row's undefined fields stay NaN, which the report writes as null
    # and the human table prints as --
    names = ("label", "index", *table.COLUMNS, "flagged")
    columns = (labels, range(table.n), *(getattr(table, name).tolist() for name in table.COLUMNS),
               table.flagged.tolist())
    return results, {"any_outlier": bool(outliers)}, dataset, _Rows(zip(names, columns))


def _cmd_simulate(args, alpha: float):
    from . import montecarlo

    seed = args.seed
    if seed is None:
        text = os.environ.get("NULLFORM_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise DomainError(f"NULLFORM_SEED must be an integer, got {text!r}") from None
    scenario = montecarlo.Scenario(_SCENARIOS[args.scenario])
    cfg = montecarlo.SimConfig(
        replicates=args.replicates, seed=seed, n=args.n, scenario=scenario,
        effect=args.effect, alpha=alpha, p1=args.p1, p2=args.p2, p0=args.p0,
    )
    res = montecarlo.simulate_size_power(cfg)
    results = {
        "scenario": scenario.value, "replicates": cfg.replicates, "n": cfg.n,
        "effect": cfg.effect, "seed": seed,
        "reject_rate_trad": res.reject_rate_trad,
        "reject_rate_null": res.reject_rate_null,
        "disagreements": res.disagreements,
    }
    if scenario is montecarlo.Scenario.NESTED_F:
        results["p1"], results["p2"] = cfg.p1, cfg.p2
    if scenario is montecarlo.Scenario.PROPORTION:
        results["p0"] = cfg.p0
    if res.ks_statistic is not None:
        results["ks_statistic"] = res.ks_statistic
        results["ks_critical_1pct"] = 1.63 / math.sqrt(cfg.replicates)
    return results, {"forms_agree_everywhere": res.disagreements == 0}, None, None


def _cmd_plot(args, alpha: float):
    from . import svgplot

    dataset, design, table, labels, outliers = _diagnostics_payload(args, alpha)
    svgplot.emit_residual_plots(table, table.fitted, args.out, alpha=alpha, labels=labels)
    results = {
        "response": args.response, "design_columns": design.labels,
        "n": table.n, "out": str(args.out), "labeled_outliers": outliers,
    }
    return results, {"any_outlier": bool(outliers)}, dataset, None


def _fmt(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "--" if math.isnan(value) else f"{value:.7g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value) if value else "(none)"
    return str(value)


def _print_human(report: AnalysisReport, results: dict, rows) -> None:
    """The report as a table: -- for an absent or NaN value, inf/-inf for +-inf."""
    print(f"nullform {report.test} (alpha = {_fmt(report.alpha)})")
    scalar = {k: v for k, v in results.items() if not isinstance(v, _Rows)}
    width = max(len(k) for k in scalar) if scalar else 0
    for key, value in scalar.items():
        print(f"  {key:<{width}}  {_fmt(value)}")
    ranking = results.get("gap_ranking")
    if ranking:
        print("  gap ranking (largest first):")
        for entry in ranking:
            print(f"    {entry['label']:<24} {_fmt(entry['gap'])}")
    if rows:
        print(
            f"  {'idx':>4} {'label':<20} {'leverage':>10} {'residual':>12} "
            f"{'standard.':>12} {'student.':>12} {'p_value':>10} {'gap':>10}"
        )
        for row in rows:
            cells = [
                f"{row['index']:>4}",
                f"{row['label']:<20.20}",
                f"{_fmt(row['leverage']):>10}",
                f"{_fmt(row['raw_residual']):>12}",
                f"{_fmt(row['standardized']):>12}",
                f"{_fmt(row['studentized']):>12}",
                f"{_fmt(row['outlier_p_value']):>10}",
                f"{_fmt(row['gap']):>10}",
            ]
            flag = "  <- flagged (leverage 1)" if row["flagged"] else ""
            print("  " + " ".join(cells) + flag)
    print("decisions:")
    for key, value in report.decisions.items():
        print(f"  {key:<28} {_fmt(value)}")
    for warning in report.warnings:
        print(f"warning: {warning}")


def _assemble_report(args: argparse.Namespace, argv):
    """Check alpha, run the command and build its one report.  The human table
    also gets the raw results and the diagnostics columns table, where NaN and
    +-inf are not yet null; with --json the payload (dataset, diagnostics) is
    freed when this returns, before printing."""
    alpha = _check_alpha(args.alpha)
    results, decisions, dataset, rows = args.run(args, alpha)
    digest, warnings = None, ()
    if dataset is not None:
        digest = dataset.digest
        if dataset.dropped_rows:
            warnings = (f"dropped {dataset.dropped_rows} row(s) with unusable cells",)
    report = AnalysisReport(
        test=args.command, command=("nullform", *argv), alpha=alpha,
        results=results, decisions=decisions, input_digest=digest,
        diagnostics=rows, warnings=warnings,
    )
    return report, None if args.json else (results, rows)


def run_command(argv) -> int:
    """Parse argv (without the program name), run, print, return exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        report, raw = _assemble_report(args, argv)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NullformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        _print_human(report, *raw)
    return EXIT_OK


def main() -> None:
    out = sys.stdout
    if out.write_through:  # -u: raw stdout drops a short write; buffered, a closed pipe raises
        sys.stdout = open(out.fileno(), "w", 1, out.encoding, out.errors, closefd=False)
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: stdout is flushed again at exit, so point
        # it at devnull first (the signal module docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()

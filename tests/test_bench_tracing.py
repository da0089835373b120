"""The benchmark's tracer over the package: every module binding it wraps
must exist, and a traced op must show the work the code implies."""

import importlib.util
from pathlib import Path

from nullform import (cli, dataio, diagnostics, linmodel, montecarlo,
                      proportion, report, specfun, svgplot, ttest)

TRACING_PATH = Path(__file__).resolve().parents[1] / "nullbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("nullbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ops_draw_once_and_factor_once(tmp_path, capsys):
    tracing = load_tracing()
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in
               (cli, dataio, diagnostics, linmodel, montecarlo, proportion,
                report, specfun, svgplot, ttest)}
    csv = tmp_path / "reg.csv"
    csv.write_text("y,x1,x2\n1.1,0.2,3\n1.8,1.1,1\n3.1,2.0,4\n9.0,2.9,1\n"
                   "4.9,4.1,5\n6.2,5.0,9\n", encoding="utf-8")
    ops = {
        0: ["simulate", "--scenario", "t", "--replicates", "300", "--n", "6"],
        1: ["ftest", "--input", str(csv), "--response", "y", "--full-cols", "x1,x2",
            "--reduced-cols", "x1", "--intercept"],
        2: ["outliers", "--input", str(csv), "--response", "y", "--predictors", "x1,x2"],
    }
    for argv in ops.values():
        # fill the quantile cache first: its misses call cdf inside specfun
        assert cli.run_command(argv) == 0
    untraced = cli.nested_f_test
    tracer = tracing.Tracer(modules)
    try:
        for op, argv in ops.items():
            assert tracer.run_op(op, lambda: tracer.run_command(argv)) == 0
    finally:
        # an install that fails part way leaves its wrappers in place
        tracer.uninstall()
    assert cli.nested_f_test is untraced
    capsys.readouterr()
    counts = tracing.counts_by_command(tracer.spans,
                                       {0: "simulate:t", 1: "ftest", 2: "outliers"})
    assert counts["simulate:t"]["draws_per_cell"] == [1.0]
    # the KS pass and the outlier p-values evaluate their laws in one
    # cdf_array call each, never through scalar cdf
    assert counts["simulate:t"]["cdf"] == [0]
    assert counts["outliers"]["cdf"] == [0]
    assert counts["ftest"]["fit"] == [0]
    assert counts["ftest"]["nested_f_test"] == [1]

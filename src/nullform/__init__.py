"""Classical tests in two algebraic forms that always agree.

The traditional one-sample t, proportion z, and nested-model F statistics
each have a twin built from the null-hypothesis variance estimate.  The two
forms are deterministic monotone transforms of one another, so they reject
identically at matched levels; this package computes both on every run and
exposes the exact mapping functions, plus regression outlier diagnostics
(standardized and studentized residuals as the same dual pair), simulation
checks, JSON reports, and SVG residual panels.

The exports are lazy (PEP 562): `import nullform` loads no submodule, and
the first access of a name imports the module that defines it.  Only
`diagnostics`, `linmodel`, `montecarlo` and `svgplot` load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining submodule -> the public names it exports
_EXPORTS = {
    "dataio": ("Dataset", "file_digest", "ingest_csv"),
    "diagnostics": (
        "DiagnosticsRow", "DiagnosticsTable", "leverage",
        "map_standardized_to_studentized", "residual_diagnostics", "residual_gaps",
    ),
    "errors": (
        "DataError", "DomainError", "NullformError", "NumericError",
        "RankDeficiencyError",
    ),
    "linmodel": (
        "DesignMatrix", "FGeometry", "FitResult", "NestedFTestResult", "NestedSpec",
        "f_geometry", "fit", "map_fnull_to_ftrad", "nested_f_test",
    ),
    "montecarlo": (
        "Scenario", "SimConfig", "SizePowerResult", "normal_cells",
        "null_law_check", "simulate_size_power", "uniform_cells",
    ),
    "proportion": ("ProportionData", "ProportionTestResult", "proportion_test"),
    "report": ("AnalysisReport", "REPORT_VERSION"),
    "sample": ("Sample",),
    "specfun": (
        "DistParams", "Family", "beta_params", "cdf", "cdf_array", "chi_square",
        "fisher_f", "log_beta", "log_gamma", "normal_critical", "pdf", "quantile",
        "reg_inc_beta", "reg_inc_gamma_lower", "std_normal_cdf", "student_t",
        "two_sided_normal_p",
    ),
    "svgplot": ("emit_residual_plots",),
    "ttest": (
        "Geometry", "LrtRatio", "TTestResult", "geometry", "lrt_ratio",
        "map_critical_value", "map_t0_to_t", "t_test",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Classical tests in two algebraic forms that always agree.

The traditional one-sample t, proportion z, and nested-model F statistics
each have a twin built from the null-hypothesis variance estimate.  The two
forms are deterministic monotone transforms of one another, so they reject
identically at matched levels; this package computes both on every run and
exposes the exact mapping functions, plus regression outlier diagnostics
(standardized and studentized residuals as the same dual pair), simulation
checks, JSON reports, and SVG residual panels.
"""

from .dataio import Dataset, file_digest, ingest_csv
from .diagnostics import (
    DiagnosticsRow,
    DiagnosticsTable,
    leverage,
    map_standardized_to_studentized,
    residual_diagnostics,
    residual_gaps,
)
from .errors import (
    DataError,
    DomainError,
    NullformError,
    NumericError,
    RankDeficiencyError,
)
from .linmodel import (
    DesignMatrix,
    FGeometry,
    FitResult,
    NestedFTestResult,
    NestedSpec,
    f_geometry,
    fit,
    map_fnull_to_ftrad,
    nested_f_test,
)
from .montecarlo import (
    Scenario,
    SimConfig,
    SizePowerResult,
    normal_cells,
    null_law_check,
    simulate_size_power,
    uniform_cells,
)
from .proportion import ProportionData, ProportionTestResult, proportion_test
from .report import AnalysisReport, REPORT_VERSION
from .sample import Sample
from .specfun import (
    DistParams,
    Family,
    beta_params,
    cdf,
    cdf_array,
    chi_square,
    fisher_f,
    log_beta,
    log_gamma,
    normal_critical,
    pdf,
    quantile,
    reg_inc_beta,
    reg_inc_gamma_lower,
    std_normal_cdf,
    student_t,
    two_sided_normal_p,
)
from .svgplot import emit_residual_plots
from .ttest import (
    Geometry,
    LrtRatio,
    TTestResult,
    geometry,
    lrt_ratio,
    map_critical_value,
    map_t0_to_t,
    t_test,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "DataError",
    "Dataset",
    "DesignMatrix",
    "DiagnosticsRow",
    "DiagnosticsTable",
    "DistParams",
    "DomainError",
    "FGeometry",
    "Family",
    "FitResult",
    "Geometry",
    "LrtRatio",
    "NestedFTestResult",
    "NestedSpec",
    "NullformError",
    "NumericError",
    "ProportionData",
    "ProportionTestResult",
    "RankDeficiencyError",
    "REPORT_VERSION",
    "Sample",
    "Scenario",
    "SimConfig",
    "SizePowerResult",
    "TTestResult",
    "beta_params",
    "cdf",
    "cdf_array",
    "chi_square",
    "emit_residual_plots",
    "f_geometry",
    "file_digest",
    "fisher_f",
    "fit",
    "geometry",
    "ingest_csv",
    "leverage",
    "log_beta",
    "log_gamma",
    "lrt_ratio",
    "map_critical_value",
    "map_fnull_to_ftrad",
    "map_standardized_to_studentized",
    "map_t0_to_t",
    "nested_f_test",
    "normal_cells",
    "normal_critical",
    "null_law_check",
    "pdf",
    "proportion_test",
    "quantile",
    "reg_inc_beta",
    "reg_inc_gamma_lower",
    "residual_diagnostics",
    "residual_gaps",
    "simulate_size_power",
    "std_normal_cdf",
    "student_t",
    "t_test",
    "two_sided_normal_p",
    "uniform_cells",
    "__version__",
]

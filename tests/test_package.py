"""The package's lazy exports: the same names and objects as eager imports."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import nullform

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = {
    "AnalysisReport", "DataError", "Dataset", "DesignMatrix", "DiagnosticsRow",
    "DiagnosticsTable", "DistParams", "DomainError", "Family",
    "FitResult", "Geometry", "LrtRatio", "NestedFTestResult", "NestedSpec",
    "NullformError", "NumericError", "ProportionData", "ProportionTestResult",
    "REPORT_VERSION", "RankDeficiencyError", "Sample", "Scenario", "SimConfig",
    "SizePowerResult", "TTestResult", "__version__", "beta_params", "cdf",
    "cdf_array", "chi_square", "emit_residual_plots", "f_geometry", "file_digest",
    "fisher_f", "fit", "geometry", "ingest_csv", "leverage", "log_beta",
    "log_gamma", "lrt_ratio", "map_critical_value", "map_fnull_to_ftrad",
    "map_standardized_to_studentized", "map_t0_to_t", "nested_f_test",
    "normal_cells", "normal_critical", "null_law_check", "pdf", "proportion_test",
    "quantile", "reg_inc_beta", "reg_inc_gamma_lower", "residual_diagnostics",
    "residual_gaps", "simulate_size_power", "std_normal_cdf", "student_t",
    "t_test", "two_sided_normal_p", "uniform_cells",
}

# the exports that are not functions or classes, and the module defining each
CONSTANTS = {"REPORT_VERSION": "nullform.report", "__version__": "nullform"}

# In a fresh interpreter: what `import nullform` loaded, then each export read
# through the package and compared with the object its defining module holds.
RESOLVE = """
import json, sys
import nullform
constants = json.loads(sys.argv[1])
loaded = sorted(m for m in sys.modules if m.startswith("nullform"))
wrong = []
for name in nullform.__all__:
    value = getattr(nullform, name)
    home = constants[name] if name in constants else value.__module__
    if not home.startswith("nullform") or getattr(sys.modules[home], name) is not value:
        wrong.append(name)
star = {}
exec("from nullform import *", star)
print(json.dumps({"loaded": loaded, "wrong": wrong, "star": sorted(set(star) - {"__builtins__"})}))
"""


def test_exports_resolve_lazily_to_the_defining_objects():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", RESOLVE, json.dumps(CONSTANTS)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["loaded"] == ["nullform"]
    assert out["wrong"] == []
    assert set(out["star"]) == EXPORTS


def test_all_and_dir_cover_the_exports():
    assert set(nullform.__all__) == EXPORTS
    assert len(nullform.__all__) == len(EXPORTS)
    assert EXPORTS <= set(dir(nullform))
    assert nullform.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nullform.no_such_name
    assert not hasattr(nullform, "Tracer")


@pytest.mark.parametrize("module", sorted(nullform._EXPORTS))
def test_each_module_exports_what_the_package_lists(module):
    names = import_module(f"nullform.{module}").__all__
    assert sorted(names) == sorted(nullform._EXPORTS[module])
    assert len(set(names)) == len(names)

"""Acceptance gate: one test per shipped guarantee, one summary line each.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion (add -s to also see the measured numbers).  Criterion 4 is
conditional on a bundled case-study dataset; when the file is absent the
leave-one-out oracle equivalence (criterion 5) is the binding diagnostics
check, and criterion 4 reports itself as skipped rather than passed.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nullform.dataio import ingest_csv
from nullform.diagnostics import residual_diagnostics, residual_gaps
from nullform.linmodel import (
    DesignMatrix,
    NestedSpec,
    f_geometry,
    fit,
    map_fnull_to_ftrad,
    nested_f_test,
)
from nullform.montecarlo import Scenario, SimConfig, simulate_size_power
from nullform.sample import Sample
from nullform.specfun import (
    beta_params,
    cdf,
    chi_square,
    fisher_f,
    quantile,
    reg_inc_beta,
    student_t,
)
from nullform.ttest import geometry, lrt_ratio, map_t0_to_t, t_test

ROOT = Path(__file__).resolve().parents[1]
LEVELS = (0.01, 0.05, 0.1)


def one_sample_problems(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 41))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        mu = float(rng.uniform(-5.0, 5.0))
        values = mu + scale * rng.standard_normal(n)
        mu0 = mu + float(rng.uniform(-2.0, 2.0)) * scale
        out.append((Sample.from_iterable(values.tolist()), mu0))
    return out


def nested_problems(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p1 = int(rng.integers(1, 4))
        p2 = int(rng.integers(1, 4))
        p = p1 + p2
        n = int(rng.integers(p + 2, 41))
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        beta = rng.uniform(-2.0, 2.0, size=p)
        noise = 10.0 ** rng.uniform(-1.0, 1.0)
        y = x @ beta + noise * rng.standard_normal(n)
        out.append((NestedSpec(DesignMatrix(x), p1), Sample.from_iterable(y.tolist())))
    return out


def test_criterion_1_exact_equivalence_suite():
    started = time.perf_counter()
    disagreements = 0
    checked = 0
    for y, mu0 in one_sample_problems(1000, seed=101):
        res = t_test(y, mu0)
        n = y.n
        for alpha in LEVELS:
            trad = abs(res.t) >= quantile(student_t(res.df), 1.0 - alpha / 2.0)
            null = res.t0**2 / n >= quantile(
                beta_params(0.5, 0.5 * res.df), 1.0 - alpha
            )
            disagreements += trad != null
            disagreements += (res.p_value_t <= alpha) != (res.p_value_t0 <= alpha)
            checked += 1
    for spec, y in nested_problems(500, seed=202):
        res = nested_f_test(spec, y)
        n, p1, p2 = res.dims
        for alpha in LEVELS:
            trad = res.f_trad >= quantile(fisher_f(p2, n - p1 - p2), 1.0 - alpha)
            null = p2 * res.f_null / (n - p1) >= quantile(
                beta_params(0.5 * p2, 0.5 * (n - p1 - p2)), 1.0 - alpha
            )
            disagreements += trad != null
            disagreements += (res.p_value_f <= alpha) != (res.p_value_beta <= alpha)
            checked += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 30.0
    print(
        f"criterion 1: PASS - 0 decision disagreements over {checked} "
        f"problem/level pairs, both decision routes ({elapsed:.1f}s)"
    )


def test_criterion_2_identity_suite():
    rel = lambda a, b: abs(a - b) / max(abs(a), abs(b), 1e-300)
    worst_map = worst_r = worst_pyth = worst_trig = 0.0
    for y, mu0 in one_sample_problems(300, seed=303):
        res = t_test(y, mu0)
        if res.degenerate or res.boundary:
            continue
        n = y.n
        worst_map = max(worst_map, rel(map_t0_to_t(res.t0, n), res.t))
        ratio = lrt_ratio(y, mu0)
        worst_r = max(worst_r, rel(ratio.r_via_t, ratio.r_via_t0))
        worst_pyth = max(
            worst_pyth, abs(res.ssto - (res.sst + res.sse)) / res.ssto
        )
        theta = geometry(y, mu0).theta
        c2 = math.cos(theta) ** 2
        worst_trig = max(worst_trig, rel(res.t0**2, n * c2))
        if c2 < 1.0:
            worst_trig = max(worst_trig, rel(res.t**2, res.df * c2 / (1.0 - c2)))
    for spec, y in nested_problems(200, seed=404):
        res = nested_f_test(spec, y)
        if res.saturated:
            continue
        n, p1, p2 = res.dims
        worst_map = max(
            worst_map, rel(map_fnull_to_ftrad(res.f_null, n, p1, p2), res.f_trad)
        )
        worst_pyth = max(
            worst_pyth, abs(res.sse1 - (res.ss2given1 + res.sse12)) / res.sse1
        )
        c2 = math.cos(f_geometry(spec, y).theta) ** 2
        worst_trig = max(
            worst_trig, rel(res.f_null, (n - p1) / p2 * c2)
        )
        if c2 < 1.0:
            worst_trig = max(
                worst_trig, rel(res.f_trad, (n - p1 - p2) / p2 * c2 / (1.0 - c2))
            )
    assert worst_map <= 1e-10
    assert worst_r <= 1e-10
    assert worst_trig <= 1e-10
    assert worst_pyth <= 1e-12
    print(
        "criterion 2: PASS - identity suite worst relative errors: "
        f"mappings {worst_map:.2e}, dual R {worst_r:.2e}, "
        f"trig {worst_trig:.2e}, Pythagorean {worst_pyth:.2e}"
    )


def test_criterion_3_dual_p_value_routes():
    worst_t = worst_f = 0.0
    for y, mu0 in one_sample_problems(500, seed=505):
        res = t_test(y, mu0)
        worst_t = max(worst_t, abs(res.p_value_t - res.p_value_t0))
    for spec, y in nested_problems(300, seed=606):
        res = nested_f_test(spec, y)
        worst_f = max(worst_f, abs(res.p_value_f - res.p_value_beta))
    assert worst_t <= 1e-10
    assert worst_f <= 1e-10
    print(
        "criterion 3: PASS - max |p route difference|: "
        f"t vs t0-Beta {worst_t:.2e}, F vs Beta {worst_f:.2e}"
    )


def test_criterion_4_case_study():
    path = ROOT / "data" / "primates.csv"
    if not path.exists():
        print(
            "criterion 4: SKIP - case-study dataset not bundled; the "
            "leave-one-out oracle (criterion 5) is the binding diagnostics check"
        )
        pytest.skip(
            "data/primates.csv not present; criterion 5 substitutes per the "
            "README note"
        )
    ds = ingest_csv(path, label_column="name", log_columns=("body", "brain"))
    design = DesignMatrix.from_columns(
        [[1.0] * ds.n_rows, ds.column("body")], ["const", "log_body"]
    )
    table = residual_diagnostics(design, Sample.from_iterable(ds.column("brain")))
    p_values = sorted(r.outlier_p_value for r in table.rows)[:2]
    assert abs(p_values[0] - 0.0034) <= 0.0005
    assert abs(p_values[1] - 0.0301) <= 0.0005
    gaps = [g for _, g in residual_gaps(table)]
    assert abs(gaps[0] - 0.6563) <= 0.001
    assert abs(gaps[1] - 0.2394) <= 0.001
    assert all(0.0011 - 0.0005 <= g <= 0.0273 + 0.0005 for g in gaps[2:])
    print("criterion 4: PASS - case-study p-values and residual gaps reproduced")


def loo_studentized(x: DesignMatrix, y: Sample):
    """Closed-form leave-one-out studentized residuals, as an oracle."""
    base = fit(x, y)
    n, p = x.n_rows, x.n_cols
    q = np.linalg.qr(x.data, mode="reduced")[0]
    h = np.einsum("ij,ij->i", q, q)
    out = []
    for i in range(n):
        e = base.residuals[i]
        s2_del = (base.sse - e * e / (1.0 - h[i])) / (n - p - 1)
        out.append(e / math.sqrt(s2_del * (1.0 - h[i])))
    return out


def test_criterion_5_diagnostics_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 3, 30))
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        y = Sample.from_iterable(
            (x @ rng.uniform(-2.0, 2.0, p) + rng.standard_normal(n)).tolist()
        )
        design = DesignMatrix(x)
        table = residual_diagnostics(design, y)
        oracle = loo_studentized(design, y)
        for row, ref in zip(table.rows, oracle):
            worst = max(
                worst, abs(row.studentized - ref) / max(1.0, abs(ref))
            )
    assert worst <= 1e-9
    design3 = DesignMatrix.from_columns([[1.0, 1.0, 1.0]], ["const"])
    table3 = residual_diagnostics(design3, Sample((1.0, 2.0, 6.0)))
    r3, t3 = table3.rows[2].standardized, table3.rows[2].studentized
    assert f"{r3:.8g}" == "1.3887301"
    assert f"{t3:.8g}" == "5.1961524"
    print(
        "criterion 5: PASS - augmented-indicator studentized residuals match "
        f"the leave-one-out closed form (worst {worst:.2e}); "
        "3-point example reproduces r=1.3887301, t=5.1961524"
    )


def test_criterion_6_distribution_kernel():
    closed = [
        (cdf(student_t(1.0), 1.0), 0.75),
        (cdf(chi_square(2.0), 2.0), 1.0 - math.exp(-1.0)),
        (cdf(fisher_f(2.0, 2.0), 1.0), 0.5),
    ]
    closed += [(reg_inc_beta(0.5, a, a), 0.5) for a in (0.5, 1.0, 2.5, 7.0, 40.0)]
    worst_closed = max(abs(got - want) for got, want in closed)
    assert worst_closed <= 1e-12

    worst_round = 0.0
    dists = [
        student_t(1.0), student_t(2.0), student_t(7.5), student_t(40.0),
        fisher_f(1.0, 3.0), fisher_f(2.0, 2.0), fisher_f(5.0, 17.0),
        beta_params(0.5, 0.5), beta_params(0.5, 9.5), beta_params(3.0, 4.0),
        chi_square(1.0), chi_square(4.0), chi_square(25.0),
    ]
    qs = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
    for d in dists:
        for q in qs:
            worst_round = max(worst_round, abs(cdf(d, quantile(d, q)) - q))
    assert worst_round <= 1e-9
    print(
        "criterion 6: PASS - closed-form kernel values to "
        f"{worst_closed:.2e}, cdf/quantile round trip to {worst_round:.2e}"
    )


def test_criterion_7_monte_carlo():
    started = time.perf_counter()
    cfg = SimConfig(
        replicates=100_000, seed=20260814, n=20,
        scenario=Scenario.NESTED_F, p1=2, p2=2,
    )
    res = simulate_size_power(cfg)
    ks = res.ks_statistic
    t_cfg = SimConfig(
        replicates=100_000, seed=20260814, n=10, scenario=Scenario.ONE_SAMPLE_T
    )
    t_res = simulate_size_power(t_cfg)
    elapsed = time.perf_counter() - started
    for rate in (res.reject_rate_trad, res.reject_rate_null,
                 t_res.reject_rate_trad, t_res.reject_rate_null):
        assert abs(rate - 0.05) <= 0.003
    assert res.disagreements == 0 and t_res.disagreements == 0
    assert ks < 0.00516
    assert elapsed < 60.0
    print(
        "criterion 7: PASS - 1e5 replicates: F sizes "
        f"({res.reject_rate_trad:.4f}, {res.reject_rate_null:.4f}), t sizes "
        f"({t_res.reject_rate_trad:.4f}, {t_res.reject_rate_null:.4f}), "
        f"0 disagreements, KS {ks:.5f} < 0.00516 ({elapsed:.1f}s)"
    )


def cli_bytes(args):
    proc = subprocess.run(
        [sys.executable, "-m", "nullform", *args],
        capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_8_end_to_end_determinism(tmp_path):
    csv = tmp_path / "reg.csv"
    csv.write_text(
        "y,x\n1.1,0.2\n1.8,1.1\n3.1,2.0\n9.0,2.9\n4.9,4.1\n6.2,5.0\n7.1,6.2\n",
        encoding="utf-8",
    )
    sim = ["simulate", "--scenario", "f", "--replicates", "2000", "--n", "12",
           "--p1", "2", "--p2", "1", "--seed", "424242", "--json"]
    out_rows = ["outliers", "--input", str(csv), "--response", "y", "--json"]
    assert cli_bytes(sim) == cli_bytes(sim)
    first = cli_bytes(out_rows)
    assert first == cli_bytes(out_rows)
    json.loads(first)

    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    cli_bytes(["plot", "--input", str(csv), "--response", "y", "--out", str(svg_a)])
    cli_bytes(["plot", "--input", str(csv), "--response", "y", "--out", str(svg_b)])
    assert svg_a.read_bytes() == svg_b.read_bytes()
    print(
        "criterion 8: PASS - repeated seeded CLI runs give byte-identical "
        "JSON and SVG outputs"
    )

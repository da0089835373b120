"""Diagnostics: the 3-point hand example, the leave-one-out closed form and
the per-row augmented nested F-test as independent oracles, the per-row
construction of the table as an oracle for the masked one, decision
equivalence across all four statistics, the outlier rule, and the gap
ranking."""

import json
import math
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullform.cli import run_command
from nullform.diagnostics import (
    _DIRECT_SSE12_FRAC,
    _LEVERAGE_TOL,
    DiagnosticsRow,
    DiagnosticsTable,
    leverage,
    map_standardized_to_studentized,
    residual_diagnostics,
    residual_gaps,
)
from nullform.errors import DomainError
from nullform.linmodel import (
    _SSE_NEGLIGIBLE_RTOL,
    DesignMatrix,
    NestedSpec,
    _qr_with_rank_check,
    fit,
    nested_f_test,
)
from nullform.sample import Sample
from nullform.specfun import cdf, cdf_array, fisher_f, quantile, student_t
from nullform.svgplot import emit_residual_plots


def loo_studentized(xarr, yarr):
    """Textbook leave-one-out studentized residuals, used only as an oracle."""
    n, p = xarr.shape
    beta, *_ = np.linalg.lstsq(xarr, yarr, rcond=None)
    resid = yarr - xarr @ beta
    q, _ = np.linalg.qr(xarr)
    h = np.einsum("ij,ij->i", q, q)
    out = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        beta_i, *_ = np.linalg.lstsq(xarr[keep], yarr[keep], rcond=None)
        sse_i = float(np.sum((yarr[keep] - xarr[keep] @ beta_i) ** 2))
        s2_i = sse_i / (n - 1 - p)
        out[i] = resid[i] / math.sqrt(s2_i * (1.0 - h[i]))
    return out


def augmented_f_test(xarr, yarr, i):
    """Row i's outlier test run literally: the nested F-test of an indicator
    column appended to the design, used only as an oracle."""
    n, p = xarr.shape
    indicator = np.zeros(n)
    indicator[i] = 1.0
    spec = NestedSpec(DesignMatrix(np.column_stack([xarr, indicator])), p1=p)
    return nested_f_test(spec, Sample.from_iterable(yarr))


def assert_augmented_oracle(table, xarr, yarr):
    """Each row's residuals squared against its literal augmented F-test."""
    for i, (r, t) in enumerate(zip(table.standardized.tolist(), table.studentized.tolist())):
        res = augmented_f_test(xarr, yarr, i)
        assert r**2 == pytest.approx(res.f_null, rel=1e-9)
        assert t**2 == pytest.approx(res.f_trad, rel=1e-9)


def rows_of(table):
    """The table's columns as DiagnosticsRow records, the input of the rows
    constructor that the benchmark's plot check rebuilds a table with."""
    columns = (getattr(table, name).tolist() for name in DiagnosticsTable.COLUMNS)
    return tuple(map(DiagnosticsRow, range(len(table)), *columns, table.flagged.tolist()))


def row_by_row_diagnostics(x, y):
    """The table built one row at a time, one Python branch per row state,
    used only as an oracle for the masked columns of residual_diagnostics."""
    n, p = x.n_rows, x.n_cols
    q, _ = _qr_with_rank_check(x)
    yvec = np.asarray(y.values, dtype=np.float64)
    fitted = q @ (q.T @ yvec)
    e = yvec - fitted
    sse = float(e @ e)
    h = np.einsum("ij,ij->i", q, q)
    tiny_sse = _SSE_NEGLIGIBLE_RTOL * float(yvec @ yvec)
    flagged = h >= 1.0 - _LEVERAGE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ss2given1 = e * e / (1.0 - h)
        tested = ~flagged & (ss2given1 > tiny_sse) & (sse > tiny_sse)
        sse12 = sse - ss2given1
        for i in np.flatnonzero(tested & (ss2given1 > _DIRECT_SSE12_FRAC * sse)):
            aug = e + (q @ q[i]) * (e[i] / (1.0 - h[i]))
            aug[i] = 0.0
            sse12[i] = aug @ aug
        f_null = ss2given1 / (sse / (n - p))
        f_trad = ss2given1 / (sse12 / (n - p - 1))
        r = np.copysign(np.sqrt(f_null), e)
        t = np.copysign(np.where(sse12 <= tiny_sse, np.inf, np.sqrt(f_trad)), e)
    p_out = np.ones(n)
    p_out[tested] = 2.0 * cdf_array(student_t(float(n - p - 1)), -np.abs(t[tested]))
    rows = []
    cells = zip(h.tolist(), e.tolist(), r.tolist(), t.tolist(), p_out.tolist(),
                flagged.tolist(), tested.tolist())
    for i, (h_i, e_i, r_i, t_i, p_i, flag_i, test_i) in enumerate(cells):
        if flag_i:
            r_i = t_i = p_i = bonf = gap = math.nan
        elif not test_i:
            r_i = t_i = gap = 0.0
            bonf = 1.0
        else:
            bonf = min(1.0, n * p_i)
            gap = abs(t_i - r_i)
        rows.append(
            DiagnosticsRow(
                index=i, leverage=h_i, raw_residual=e_i,
                standardized=r_i, studentized=t_i,
                outlier_p_value=p_i, bonferroni_p_value=bonf,
                gap=gap, flagged=flag_i,
            )
        )
    return DiagnosticsTable(rows=tuple(rows), n=n, p=p, fitted=tuple(fitted.tolist()))


def random_regression(rng, n, p):
    xarr = rng.standard_normal((n, p))
    xarr[:, 0] = 1.0
    return xarr, xarr @ rng.standard_normal(p) + rng.standard_normal(n)


class TestWorkedExample:
    def setup_method(self):
        self.x = DesignMatrix([[1.0], [1.0], [1.0]])
        self.y = Sample.from_iterable([1.0, 2.0, 6.0])
        self.table = residual_diagnostics(self.x, self.y)

    def test_leverage_third(self):
        for h in self.table.leverage.tolist():
            assert h == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_raw_residuals(self):
        raw = tuple(self.table.raw_residual.tolist())
        assert raw == pytest.approx((-2.0, -1.0, 3.0), rel=1e-12)

    def test_third_observation_to_seven_digits(self):
        assert self.table.standardized[2] == pytest.approx(1.3887301, abs=5e-8)
        assert self.table.studentized[2] == pytest.approx(5.1961524, abs=5e-8)

    def test_signs_follow_residuals(self):
        cells = zip(self.table.raw_residual.tolist(), self.table.standardized.tolist(),
                    self.table.studentized.tolist())
        for e, r, t in cells:
            if e != 0.0:
                assert math.copysign(1.0, r) == math.copysign(1.0, e)
                assert math.copysign(1.0, t) == math.copysign(1.0, e)

    def test_outlier_p_value_from_t1(self):
        # df = n - p - 1 = 1: two-sided Cauchy tail at |t_3|
        expect = 2.0 * (0.5 - math.atan(abs(self.table.studentized[2])) / math.pi)
        assert self.table.outlier_p_value[2] == pytest.approx(expect, abs=1e-12)

    def test_bonferroni_column(self):
        for p, bonf in zip(self.table.outlier_p_value.tolist(),
                           self.table.bonferroni_p_value.tolist()):
            assert bonf == pytest.approx(min(1.0, 3 * p), abs=1e-13)


class TestOracles:
    def test_loo_oracle_on_random_regressions(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(6, 30))
            p = int(rng.integers(1, min(5, n - 2)))
            xarr = rng.standard_normal((n, p))
            xarr[:, 0] = 1.0
            yarr = xarr @ rng.standard_normal(p) + rng.standard_normal(n)
            table = residual_diagnostics(
                DesignMatrix(xarr), Sample.from_iterable(yarr)
            )
            want = loo_studentized(xarr, yarr)
            assert table.studentized == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_augmented_oracle_on_random_regressions(self):
        rng = np.random.default_rng(2025)
        for _ in range(40):
            n = int(rng.integers(6, 30))
            xarr, yarr = random_regression(rng, n, int(rng.integers(1, min(5, n - 2))))
            table = residual_diagnostics(DesignMatrix(xarr), Sample.from_iterable(yarr))
            assert_augmented_oracle(table, xarr, yarr)

    def test_augmented_oracle_with_extreme_outlier(self):
        # a 1e6-sigma outlier carries nearly all of SSE: SSE - SS_{2|1,i}
        # cancels for that row, so its SSE_12,i must be summed directly
        rng = np.random.default_rng(6)
        n, p, k = 40, 3, 5
        xarr, yarr = random_regression(rng, n, p)
        yarr[k] += 1e6
        table = residual_diagnostics(DesignMatrix(xarr), Sample.from_iterable(yarr))
        assert_augmented_oracle(table, xarr, yarr)
        # the plain subtraction misses on the outlier's row
        base = fit(DesignMatrix(xarr), Sample.from_iterable(yarr))
        ss2 = base.residuals[k] ** 2 / (1.0 - table.leverage[k])
        plain = ss2 / ((base.sse - ss2) / (n - p - 1))
        assert plain != pytest.approx(augmented_f_test(xarr, yarr, k).f_trad, rel=1e-9)

    def test_standardized_closed_form(self):
        # r_i = e_i / sqrt(sse/(n-p) * (1 - h_i))
        rng = np.random.default_rng(5)
        xarr = rng.standard_normal((15, 3))
        yarr = rng.standard_normal(15)
        x = DesignMatrix(xarr)
        y = Sample.from_iterable(yarr)
        table = residual_diagnostics(x, y)
        base = fit(x, y)
        s2 = base.sse / (15 - 3)
        cells = zip(table.raw_residual.tolist(), table.leverage.tolist(),
                    table.standardized.tolist())
        for e, h, r in cells:
            assert r == pytest.approx(e / math.sqrt(s2 * (1.0 - h)), rel=1e-9)

    def test_leverage_sums_to_p(self):
        rng = np.random.default_rng(17)
        for p in (1, 2, 4):
            xarr = rng.standard_normal((20, p))
            h = leverage(DesignMatrix(xarr))
            assert math.fsum(h) == pytest.approx(p, abs=1e-10)
            assert all(0.0 <= v <= 1.0 + 1e-12 for v in h)


class TestPValues:
    @pytest.mark.parametrize("spike", [6.0, -6.0])
    def test_batch_p_values_match_scalar_cdf(self, spike):
        # one cdf_array call for the table against 2 cdf(t, -|t_i|) per row;
        # the exactly fitted response saturates row 7 to t = +-inf, p = 0
        rng = np.random.default_rng(31)
        xarr, noisy = random_regression(rng, 60, 3)
        noisy[[4, 9]] += (40.0, -8.0)
        exact = xarr @ rng.standard_normal(3)
        exact[7] += spike
        for yarr in (noisy, exact):
            table = residual_diagnostics(DesignMatrix(xarr), Sample.from_iterable(yarr))
            dist = student_t(float(table.n - table.p - 1))
            cells = zip(table.studentized.tolist(), table.outlier_p_value.tolist(),
                        table.bonferroni_p_value.tolist())
            for t, p, bonf in cells:
                assert p == pytest.approx(2.0 * cdf(dist, -abs(t)), rel=1e-13, abs=0.0)
                assert bonf == min(1.0, table.n * p)
        assert table.studentized[7] == math.copysign(math.inf, spike)
        assert table.outlier_p_value[7] == 0.0


class TestEdgeCases:
    def test_zero_residual_row(self):
        table = residual_diagnostics(
            DesignMatrix([[1.0]] * 3), Sample.from_iterable([1.0, 2.0, 3.0])
        )
        # QR projection dust can leave ~1e-16 in an exactly-zero residual
        assert table.raw_residual[1] == pytest.approx(0.0, abs=1e-14)
        assert table.standardized[1] == 0.0
        assert table.studentized[1] == 0.0
        assert table.outlier_p_value[1] == 1.0
        assert table.gap[1] == 0.0

    def test_all_residuals_zero(self):
        x = DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        y = Sample.from_iterable([2.0, 4.0, 6.0, 8.0])
        table = residual_diagnostics(x, y)
        assert all(r == 0.0 for r in table.standardized.tolist())
        assert all(gap == 0.0 for gap in table.gap.tolist())
        assert residual_gaps(table) == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]

    def test_unit_leverage_row_is_flagged(self):
        x = DesignMatrix([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        y = Sample.from_iterable([1.0, 2.0, 3.0, 9.0])
        table = residual_diagnostics(x, y)
        assert table.flagged[3]
        assert table.leverage[3] == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(table.studentized[3])
        assert not table.flagged[:3].any()
        # flagged rows stay out of the gap ranking
        assert all(idx != 3 for idx, _ in residual_gaps(table))

    def test_predictor_scale_does_not_matter(self):
        # row 0 sits at x = 40 with leverage ~0.988; rescaling the predictor
        # must not turn its outlier test into a rank-deficiency error
        rng = np.random.default_rng(40)
        n = 30
        xs = np.append(40.0, rng.standard_normal(n - 1))
        yarr = 1.0 + 0.5 * xs + rng.standard_normal(n)
        y = Sample.from_iterable(yarr)
        base = residual_diagnostics(DesignMatrix.from_columns([np.ones(n), xs]), y)
        assert base.leverage[0] > 0.98
        scaled = residual_diagnostics(DesignMatrix.from_columns([np.ones(n), 1e8 * xs]), y)
        assert scaled.leverage.tolist() == pytest.approx(base.leverage.tolist(), rel=1e-9)
        for name in ("standardized", "studentized"):
            a, b = getattr(base, name).tolist(), getattr(scaled, name).tolist()
            assert [v**2 for v in b] == pytest.approx([v**2 for v in a], rel=1e-9)

    def test_needs_spare_degrees_of_freedom(self):
        with pytest.raises(DomainError):
            residual_diagnostics(
                DesignMatrix([[1.0], [1.0]]), Sample.from_iterable([1.0, 2.0])
            )
        with pytest.raises(DomainError):
            residual_diagnostics(
                DesignMatrix([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                Sample.from_iterable([1.0, 2.0, 3.0]),
            )


class TestRowStates:
    """The masked columns against the row-by-row oracle, field by field."""

    @staticmethod
    def design(seed, n, p, unit_leverage, exact, spike, zero_row):
        # unit_leverage appends a column that is 1 on row 0 only (a flagged
        # row); exact leaves out the noise, so every row is untested, or a
        # spike on row 2 saturates its t to +-inf; zero_row puts row 1 on the
        # fit (untested); spike = 1e6 sends row 2 down the direct SSE_12 sum
        rng = np.random.default_rng(seed)
        xarr = rng.standard_normal((n, p))
        xarr[:, 0] = 1.0
        if unit_leverage:
            xarr = np.column_stack([xarr, np.eye(n)[0]])
        yarr = xarr @ rng.standard_normal(xarr.shape[1])
        if not exact:
            yarr = yarr + rng.standard_normal(n)
        yarr[2] += spike
        if zero_row:
            others = np.arange(n) != 1
            yarr[1] = xarr[1] @ np.linalg.lstsq(xarr[others], yarr[others], rcond=None)[0]
        return DesignMatrix(xarr), Sample.from_iterable(yarr)

    @staticmethod
    def assert_same(x, y):
        table = residual_diagnostics(x, y)
        oracle = row_by_row_diagnostics(x, y)
        assert (table.n, table.p) == (oracle.n, oracle.p)
        assert table.fitted.tolist() == oracle.fitted.tolist()
        # repr tells -0.0 from 0.0 and makes NaN equal NaN
        for name in (*DiagnosticsTable.COLUMNS, "flagged"):
            got, want = getattr(table, name).tolist(), getattr(oracle, name).tolist()
            assert list(map(repr, got)) == list(map(repr, want)), name
        return table

    @pytest.mark.parametrize(
        "unit_leverage, exact, spike, zero_row, states",
        [
            (False, False, 0.0, False, {"tested"}),
            (True, False, 40.0, False, {"flagged", "tested"}),
            (False, False, 0.0, True, {"tested", "untested"}),
            (False, True, 0.0, False, {"untested"}),
            (True, True, 0.0, False, {"flagged", "untested"}),
            (False, True, 6.0, False, {"saturated", "tested"}),
            (True, True, -6.0, False, {"flagged", "saturated", "tested"}),
            (False, False, 1e6, False, {"tested"}),
        ],
    )
    def test_every_row_state(self, unit_leverage, exact, spike, zero_row, states):
        x, y = self.design(3, 24, 3, unit_leverage, exact, spike, zero_row)
        table = self.assert_same(x, y)
        seen = set()
        cells = zip(table.flagged.tolist(), table.standardized.tolist(),
                    table.studentized.tolist(), table.outlier_p_value.tolist())
        for flagged, r, t, p in cells:
            if flagged:
                seen.add("flagged")
            elif math.isinf(t):
                seen.add("saturated")
            elif r == 0.0 and p == 1.0:
                seen.add("untested")
            else:
                seen.add("tested")
        assert seen == states

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=8, max_value=40),
        p=st.integers(min_value=1, max_value=4),
        unit_leverage=st.booleans(),
        exact=st.booleans(),
        spike=st.sampled_from([0.0, 6.0, -6.0, 1e6]),
    )
    def test_random_designs(self, seed, n, p, unit_leverage, exact, spike):
        self.assert_same(*self.design(seed, n, p, unit_leverage, exact, spike, False))


class TestOutlierRule:
    """table.outliers against the two row expressions it replaced: the
    report's `not flagged and p <= alpha` and the plot's
    `isfinite(p) and p <= alpha`."""

    @staticmethod
    def assert_rule(table):
        flags, p_values = table.flagged.tolist(), table.outlier_p_value.tolist()
        ps = sorted({p for p in p_values if math.isfinite(p)})
        for alpha in (0.01, 0.05, 0.5, *ps[:3], *ps[-2:]):
            for flagged, p, outlier in zip(flags, p_values, table.outliers(alpha).tolist()):
                assert outlier is (not flagged and p <= alpha)
                assert outlier is (math.isfinite(p) and p <= alpha)

    def test_table_from_residual_diagnostics(self):
        x, y = TestRowStates.design(5, 30, 3, True, False, 6.0, False)
        table = residual_diagnostics(x, y)
        assert table.flagged.any()
        assert table.outliers(0.05).any()
        self.assert_rule(table)

    def test_table_rebuilt_from_json_rows(self, capsys, tmp_path):
        # column d is 1 on row "a" only, so that row is flagged and its
        # residual fields print as null
        path = tmp_path / "reg.csv"
        path.write_text(
            "name,y,x1,d\n"
            "a,1.1,0.2,1\nb,1.8,1.1,0\nc,3.1,2.0,0\nd,9.0,2.9,0\n"
            "e,4.9,4.1,0\nf,6.2,5.0,0\ng,7.1,6.2,0\nh,8.0,7.1,0\n",
            encoding="utf-8",
        )
        argv = ["outliers", "--input", str(path), "--response", "y",
                "--label-column", "name", "--json"]
        assert run_command(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        table = DiagnosticsTable(tuple(
            DiagnosticsRow(**{k: (math.nan if v is None else v)
                              for k, v in row.items() if k != "label"})
            for row in payload["diagnostics"]), n=payload["results"]["n"],
            p=payload["results"]["p"])
        assert table.flagged[0] and math.isnan(table.outlier_p_value[0])
        assert payload["results"]["outliers"] == list(
            compress("abcdefgh", table.outliers(0.05))) == ["d"]
        self.assert_rule(table)


class TestColumns:
    """The table's column forms against the row forms they replace."""

    @pytest.mark.parametrize("unit_leverage, exact, spike", [
        (True, False, 40.0), (True, True, -6.0), (False, True, 0.0)])
    def test_table_rebuilt_from_its_rows(self, unit_leverage, exact, spike):
        # as the benchmark's plot check rebuilds one, from DiagnosticsRow records
        x, y = TestRowStates.design(3, 24, 3, unit_leverage, exact, spike, False)
        table = residual_diagnostics(x, y)
        again = DiagnosticsTable(rows_of(table), n=table.n, p=table.p, fitted=table.fitted)
        for name in (*DiagnosticsTable.COLUMNS, "flagged", "fitted"):
            column = getattr(again, name)
            assert column.dtype == getattr(table, name).dtype
            assert not column.flags.writeable
            np.testing.assert_array_equal(column, getattr(table, name))  # NaN equals NaN
        assert (again.n, again.p, len(again)) == (table.n, table.p, len(table))
        assert emit_residual_plots(again, again.fitted, alpha=0.5) == (
            emit_residual_plots(table, table.fitted, alpha=0.5))

    def test_rows_must_come_in_index_order(self):
        x, y = TestRowStates.design(3, 12, 2, False, False, 0.0, False)
        rows = rows_of(residual_diagnostics(x, y))
        with pytest.raises(ValueError, match="index order"):
            DiagnosticsTable(rows[::-1], n=12, p=2)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), alpha=st.sampled_from([0.01, 0.05, 0.5]))
    def test_outlier_mask_and_gap_order(self, data, alpha):
        # p-values and gaps drawn partly from small pools, so that some p
        # equal alpha exactly and some gaps tie; flagged rows hold NaN
        n = data.draw(st.integers(min_value=1, max_value=30))
        cells = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        flagged = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        p = data.draw(st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
                               min_size=n, max_size=n))
        gap = data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0, math.inf]) | st.floats(0.0, 1e6),
                                 min_size=n, max_size=n))
        undefined = np.where(flagged, np.nan, 1.0)
        r, t = data.draw(cells), data.draw(cells)
        table = DiagnosticsTable.from_columns(
            n, 2, (), data.draw(cells), data.draw(cells), undefined * r, undefined * t,
            undefined * p, undefined * np.minimum(1.0, n * np.array(p)), undefined * gap,
            flagged)
        flags = table.flagged.tolist()
        assert table.outliers(alpha).tolist() == [
            not f and p_i <= alpha for f, p_i in zip(flags, table.outlier_p_value.tolist())]
        pairs = [(i, g) for i, (f, g) in enumerate(zip(flags, table.gap.tolist())) if not f]
        assert residual_gaps(table) == sorted(pairs, key=lambda item: (-item[1], item[0]))


class TestMap:
    def test_zero_and_unit_fixed_points(self):
        assert map_standardized_to_studentized(0.0, 10, 2) == 0.0
        for n, p1 in [(5, 1), (30, 4), (3, 1)]:
            assert map_standardized_to_studentized(1.0, n, p1) == pytest.approx(
                1.0, rel=1e-14
            )
            assert map_standardized_to_studentized(-1.0, n, p1) == pytest.approx(
                -1.0, rel=1e-14
            )

    def test_worked_value(self):
        # slope of the map at this point is ~105, so the 7-digit rounded
        # input only pins the output to ~5e-6
        assert map_standardized_to_studentized(1.3887301, 3, 1) == pytest.approx(
            5.1961524, abs=1e-5
        )
        assert map_standardized_to_studentized(math.sqrt(27.0 / 14.0), 3, 1) == (
            pytest.approx(math.sqrt(27.0), rel=1e-12)
        )

    def test_agrees_with_table(self):
        rng = np.random.default_rng(33)
        xarr = rng.standard_normal((12, 2))
        table = residual_diagnostics(
            DesignMatrix(xarr), Sample.from_iterable(rng.standard_normal(12))
        )
        for r, t in zip(table.standardized.tolist(), table.studentized.tolist()):
            mapped = map_standardized_to_studentized(r, 12, 2)
            assert mapped == pytest.approx(t, rel=1e-9, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            map_standardized_to_studentized(3.0, 10, 1)  # sqrt(9) boundary
        with pytest.raises(DomainError):
            map_standardized_to_studentized(0.5, 3, 2)

    def test_gap_monotone_in_magnitude(self):
        # |t| - |r| grows strictly with |r| above 1
        n, p1 = 12, 3
        grid = np.linspace(1.0 + 1e-6, math.sqrt(n - p1) - 1e-6, 200)
        gaps = [map_standardized_to_studentized(r, n, p1) - r for r in grid]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestDecisionEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**62),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_four_statistics_agree(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 25))
        p = int(rng.integers(1, 4))
        xarr = rng.standard_normal((n, p))
        xarr[:, 0] = 1.0
        yarr = xarr @ rng.standard_normal(p) + rng.standard_normal(n)
        table = residual_diagnostics(DesignMatrix(xarr), Sample.from_iterable(yarr))
        df = n - p - 1
        t_crit = quantile(student_t(float(df)), 1.0 - alpha / 2.0)
        f_crit = quantile(fisher_f(1.0, float(df)), 1.0 - alpha)
        r_crit = map_critical_r(alpha, n, p)
        cells = zip(table.flagged.tolist(), table.standardized.tolist(),
                    table.studentized.tolist(), table.outlier_p_value.tolist())
        for flagged, r, t, p in cells:
            if flagged:
                continue
            by_t = abs(t) >= t_crit
            by_r = abs(r) >= r_crit
            by_f_trad = t**2 >= f_crit
            by_p = p <= alpha
            assert by_t == by_r == by_f_trad == by_p


def map_critical_r(alpha, n, p):
    """Standardized-scale critical value: invert the Beta law of r^2/(n-p)."""
    from nullform.specfun import beta_params

    b = quantile(beta_params(0.5, 0.5 * (n - p - 1)), 1.0 - alpha)
    return math.sqrt((n - p) * b)


class TestGapRanking:
    def test_synthetic_outlier_ranks_first(self):
        rng = np.random.default_rng(8)
        n = 20
        xarr = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
        yarr = xarr @ np.array([1.0, 2.0]) + rng.standard_normal(n) * 0.5
        yarr[7] += 10.0 * 0.5
        table = residual_diagnostics(DesignMatrix(xarr), Sample.from_iterable(yarr))
        ranked = residual_gaps(table)
        assert ranked[0][0] == 7
        assert ranked[0][1] > ranked[1][1]

    def test_descending_order(self):
        rng = np.random.default_rng(12)
        xarr = rng.standard_normal((15, 2))
        table = residual_diagnostics(
            DesignMatrix(xarr), Sample.from_iterable(rng.standard_normal(15))
        )
        gaps = [g for _, g in residual_gaps(table)]
        assert gaps == sorted(gaps, reverse=True)

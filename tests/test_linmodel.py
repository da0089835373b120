"""Linear model and nested F-test: worked decomposition, numpy lstsq as the
fitting oracle, t-test reduction as the cross-module oracle, and the
equivalence identities on random nested problems."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nullform.diagnostics import residual_diagnostics
from nullform.errors import DomainError, RankDeficiencyError
from nullform.linmodel import (
    DesignMatrix,
    NestedSpec,
    f_geometry,
    fit,
    map_fnull_to_ftrad,
    nested_f_test,
)
from nullform.sample import Sample
from nullform.ttest import t_test


def random_nested_problem(seed, n_min=5, n_max=40, p_max=6):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    p = int(rng.integers(2, min(p_max, n - 1) + 1))
    p1 = int(rng.integers(0, p))
    x = rng.standard_normal((n, p))
    x[:, 0] = 1.0
    beta = rng.standard_normal(p)
    y = x @ beta + rng.standard_normal(n)
    return NestedSpec(DesignMatrix(x), p1), Sample.from_iterable(y)


def exact_sse(columns, y):
    """Residual sum of squares of y on the columns, exactly: the normal
    equations solved by Gauss-Jordan elimination over the rationals."""
    cols = [[Fraction(v) for v in c] for c in columns]
    ys = [Fraction(v) for v in y]
    rhs = [sum(u * v for u, v in zip(c, ys)) for c in cols]
    k = len(cols)
    a = [[sum(u * v for u, v in zip(ci, cj)) for cj in cols] + [b]
         for ci, b in zip(cols, rhs)]
    for j in range(k):
        for i in range(k):
            if i != j:
                factor = a[i][j] / a[j][j]
                a[i] = [u - factor * v for u, v in zip(a[i], a[j])]
    coef = [a[j][k] / a[j][j] for j in range(k)]
    return sum(v * v for v in ys) - sum(b * r for b, r in zip(coef, rhs))


class TestFit:
    def test_intercept_only_is_mean(self):
        res = fit(DesignMatrix([[1.0], [1.0], [1.0]]), Sample.from_iterable([1, 2, 3]))
        assert res.fitted == pytest.approx((2.0, 2.0, 2.0), rel=1e-14)
        assert res.sse == pytest.approx(2.0, rel=1e-13)
        assert res.coefficients == pytest.approx((2.0,), rel=1e-14)
        assert res.df_resid == 2

    def test_simple_regression_worked_example(self):
        x = DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        res = fit(x, Sample.from_iterable([1.0, 2.0, 4.0]))
        assert res.coefficients == pytest.approx((-2.0 / 3.0, 1.5), rel=1e-12)
        assert res.sse == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_projection_idempotence(self):
        rng = np.random.default_rng(7)
        x = DesignMatrix(rng.standard_normal((12, 3)))
        first = fit(x, Sample.from_iterable(rng.standard_normal(12)))
        again = fit(x, Sample.from_iterable(first.fitted))
        scale = max(abs(v) for v in first.fitted)
        assert again.sse <= 1e-9 * scale
        assert again.fitted == pytest.approx(first.fitted, rel=1e-9, abs=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(11)
        xarr = rng.standard_normal((25, 4))
        res = fit(DesignMatrix(xarr), Sample.from_iterable(rng.standard_normal(25)))
        grad = xarr.T @ np.asarray(res.residuals)
        scale = np.abs(xarr).max() * max(abs(v) for v in res.residuals)
        assert np.abs(grad).max() <= 1e-8 * max(scale, 1e-12)

    def test_lstsq_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            p = int(rng.integers(1, min(6, n)))
            xarr = rng.standard_normal((n, p))
            yarr = rng.standard_normal(n)
            res = fit(DesignMatrix(xarr), Sample.from_iterable(yarr))
            beta_ref, *_ = np.linalg.lstsq(xarr, yarr, rcond=None)
            assert res.coefficients == pytest.approx(tuple(beta_ref), rel=1e-8, abs=1e-10)

    def test_rank_deficiency_names_column(self):
        x = DesignMatrix(
            [[1.0, 2.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]],
            labels=("const", "twice_const", "slope"),
        )
        with pytest.raises(RankDeficiencyError) as exc:
            fit(x, Sample.from_iterable([1.0, 2.0, 3.0, 4.0]))
        assert exc.value.column == "twice_const"
        assert "twice_const" in str(exc.value)

    def test_shape_errors(self):
        x = DesignMatrix([[1.0], [1.0]])
        with pytest.raises(DomainError):
            fit(x, Sample.from_iterable([1.0, 2.0, 3.0]))
        square = DesignMatrix([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            fit(square, Sample.from_iterable([1.0, 2.0]))


def test_a_response_of_the_wrong_length_is_an_error_in_every_entry():
    x = DesignMatrix(np.column_stack([np.ones(6), np.arange(6.0)]))
    y = Sample.from_iterable([1.0, 3.0, 2.0, 5.0, 4.0])
    for run in (fit, lambda x, y: nested_f_test(NestedSpec(x, 1), y), residual_diagnostics):
        with pytest.raises(DomainError, match="design has 6 rows but the response has 5"):
            run(x, y)


def test_an_overflowing_sum_of_squares_is_an_error_in_every_entry():
    x = DesignMatrix(np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 5.0]]))
    y = Sample.from_iterable([1e200, -1e200, 3.0, 4.0])
    with pytest.raises(DomainError, match="overflow double precision"):
        t_test(y, 0.0)
    with pytest.raises(DomainError, match="overflow double precision"):
        t_test(Sample.from_iterable([1.0, 2.0, 4.0, 3.0]), 1e308)
    for run in (fit, lambda x, y: nested_f_test(NestedSpec(x, 1), y), residual_diagnostics):
        with pytest.raises(DomainError, match=r"y\.y overflows double precision"):
            run(x, y)
    # sums of squares below n 2^-1022 have lost their relative precision
    for values, mu0 in (([1e-320, 2e-320, 4e-320], 0.0), ([1e-160, 2e-160, 4e-160], 0.0),
                        ([0.0, 1e-170, 3e-170], 1.0)):
        with pytest.raises(DomainError, match="underflow double precision"):
            t_test(Sample.from_iterable(values), mu0)
    tiny = Sample.from_iterable([1e-170, 3e-170, 2e-170, 5e-170])
    for run in (fit, lambda x, y: nested_f_test(NestedSpec(x, 1), y), residual_diagnostics):
        with pytest.raises(DomainError, match=r"1e-24 y\.y underflows double precision"):
            run(x, tiny)


class TestDesignMatrixValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DesignMatrix([[1.0], [math.nan]])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(DomainError):
            DesignMatrix([[1.0, 2.0]], labels=("a",))

    def test_default_labels(self):
        x = DesignMatrix([[1.0, 2.0, 3.0]] * 4)
        assert x.labels == ("x0", "x1", "x2")

    def test_data_is_read_only(self):
        x = DesignMatrix([[1.0], [2.0]])
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0


class TestNestedFTest:
    def test_worked_decomposition(self):
        spec = NestedSpec(DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]), p1=1)
        res = nested_f_test(spec, Sample.from_iterable([1.0, 2.0, 4.0]))
        assert res.sse1 == pytest.approx(14.0 / 3.0, rel=1e-12)
        assert res.sse12 == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert res.ss2given1 == pytest.approx(4.5, rel=1e-12)
        assert res.f_trad == pytest.approx(27.0, rel=1e-10)
        assert res.f_null == pytest.approx(27.0 / 14.0, rel=1e-10)
        assert res.cos2_theta == pytest.approx(27.0 / 28.0, rel=1e-12)
        assert res.dims == (3, 1, 1)
        assert not res.saturated

    def test_no_reduction_block(self):
        # X2 orthogonal to both y and X1: adding it buys nothing
        x = DesignMatrix([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
        y = Sample.from_iterable([1.0, 1.0, 2.0, 2.0])
        res = nested_f_test(NestedSpec(x, p1=1), y)
        assert res.f_trad == pytest.approx(0.0, abs=1e-12)
        assert res.f_null == pytest.approx(0.0, abs=1e-12)
        assert res.p_value_f == pytest.approx(1.0, abs=1e-12)
        assert res.p_value_beta == pytest.approx(1.0, abs=1e-12)

    def test_saturated_full_model(self):
        spec = NestedSpec(DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]), p1=1)
        res = nested_f_test(spec, Sample.from_iterable([1.0, 2.0, 3.0]))
        assert res.saturated
        assert res.f_trad == math.inf
        assert res.f_null == pytest.approx((3 - 1) / 1, rel=1e-12)
        assert res.p_value_f == 0.0
        assert res.p_value_beta == 0.0

    def test_reduced_model_exact_fit_is_domain_error(self):
        spec = NestedSpec(DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]), p1=1)
        with pytest.raises(DomainError):
            nested_f_test(spec, Sample.from_iterable([5.0, 5.0, 5.0]))

    def test_t_test_is_special_case(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            y = rng.standard_normal(n) * 2.0 + 0.4
            spec = NestedSpec(DesignMatrix(np.ones((n, 1))), p1=0)
            fres = nested_f_test(spec, Sample.from_iterable(y))
            tres = t_test(Sample.from_iterable(y), 0.0)
            assert fres.f_trad == pytest.approx(tres.t**2, rel=1e-10)
            assert fres.f_null == pytest.approx(tres.t0**2, rel=1e-10)
            assert fres.p_value_f == pytest.approx(tres.p_value_t, abs=1e-12)
            assert fres.p_value_beta == pytest.approx(tres.p_value_t0, abs=1e-12)


    @pytest.mark.parametrize("p1", [0, 1])
    @pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_exact_oracle_near_the_null(self, p1, ratio):
        # SS_{2|1} / SSE_1 = ratio: the tested column explains almost nothing,
        # so SSE_1 - SSE_12 would cancel; the exact rational oracle sees the
        # float inputs as they are
        rng = np.random.default_rng(29)
        n, p = 12, 3
        x = rng.standard_normal((n, p))
        x[:, 0] = 1.0
        resid = rng.standard_normal(n)
        resid -= x @ np.linalg.lstsq(x, resid, rcond=None)[0]
        x1, tested = x[:, :p1], x[:, p1]
        z = tested - x1 @ np.linalg.lstsq(x1, tested, rcond=None)[0] if p1 else tested
        scale = math.sqrt(ratio / (1.0 - ratio)) * np.linalg.norm(resid) / np.linalg.norm(z)
        y = x1 @ rng.uniform(1.0, 3.0, p1) + resid + scale * z
        cols = [x[:, j] for j in range(p)]
        full = exact_sse(cols, y)
        reduced = exact_sse(cols[:p1], y)
        ss2 = reduced - full
        assert abs(float(ss2 / reduced) - ratio) < 0.01 * ratio
        f_trad = float((ss2 / (p - p1)) / (full / (n - p)))
        f_null = float((ss2 / (p - p1)) / (reduced / (n - p1)))
        res = nested_f_test(NestedSpec(DesignMatrix(x), p1), Sample.from_iterable(y))
        assert res.f_trad == pytest.approx(f_trad, rel=1e-9, abs=0.0)
        assert res.f_null == pytest.approx(f_null, rel=1e-9, abs=0.0)


class TestMapFnullToFtrad:
    def test_zero(self):
        assert map_fnull_to_ftrad(0.0, 10, 2, 3) == 0.0

    def test_worked_value(self):
        assert map_fnull_to_ftrad(27.0 / 14.0, 3, 1, 1) == pytest.approx(27.0, rel=1e-12)

    def test_matches_t_squared_map(self):
        from nullform.ttest import map_t0_to_t

        t0 = 1.6035675
        mapped_f = map_fnull_to_ftrad(t0 * t0, 3, 0, 1)
        mapped_t = map_t0_to_t(t0, 3)
        assert mapped_f == pytest.approx(mapped_t**2, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            map_fnull_to_ftrad(-0.1, 10, 2, 3)
        with pytest.raises(DomainError):
            map_fnull_to_ftrad(4.0, 10, 2, 2)  # supremum is (10-2)/2 = 4
        with pytest.raises(DomainError):
            map_fnull_to_ftrad(1.0, 5, 2, 3)  # n = p1 + p2

    @settings(max_examples=150)
    @given(
        n=st.integers(min_value=4, max_value=50),
        p1=st.integers(min_value=0, max_value=5),
        p2=st.integers(min_value=1, max_value=5),
        u1=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
        u2=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    )
    def test_strictly_increasing(self, n, p1, p2, u1, u2):
        assume(n > p1 + p2)
        assume(u1 != u2)
        sup = (n - p1) / p2
        lo, hi = sorted([u1 * sup, u2 * sup])
        assume(lo < hi < sup)
        assert map_fnull_to_ftrad(lo, n, p1, p2) < map_fnull_to_ftrad(hi, n, p1, p2)


class TestFGeometry:
    def test_worked_triangle(self):
        spec = NestedSpec(DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]), p1=1)
        g = f_geometry(spec, Sample.from_iterable([1.0, 2.0, 4.0]))
        assert g.a == pytest.approx(math.sqrt(14.0 / 3.0), rel=1e-12)
        assert g.b == pytest.approx(math.sqrt(4.5), rel=1e-12)
        assert g.c == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)
        assert math.cos(g.theta) ** 2 == pytest.approx(27.0 / 28.0, rel=1e-10)

    def test_right_angle_when_no_reduction(self):
        x = DesignMatrix([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
        g = f_geometry(NestedSpec(x, p1=1), Sample.from_iterable([1.0, 1.0, 2.0, 2.0]))
        assert g.theta == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_zero_angle_when_saturated(self):
        spec = NestedSpec(DesignMatrix([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]), p1=1)
        g = f_geometry(spec, Sample.from_iterable([1.0, 2.0, 3.0]))
        assert g.theta == pytest.approx(0.0, abs=1e-7)

    def test_trig_identities(self):
        spec, y = random_nested_problem(91)
        res = nested_f_test(spec, y)
        g = f_geometry(spec, y)
        n, p1, p2 = res.dims
        cos2 = math.cos(g.theta) ** 2
        cot2 = cos2 / (1.0 - cos2)
        assert res.f_null == pytest.approx((n - p1) / p2 * cos2, rel=1e-10)
        assert res.f_trad == pytest.approx((n - p1 - p2) / p2 * cot2, rel=1e-10)


class TestRandomizedIdentities:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    @example(seed=701005)  # SSE_1/SSE_12 = 2.07e6: the map misses by 1.36e-10
    def test_decomposition_and_routes(self, seed):
        spec, y = random_nested_problem(seed)
        res = nested_f_test(spec, y)
        assume(not res.saturated)
        n, p1, p2 = res.dims
        assert res.sse1 == pytest.approx(res.ss2given1 + res.sse12, rel=1e-12)
        assert res.ss2given1 >= -1e-12 * res.sse1
        assert p2 * res.f_null / (n - p1) == pytest.approx(res.cos2_theta, rel=1e-10)
        # the map's relative condition number is SSE_1/SSE_12: a rounding of
        # f_null is amplified by it, so the bound is 1e-10 or 8 eps of that
        amplified = 8 * sys.float_info.epsilon * res.sse1 / res.sse12
        assert map_fnull_to_ftrad(res.f_null, n, p1, p2) == pytest.approx(
            res.f_trad, rel=max(1e-10, amplified)
        )
        assert abs(res.p_value_f - res.p_value_beta) <= 1e-10

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_decision_equivalence(self, seed, alpha):
        from nullform.specfun import beta_params, fisher_f, quantile

        spec, y = random_nested_problem(seed)
        res = nested_f_test(spec, y)
        assume(not res.saturated)
        n, p1, p2 = res.dims
        f_crit = quantile(fisher_f(float(p2), float(n - p1 - p2)), 1.0 - alpha)
        beta_crit = quantile(beta_params(0.5 * p2, 0.5 * (n - p1 - p2)), 1.0 - alpha)
        null_crit = beta_crit * (n - p1) / p2
        assert (res.f_trad >= f_crit) == (res.f_null >= null_crit)

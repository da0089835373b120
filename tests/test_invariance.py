"""Each test's invariance group as a checked contract.

Every statistic the package reports is a function of angles between the
response and the design's column spaces, so it cannot see the units of a
design column, the units of y, a shift of y or of X2 along X1, or, for t, a
reflection of the data about mu0.  Where the group acts exactly in floating
point (a power of two that keeps every squared term normal) the outputs must
be bit-identical; where it acts only through the rounding of the moved data,
they must agree within a fixed multiple of that rounding.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nullform.diagnostics import residual_diagnostics
from nullform.errors import DomainError
from nullform.linmodel import DesignMatrix, NestedSpec, fit, nested_f_test
from nullform.sample import Sample
from nullform.svgplot import emit_residual_plots
from nullform.ttest import t_test

U = sys.float_info.epsilon / 2
TINY = sys.float_info.min
# t and t0 of y and mu0 scaled by 2^k, when some squared term is subnormal
T_NEAR_GUARD_ULPS = 2
# |dF| / F after y -> y + X1 b, in units of u ||y'||_inf sqrt(n) (1/b + 1/c),
# the rounding of the shifted response carried through the triangle's legs
Y_SHIFT_ROUNDINGS = 8
# |dF| / F after X2 -> X2 + X1 D, in units of u kappa(X') ||y|| (1/b + 1/c),
# kappa the condition number of X' with unit columns
X_SHIFT_ROUNDINGS = 4

F_STATS = ("f_trad", "f_null", "p_value_f", "p_value_beta", "cos2_theta")


def design_problem(seed, n_min=6, n_max=40, p_max=5):
    """A random intercept design, a response and a nested width p1 >= 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    p = int(rng.integers(2, min(p_max, n - 2) + 1))
    p1 = int(rng.integers(1, p))
    x = rng.standard_normal((n, p))
    x[:, 0] = 1.0
    y = x @ rng.standard_normal(p) + rng.standard_normal(n)
    return x, y, p1


def outputs(x, y, p1):
    """Every statistic of the nested test and of the diagnostics, as text."""
    design, response = DesignMatrix(x), Sample.from_iterable(y)
    res = nested_f_test(NestedSpec(design, p1), response)
    table = residual_diagnostics(design, response)
    columns = {name: repr(getattr(table, name).tolist()) for name in table.COLUMNS}
    return repr(res), columns, repr(table.fitted.tolist())


def ldexp(x, k):
    """x 2^k, inf past the range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


def ulps(a, b):
    """|a - b| in units in the last place of b, for arrays; NaN and inf must match."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    finite = np.isfinite(b)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(a[np.isinf(b)], b[np.isinf(b)]) and np.all(np.isfinite(a[finite]))
    return float(np.max(np.abs(a[finite] - b[finite]) / np.spacing(np.abs(b[finite])),
                        initial=0.0))


class TestDesignColumnScale:
    """A design column scaled by 2^k spans the same space."""

    def test_every_column_over_two_thousand_binades(self):
        x = np.random.default_rng(5).standard_normal((25, 4))
        x[:, 0] = 1.0
        y = x @ np.array([0.5, -1.0, 2.0, 0.25]) + np.random.default_rng(6).standard_normal(25)
        base = outputs(x, y, 2)
        table = residual_diagnostics(DesignMatrix(x), Sample.from_iterable(y))
        svg = emit_residual_plots(table, table.fitted)
        for j in range(4):
            for k in range(-1000, 1001, 25):
                scaled = x.copy()
                scaled[:, j] *= 2.0 ** k
                assert outputs(scaled, y, 2) == base, (j, k)
                if k % 250 == 0:
                    t = residual_diagnostics(DesignMatrix(scaled), Sample.from_iterable(y))
                    assert emit_residual_plots(t, t.fitted) == svg, (j, k)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-960, 960), data=st.data())
    def test_random_designs(self, seed, k, data):
        x, y, p1 = design_problem(seed)
        j = data.draw(st.integers(0, x.shape[1] - 1))
        scaled = x.copy()
        scaled[:, j] *= 2.0 ** k
        assert outputs(scaled, y, p1) == outputs(x, y, p1)

    def test_fit_coefficients_scale_back(self):
        rng = np.random.default_rng(30)
        x, y = rng.standard_normal(30), Sample.from_iterable(rng.standard_normal(30))
        base = fit(DesignMatrix(np.column_stack([np.ones(30), x])), y)
        for k in (-900, -37, 37, 900):
            res = fit(DesignMatrix(np.column_stack([np.ones(30), x * 2.0 ** k])), y)
            assert res.coefficients[1] * 2.0 ** k == base.coefficients[1]
            assert res.coefficients[0] == base.coefficients[0]
            assert np.array_equal(res.residuals, base.residuals)


def squares_of_f_terms(x, y):
    """The squared terms a nested test and the diagnostics sum: residuals and
    effects Q^T y."""
    q, _ = np.linalg.qr(x)
    e = fit(DesignMatrix(x), Sample.from_iterable(y)).residuals
    terms = np.concatenate([e * e, (q.T @ y) ** 2])
    return terms[terms > 0]


class TestResponseScale:
    """y (and mu0) scaled by 2^k: every angle stays where it was."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_t_and_t0(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        values, mu0 = rng.uniform(-3.0, 3.0, n), float(rng.uniform(-3.0, 3.0))
        base = t_test(Sample.from_iterable(values), mu0)
        squares = [s for s in [*((values - base.mean) ** 2), *((values - mu0) ** 2),
                               base.sst, base.s0_2 / n, base.s2 / n] if s > 0]
        sums = (base.ssto, base.sse, base.sst)
        near = range(-560, -440), range(440, 560)
        for k in sorted({*range(-1000, 1001, 23), *near[0], *near[1]}):
            try:
                res = t_test(Sample.from_iterable(values * 2.0 ** k), mu0 * 2.0 ** k)
            except DomainError:
                # only the guards raise: some sum under n^2 2^-1022 or past the range
                assert (min(ldexp(s, 2 * k) for s in sums if s > 0) < n * n * TINY
                        or not all(ldexp(s, 2 * k) < math.inf for s in sums)), k
                continue
            if min(ldexp(s, 2 * k) for s in squares) >= TINY:
                assert (res.t, res.t0, res.p_value_t, res.p_value_t0) == (
                    base.t, base.t0, base.p_value_t, base.p_value_t0), k
            else:
                assert ulps([res.t, res.t0], [base.t, base.t0]) <= T_NEAR_GUARD_ULPS, k

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nested_test_and_diagnostics(self, seed):
        x, y, p1 = design_problem(seed)
        design, spec = DesignMatrix(x), NestedSpec(DesignMatrix(x), p1)
        base = nested_f_test(spec, Sample.from_iterable(y))
        table = residual_diagnostics(design, Sample.from_iterable(y))
        squares = squares_of_f_terms(x, y)
        for k in sorted({*range(-1000, 1001, 23), *range(-500, -440), *range(490, 520)}):
            scale = 2.0 ** k
            try:
                res = nested_f_test(spec, Sample.from_iterable(y * scale))
                scaled = residual_diagnostics(design, Sample.from_iterable(y * scale))
            except DomainError:
                # the exact-fit threshold 1e-24 y.y under 2^-1022, or y.y past the range
                yy = ldexp(float(y @ y), 2 * k)
                assert 1e-24 * yy < TINY or yy == math.inf, k
                continue
            assert (res.saturated, res.dims) == (base.saturated, base.dims)
            free = [c for c in table.COLUMNS if c != "raw_residual"]
            new = [*(getattr(res, name) for name in F_STATS),
                   *(getattr(scaled, c) for c in free),
                   scaled.raw_residual / scale, scaled.fitted / scale]
            old = [*(getattr(base, name) for name in F_STATS),
                   *(getattr(table, c) for c in free), table.raw_residual, table.fitted]
            if min(ldexp(s, 2 * k) for s in squares) >= TINY:
                assert repr([np.asarray(v).tolist() for v in new]) == repr(
                    [np.asarray(v).tolist() for v in old]), k
            else:
                assert max(ulps(a, b) for a, b in zip(new, old)) <= T_NEAR_GUARD_ULPS, k


def nested_f(x, y, p1):
    return nested_f_test(NestedSpec(DesignMatrix(x), p1), Sample.from_iterable(y))


def legs(res):
    """1/b + 1/c of the nested test's triangle: the legs sqrt(SS_{2|1}) and
    sqrt(SSE_12), the sensitivity of its angle to a move of y."""
    return 1.0 / math.sqrt(res.ss2given1) + 1.0 / math.sqrt(res.sse12)


def relative_moves(res, base):
    return max(abs(res.f_trad / base.f_trad - 1.0), abs(res.f_null / base.f_null - 1.0))


class TestShiftAlongX1:
    """y -> y + X1 b and X2 -> X2 + X1 D leave every projection onto and
    off the reduced column space where it was; only the rounding of the
    shifted data moves F."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.floats(0.0, 8.0))
    def test_response_shift(self, seed, size):
        x, y, p1 = design_problem(seed)
        base = nested_f(x, y, p1)
        b = 10.0 ** size * np.random.default_rng(seed + 1).standard_normal(p1)
        shifted = y + x[:, :p1] @ b
        res = nested_f(x, shifted, p1)
        rounding = U * np.max(np.abs(shifted)) * math.sqrt(len(y)) * legs(base)
        assert relative_moves(res, base) <= Y_SHIFT_ROUNDINGS * rounding

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.floats(0.0, 8.0))
    def test_design_shift(self, seed, size):
        x, y, p1 = design_problem(seed)
        base = nested_f(x, y, p1)
        rng = np.random.default_rng(seed + 1)
        d = 10.0 ** size * rng.standard_normal((p1, x.shape[1] - p1))
        shifted = x.copy()
        shifted[:, p1:] += x[:, :p1] @ d
        res = nested_f(shifted, y, p1)
        kappa = np.linalg.cond(shifted / np.linalg.norm(shifted, axis=0))
        rounding = U * kappa * np.linalg.norm(y) * legs(base)
        assert relative_moves(res, base) <= X_SHIFT_ROUNDINGS * rounding


class TestReflectionAboutMu0:
    """y -> mu0 + a (y - mu0) scales the data's deviations from mu0 by a: t
    and t0 keep their values for a > 0 and change sign for a < 0."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           a=st.sampled_from([2.0 ** -4, 0.25, 1.0, 4.0, 2.0 ** 8]),
           sign=st.sampled_from([1.0, -1.0]))
    def test_powers_of_two_are_exact(self, seed, a, sign):
        # integer deviations whose sum is a multiple of n, and mu0 and a of
        # few bits, keep the moved data, its mean and every operation on it
        # exact
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        d = rng.integers(-1000, 1001, n).astype(float)
        d[-1] -= np.sum(d) % n - n * int(rng.integers(-3, 4))
        mu0 = float(rng.integers(-1023, 1024)) * 2.0 ** int(rng.integers(-8, 9))
        base = t_test(Sample.from_iterable(mu0 + d), mu0)
        res = t_test(Sample.from_iterable(mu0 + sign * a * d), mu0)
        assert (res.t, res.t0) == (sign * base.t, sign * base.t0)
        assert (res.p_value_t, res.p_value_t0) == (base.p_value_t, base.p_value_t0)

"""Tests for the special-function kernel.

Expected values come from three independent sources: hand-computable closed
forms (integer factorials, the arcsine law, Cauchy and exponential CDFs),
scipy.special / scipy.stats as an external oracle, and internal consistency
identities (symmetry, complement, cross-family) checked as properties.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sps
from scipy import stats as sst

from nullform import specfun
from nullform.errors import DomainError
from nullform.specfun import (
    _CF_MAX_ITER,
    _CF_TOL,
    _TINY,
    DistParams,
    Family,
    _beta_args,
    _beta_cf,
    _beta_cf_array,
    _reg_inc_beta_array,
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


class TestLogGamma:
    def test_integer_factorials(self):
        # Gamma(n) = (n-1)!, hand-checkable
        fact = 1
        for n in range(2, 15):
            fact *= n - 1
            assert log_gamma(float(n)) == pytest.approx(math.log(fact), rel=1e-14)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_three_halves(self):
        # Gamma(3/2) = sqrt(pi)/2
        assert log_gamma(1.5) == pytest.approx(math.log(math.sqrt(math.pi) / 2), rel=1e-13)

    def test_reflection_region(self):
        # x < 0.5 goes through the reflection path
        assert log_gamma(0.25) == pytest.approx(sps.gammaln(0.25), rel=1e-13)
        assert log_gamma(0.01) == pytest.approx(sps.gammaln(0.01), rel=1e-13)

    def test_scipy_grid(self):
        for x in [0.1, 0.7, 1.0, 2.5, 7.3, 42.0, 171.5, 1e4]:
            assert log_gamma(x) == pytest.approx(sps.gammaln(x), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)
        with pytest.raises(DomainError):
            log_gamma(math.nan)

    def test_log_beta(self):
        # B(2,3) = 1!2!/4! = 1/12
        assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-13)


class TestRegIncBeta:
    def test_closed_form_linear(self):
        # I_x(1, 2) = 1 - (1-x)^2
        assert reg_inc_beta(0.3, 1.0, 2.0) == pytest.approx(1.0 - 0.49, abs=1e-15)

    def test_uniform(self):
        # I_x(1, 1) = x
        for x in [0.0, 0.25, 0.5, 0.75, 1.0]:
            assert reg_inc_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)

    def test_arcsine_law(self):
        # I_x(1/2, 1/2) = (2/pi) asin(sqrt(x))
        for x in [0.1, 0.5, 0.9]:
            expect = 2.0 / math.pi * math.asin(math.sqrt(x))
            assert reg_inc_beta(x, 0.5, 0.5) == pytest.approx(expect, abs=1e-13)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    def test_scipy_grid(self):
        shapes = [(0.5, 0.5), (1.0, 9.5), (2.0, 3.0), (10.0, 0.5), (50.0, 50.0), (0.5, 200.0)]
        xs = [1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6]
        for a, b in shapes:
            for x in xs:
                assert reg_inc_beta(x, a, b) == pytest.approx(
                    float(sps.betainc(a, b, x)), rel=1e-12, abs=1e-14
                )

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 1.0, -2.0)

    @settings(max_examples=200)
    @given(
        # draw the larger argument in [0.5, 1): there 1-y is exact (Sterbenz),
        # so x and y are true complements and no input rounding leaks into
        # the identity, even where small a and b make I_x steep in log x
        y=st.floats(min_value=0.5, max_value=1.0 - 1e-6),
        a=st.floats(min_value=0.05, max_value=150.0),
        b=st.floats(min_value=0.05, max_value=150.0),
    )
    def test_complement_symmetry(self, y, a, b):
        # I_x(a,b) + I_{1-x}(b,a) = 1
        x = 1.0 - y
        assert reg_inc_beta(x, a, b) + reg_inc_beta(y, b, a) == pytest.approx(
            1.0, abs=1e-12
        )
        assert reg_inc_beta(y, a, b) + reg_inc_beta(x, b, a) == pytest.approx(
            1.0, abs=1e-12
        )


class TestArrayPath:
    """The array kernel against the scalar code it batches.

    Both take each element through the same branch and continued fraction;
    they differ only where numpy's log, log1p and exp round differently from
    the math module's (a few percent of inputs, by one ulp).  That ulp is
    multiplied by the exponent a log x + b log1p(-x) - log B(a, b) of the
    front factor, so the tolerance is 1e-13 relative or, for shapes in the
    hundreds, twice that exponent's own rounding scale.
    """

    @settings(max_examples=300)
    @given(
        a=st.floats(min_value=0.5, max_value=500.0),
        b=st.floats(min_value=0.5, max_value=500.0),
        offsets=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=20),
    )
    def test_matches_scalar_on_both_sides_of_the_crossover(self, a, b, offsets):
        cross = (a + 1.0) / (a + b + 2.0)
        xs = [0.0, 1.0, cross, math.nextafter(cross, 0.0)]
        xs += [min(max(cross + o, 0.0), 1.0) for o in offsets]
        got = _reg_inc_beta_array(np.array(xs), a, b)
        for x, g in zip(xs, got):
            want = reg_inc_beta(x, a, b)
            if x in (0.0, 1.0):
                assert g == want
                continue
            exponent = a * abs(math.log(x)) + b * abs(math.log1p(-x)) + abs(log_beta(a, b))
            rel = max(1e-13, 2.0 * exponent * 2.0**-52)
            assert g == pytest.approx(want, rel=rel, abs=0.0)

    def test_public_entry_rejects_nan_and_clips_beta_points(self):
        # the kernel checks nothing: cdf_array refuses NaN and clips Beta
        # points into [0, 1] before it runs
        with pytest.raises(DomainError, match="non-NaN"):
            cdf_array(beta_params(1.0, 1.0), np.array([0.5, math.nan]))
        got = cdf_array(beta_params(2.0, 3.0), np.array([-0.5, -0.0, 0.25, 1.0, 1.1, math.inf]))
        want = [0.0, 0.0, reg_inc_beta(0.25, 2.0, 3.0), 1.0, 1.0, 1.0]
        assert _hex(got) == _hex(want)

    @pytest.mark.parametrize("dist", [
        student_t(1.0), student_t(3.0), student_t(0.7), student_t(250.0),
        fisher_f(1.0, 5.0), fisher_f(2.0, 16.0), fisher_f(30.0, 0.8),
        beta_params(0.5, 4.5), beta_params(1.0, 8.0), beta_params(40.0, 2.0),
    ])
    def test_cdf_array_matches_cdf(self, dist):
        special = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 1e-300, 2.0, 1e300, -1e300]
        grid = np.linspace(-6.0, 6.0, 97).tolist()
        xs = special + grid + [v * v for v in grid]
        got = cdf_array(dist, np.array(xs))
        for x, g in zip(xs, got):
            want = cdf(dist, x)
            if x in special:
                assert g == want, x
            else:
                assert g == pytest.approx(want, rel=1e-13, abs=0.0), x

    def test_cdf_array_keeps_shape_and_empty_input(self):
        got = cdf_array(student_t(4.0), np.array([[0.0, 1.0], [-1.0, math.inf]]))
        assert got.shape == (2, 2)
        assert got[0, 0] == 0.5 and got[1, 1] == 1.0
        assert cdf_array(fisher_f(2.0, 3.0), np.array([])).size == 0

    def test_cdf_array_rejects_nan_and_chi_square(self):
        for dist in (student_t(3.0), fisher_f(2.0, 3.0), beta_params(2.0, 3.0)):
            with pytest.raises(DomainError):
                cdf_array(dist, np.array([0.5, math.nan]))
        with pytest.raises(DomainError):
            cdf_array(chi_square(3.0), np.array([1.0]))
        with pytest.raises(DomainError):
            cdf_array(fisher_f(2.0, -1.0), np.array([1.0]))

    @pytest.mark.parametrize("dist", [student_t(3.0), fisher_f(2.0, 3.0), beta_params(2.0, 3.0)])
    def test_cdf_array_reads_ints_past_the_float_range_as_cdf_does(self, dist):
        # numpy cannot convert 10**400 to a double; cdf reads it as +-inf
        row = [10**400, -(10**400), 0.5, 2]
        got = cdf_array(dist, row)
        assert got.dtype == np.float64
        assert _hex(got) == _hex([cdf(dist, v) for v in row])
        grid = cdf_array(dist, [row, row[::-1]])
        assert grid.shape == (2, 4)
        assert _hex(grid.ravel()) == _hex([cdf(dist, v) for v in row + row[::-1]])
        with pytest.raises(DomainError, match="cdf_array requires non-NaN evaluation points"):
            cdf_array(dist, [10**400, math.nan])
        with pytest.raises(DomainError, match="cdf_array has no path for chi_square; use cdf"):
            cdf_array(chi_square(3.0), [10**400, 1.0])

    @pytest.mark.parametrize("run, message", [
        (lambda z: pdf(student_t(3.0), z), "pdf requires a non-NaN evaluation point"),
        (std_normal_cdf, "std_normal_cdf requires a non-NaN argument"),
        (two_sided_normal_p, "two_sided_normal_p requires a non-NaN argument"),
    ])
    def test_scalar_entries_refuse_nan(self, run, message):
        with pytest.raises(DomainError, match=message):
            run(math.nan)


def law_level_cdf(d, x):
    """cdf's t and F branches as they were before the shared reduction, one
    reduction per law, kept as the oracle of `cdf`."""
    x = float(x)
    if d.family is Family.STUDENT_T:
        if math.isinf(x):
            return 1.0 if x > 0 else 0.0
        if x == 0.0:
            return 0.5
        nu = d.df1
        t2 = x * x
        if t2 >= nu:
            tail = 0.5 * reg_inc_beta(nu / (nu + t2), 0.5 * nu, 0.5)
        else:
            tail = 0.5 * (1.0 - reg_inc_beta(t2 / (nu + t2), 0.5, 0.5 * nu))
        return 1.0 - tail if x > 0 else tail
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    d1, d2 = d.df1, d.df2
    if d1 * x <= d2:
        return reg_inc_beta(d1 * x / (d1 * x + d2), 0.5 * d1, 0.5 * d2)
    return 1.0 - reg_inc_beta(d2 / (d1 * x + d2), 0.5 * d2, 0.5 * d1)


def law_level_cdf_array(d, x):
    """cdf_array's t and F branches as they were before the shared
    reduction, kept as the oracle of `cdf_array`."""
    x = np.asarray(x, dtype=np.float64)
    if d.family is Family.STUDENT_T:
        nu = d.df1
        with np.errstate(over="ignore"):
            t2 = x * x
        far = t2 >= nu
        near = ~far
        tail = np.empty_like(x)
        tail[far] = 0.5 * _reg_inc_beta_array(nu / (nu + t2[far]), 0.5 * nu, 0.5)
        tail[near] = 0.5 * (
            1.0 - _reg_inc_beta_array(t2[near] / (nu + t2[near]), 0.5, 0.5 * nu)
        )
        return np.where(x > 0, 1.0 - tail, tail)
    d1, d2 = d.df1, d.df2
    with np.errstate(over="ignore"):
        dx = d1 * x
    out = np.zeros_like(x)
    lower = (x > 0.0) & (dx <= d2)
    upper = dx > d2
    out[lower] = _reg_inc_beta_array(dx[lower] / (dx[lower] + d2), 0.5 * d1, 0.5 * d2)
    out[upper] = 1.0 - _reg_inc_beta_array(d2 / (dx[upper] + d2), 0.5 * d2, 0.5 * d1)
    return out


# ties of the branch split: t^2 = nu and d1 x = d2, each on both sides of 0
# for t; the second t tie is where a split oriented as (x^2, nu) loses the
# whole tail to cancellation
_NU = 177.49467535905174
TIES = [
    (student_t(9.0), 3.0), (student_t(9.0), -3.0),
    (student_t(_NU), math.sqrt(_NU)), (student_t(_NU), -math.sqrt(_NU)),
    (fisher_f(100.0, 5.0), 0.05), (fisher_f(4.0, 2.0), 0.5), (fisher_f(3.0, 1.0), 1.0 / 3.0),
]
SPECIAL = [0.0, -0.0, math.inf, -math.inf, 1e300, -1e300, -5e-324, 5e-324, -1.0]


def _hex(values):
    return [float(v).hex() for v in values]


class TestOneReduction:
    """t and F through `_beta_args` and one split, against the law-level
    branches they replace: equal bit for bit, ties and special points
    included, in both kernels."""

    def test_ties_are_exact(self):
        for d, x in TIES:
            if d.family is Family.STUDENT_T:
                assert x * x == d.df1
            else:
                assert d.df1 * x == d.df2

    @pytest.mark.parametrize("d, x", TIES)
    def test_ties_match_law_level_branches(self, d, x):
        xs = [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        assert _hex(cdf(d, v) for v in xs) == _hex(law_level_cdf(d, v) for v in xs)
        assert _hex(cdf_array(d, np.array(xs))) == _hex(law_level_cdf_array(d, np.array(xs)))

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from([Family.STUDENT_T, Family.FISHER_F]),
        df1=st.floats(min_value=0.1, max_value=1000.0),
        df2=st.floats(min_value=0.1, max_value=1000.0),
        xs=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20),
    )
    def test_matches_law_level_branches(self, family, df1, df2, xs):
        d = DistParams(family, df1, df2)
        # the tie of this law and its neighbours, then the special points
        tie = math.sqrt(df1) if family is Family.STUDENT_T else df2 / df1
        xs = xs + [tie, -tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
        xs += SPECIAL
        assert _hex(cdf(d, x) for x in xs) == _hex(law_level_cdf(d, x) for x in xs)
        assert _hex(cdf_array(d, np.array(xs))) == _hex(law_level_cdf_array(d, np.array(xs)))

    def test_two_dimensional_and_empty_arrays(self):
        for d in (student_t(3.0), fisher_f(2.0, 7.0)):
            x = np.array([SPECIAL[:3], [-2.0, 0.5, 40.0]])
            got = cdf_array(d, x)
            assert got.shape == (2, 3)
            assert _hex(got.ravel()) == _hex(law_level_cdf_array(d, x).ravel())
            assert cdf_array(d, np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("d, x, want", [
        (student_t(_NU), -math.sqrt(_NU), sst.t.cdf(-math.sqrt(_NU), _NU)),
        (fisher_f(100.0, 5.0), 0.05, sst.f.cdf(0.05, 100.0, 5.0)),
    ])
    def test_tie_tails_against_scipy(self, d, x, want):
        # both values are far below 1 (8.1e-29 and 8.9e-14), so a branch
        # that forms them as 1 - I loses most or all of their digits
        assert cdf(d, x) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert cdf_array(d, np.array([x]))[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, xs", [
        # every |t| below sqrt(nu): the low side is empty
        (student_t(9.0), [0.0, -0.0, 1.5, -2.9, 1e-300, math.nextafter(3.0, 0.0)]),
        # every |t| at or beyond sqrt(nu): the high side is empty
        (student_t(9.0), [3.0, -3.0, 40.0, -1e300, math.inf]),
        # d1 x above d2 everywhere, then at or below it, then never positive
        (fisher_f(4.0, 2.0), [0.6, 3.0, 1e300, math.inf]),
        (fisher_f(4.0, 2.0), [0.5, 0.25, 5e-324]),
        (fisher_f(4.0, 2.0), [0.0, -0.0, -1.0, -math.inf]),
        (fisher_f(4.0, 2.0), []),
    ])
    def test_one_sided_and_empty_splits(self, d, xs, monkeypatch):
        x = np.array(xs, dtype=np.float64)
        with np.errstate(over="ignore"):
            args = _beta_args(d, x)
        # the split as it was, evaluating both sides even when one is empty
        z, c = np.broadcast_arrays(*args[:2])
        a, b = args[2:]
        both = np.zeros(z.shape)
        low = (z > 0.0) & (z <= c)
        high = z > c
        both[low] = _reg_inc_beta_array(z[low] / (z[low] + c[low]), a, b)
        both[high] = 1.0 - _reg_inc_beta_array(c[high] / (z[high] + c[high]), b, a)
        assert _hex(cdf_array(d, x)) == _hex(law_level_cdf_array(d, x))
        sizes = []

        def kernel(u, a, b):
            sizes.append(u.size)
            return _reg_inc_beta_array(u, a, b)

        monkeypatch.setattr(specfun, "_reg_inc_beta_array", kernel)
        assert _hex(specfun._beta_at_array(*args)) == _hex(both)
        # one kernel call per side that holds an element, none on an empty one
        assert sorted(sizes) == sorted(n for n in (low.sum(), high.sum()) if n)


def two_step_beta_cf(a, b, x):
    """_beta_cf as it was with its even and odd Lentz half-steps written out
    in full, kept as the oracle of `_beta_cf`."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            return h
    raise AssertionError("no convergence")


def two_step_beta_cf_array(a, b, x):
    """_beta_cf_array as it was with its half-steps written out in full, kept
    as the oracle of `_beta_cf_array`."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    live = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
    h = d
    m = 0
    while live.size:
        m += 1
        assert m <= _CF_MAX_ITER
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        h = h * (d * c)
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _TINY, _TINY, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live, x, c, d, h = live[keep], x[keep], c[keep], d[keep], h[keep]
    return out


class TestLentzHalfSteps:
    """Each kernel's half-steps, looped over the step's two coefficients,
    against the two written out in full: equal bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(min_value=0.01, max_value=1e4),
        b=st.floats(min_value=0.01, max_value=1e4),
        fractions=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                           min_size=1, max_size=20),
    )
    def test_matches_the_written_out_half_steps(self, a, b, fractions):
        # x up to the crossover (a+1)/(a+b+2), where reg_inc_beta calls the
        # fraction directly; the tail call swaps a and b at 1 - x
        xs = np.array(fractions) * ((a + 1.0) / (a + b + 2.0))
        assert _hex(_beta_cf(a, b, x) for x in xs) == _hex(two_step_beta_cf(a, b, x) for x in xs)
        assert _hex(_beta_cf_array(a, b, xs)) == _hex(two_step_beta_cf_array(a, b, xs))


class TestRegIncGammaLower:
    def test_exponential_closed_form(self):
        # P(1, x) = 1 - e^{-x}
        for x in [0.1, 1.0, 5.0, 30.0]:
            assert reg_inc_gamma_lower(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)

    def test_erlang_two(self):
        # P(2, x) = 1 - (1+x) e^{-x}
        x = 2.0
        assert reg_inc_gamma_lower(2.0, x) == pytest.approx(
            1.0 - (1.0 + x) * math.exp(-x), rel=1e-13
        )

    def test_endpoints(self):
        assert reg_inc_gamma_lower(3.0, 0.0) == 0.0
        assert reg_inc_gamma_lower(3.0, math.inf) == 1.0

    def test_scipy_grid(self):
        for s in [0.5, 1.0, 2.5, 10.0, 100.0]:
            for x in [1e-8, 0.1, 1.0, s, s + 5.0, 8.0 * s]:
                assert reg_inc_gamma_lower(s, x) == pytest.approx(
                    float(sps.gammainc(s, x)), rel=1e-12, abs=1e-14
                )

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma_lower(1.0, -0.5)


class TestCdf:
    def test_cauchy_quartile(self):
        # StudentT with df=1 is Cauchy: F(1) = 3/4, F(0) = 1/2, F(-1) = 1/4
        d = student_t(1.0)
        assert cdf(d, 1.0) == pytest.approx(0.75, abs=1e-13)
        assert cdf(d, 0.0) == 0.5
        assert cdf(d, -1.0) == pytest.approx(0.25, abs=1e-13)

    def test_t2_closed_form(self):
        # df=2: F(t) = 1/2 + t / (2 sqrt(2 + t^2))
        d = student_t(2.0)
        for t in [-3.0, -0.4, 0.7, 2.0, 10.0]:
            expect = 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))
            assert cdf(d, t) == pytest.approx(expect, abs=1e-13)

    def test_t_infinite_args(self):
        d = student_t(5.0)
        assert cdf(d, math.inf) == 1.0
        assert cdf(d, -math.inf) == 0.0

    def test_chisq2_exponential(self):
        # chi-square with 2 df is Exp(1/2): F(x) = 1 - e^{-x/2}
        d = chi_square(2.0)
        assert cdf(d, 2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)

    def test_f22_closed_form(self):
        # F(2,2): F(x) = x / (1 + x), median at 1
        d = fisher_f(2.0, 2.0)
        assert cdf(d, 1.0) == pytest.approx(0.5, abs=1e-14)
        assert cdf(d, 3.0) == pytest.approx(0.75, abs=1e-14)
        assert cdf(d, 0.0) == 0.0

    def test_beta_is_reg_inc_beta(self):
        d = beta_params(2.5, 1.5)
        assert cdf(d, 0.3) == pytest.approx(reg_inc_beta(0.3, 2.5, 1.5), abs=0)
        assert cdf(d, -1.0) == 0.0
        assert cdf(d, 2.0) == 1.0

    def test_scipy_grid(self):
        cases = [
            (student_t(3.0), sst.t(3.0), [-8.0, -0.5, 0.1, 2.2, 6.0]),
            (student_t(29.0), sst.t(29.0), [-3.0, 1.7]),
            (fisher_f(1.0, 7.0), sst.f(1.0, 7.0), [0.04, 1.0, 5.5, 40.0]),
            (fisher_f(4.0, 17.0), sst.f(4.0, 17.0), [0.3, 2.96]),
            (beta_params(0.5, 4.0), sst.beta(0.5, 4.0), [0.01, 0.2, 0.9]),
            (chi_square(1.0), sst.chi2(1.0), [0.001, 1.0, 3.84, 15.0]),
            (chi_square(12.0), sst.chi2(12.0), [2.0, 11.3, 28.0]),
        ]
        for d, oracle, xs in cases:
            for x in xs:
                assert cdf(d, x) == pytest.approx(float(oracle.cdf(x)), rel=1e-12, abs=1e-14)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            cdf(student_t(0.0), 1.0)
        with pytest.raises(DomainError):
            cdf(fisher_f(2.0, -1.0), 1.0)
        with pytest.raises(DomainError):
            cdf(student_t(2.0), math.nan)

    def test_unread_df2_is_ignored(self):
        # single-parameter families never look at df2
        d = DistParams(Family.STUDENT_T, 4.0, -99.0)
        assert cdf(d, 1.3) == cdf(student_t(4.0), 1.3)


class TestLawChecks:
    """A law is checked once, when it is made: each parameter its family
    reads must be finite and positive."""

    BAD = [0.0, -1.0, math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("make, name", [
        (student_t, "student_t"),
        (chi_square, "chi_square"),
        (lambda v: fisher_f(v, 3.0), "fisher_f"),
        (lambda v: beta_params(v, 3.0), "beta"),
        (lambda v: DistParams(Family.STUDENT_T, v), "student_t"),
    ])
    def test_df1_refused_when_built(self, make, name, bad):
        with pytest.raises(DomainError) as err:
            make(bad)
        assert str(err.value) == f"{name} requires df1 > 0, got {float(bad)!r}"

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("make, name", [
        (lambda v: fisher_f(3.0, v), "fisher_f"),
        (lambda v: beta_params(3.0, v), "beta"),
        (lambda v: DistParams(Family.FISHER_F, 3.0, v), "fisher_f"),
        (lambda v: DistParams(Family.BETA, 3.0, v), "beta"),
    ])
    def test_df2_refused_when_built(self, make, name, bad):
        with pytest.raises(DomainError) as err:
            make(bad)
        assert str(err.value) == f"{name} requires df2 > 0, got {float(bad)!r}"

    @pytest.mark.parametrize("make, field", [
        (lambda: student_t(10**400), "df1"),
        (lambda: fisher_f(2, 10**400), "df2"),
        (lambda: beta_params(-(10**400), 2), "df1"),
        (lambda: DistParams(Family.STUDENT_T, 10**400), "df1"),
    ])
    def test_int_past_the_float_range_is_a_domain_error(self, make, field):
        with pytest.raises(DomainError, match=field):
            make()

    def test_read_parameters_become_floats(self):
        d = DistParams(Family.FISHER_F, 3, 40)
        assert d.df1.__class__ is float and d.df2.__class__ is float
        assert d == fisher_f(3.0, 40.0) and hash(d) == hash(fisher_f(3.0, 40.0))


class TestPdf:
    def test_scipy_grid(self):
        cases = [
            (student_t(5.0), sst.t(5.0), [-2.0, 0.0, 1.3]),
            (fisher_f(3.0, 9.0), sst.f(3.0, 9.0), [0.2, 1.0, 4.0]),
            (beta_params(2.0, 5.0), sst.beta(2.0, 5.0), [0.1, 0.5]),
            (chi_square(4.0), sst.chi2(4.0), [0.5, 3.0, 10.0]),
        ]
        for d, oracle, xs in cases:
            for x in xs:
                assert pdf(d, x) == pytest.approx(float(oracle.pdf(x)), rel=1e-12)

    def test_support_boundaries(self):
        assert pdf(fisher_f(2.0, 2.0), -1.0) == 0.0
        assert pdf(chi_square(3.0), 0.0) == 0.0
        assert pdf(beta_params(2.0, 2.0), 1.0) == 0.0


class TestQuantile:
    def test_cauchy_quartile(self):
        assert quantile(student_t(1.0), 0.75) == pytest.approx(1.0, abs=1e-11)

    def test_chisq2_closed_form(self):
        # inverse of 1 - e^{-x/2}
        for q in [0.05, 0.5, 0.95, 0.999]:
            expect = -2.0 * math.log1p(-q)
            assert quantile(chi_square(2.0), q) == pytest.approx(expect, rel=1e-10)

    def test_t_symmetry(self):
        d = student_t(7.0)
        assert quantile(d, 0.5) == 0.0
        assert quantile(d, 0.1) == pytest.approx(-quantile(d, 0.9), abs=1e-12)

    def test_scipy_grid(self):
        cases = [
            (student_t(2.0), sst.t(2.0)),
            (student_t(19.0), sst.t(19.0)),
            (fisher_f(2.0, 1.0), sst.f(2.0, 1.0)),
            (fisher_f(5.0, 40.0), sst.f(5.0, 40.0)),
            (beta_params(0.5, 1.0), sst.beta(0.5, 1.0)),
            (chi_square(1.0), sst.chi2(1.0)),
        ]
        for d, oracle in cases:
            for q in [0.005, 0.1, 0.5, 0.9, 0.975, 0.9999]:
                assert quantile(d, q) == pytest.approx(float(oracle.ppf(q)), rel=1e-9)

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            quantile(student_t(3.0), 0.0)
        with pytest.raises(DomainError):
            quantile(student_t(3.0), 1.0)
        with pytest.raises(DomainError):
            quantile(student_t(3.0), math.nan)

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        df=st.floats(min_value=1.0, max_value=200.0),
    )
    def test_round_trip_t(self, q, df):
        d = student_t(df)
        assert cdf(d, quantile(d, q)) == pytest.approx(q, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        q=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        a=st.floats(min_value=0.5, max_value=60.0),
        b=st.floats(min_value=0.5, max_value=60.0),
    )
    # no double x meets |cdf(x) - q| <= 1e-9 here: cdf steps by ~4e-9 per ulp
    @example(q=0.9999989999999999, a=57.0, b=0.5)
    def test_round_trip_beta(self, q, a, b):
        d = beta_params(a, b)
        x = quantile(d, q)
        assert abs(cdf(d, x) - q) <= 1e-9 or (
            cdf(d, math.nextafter(x, -math.inf)) <= q <= cdf(d, math.nextafter(x, math.inf))
        )

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        d1=st.floats(min_value=1.0, max_value=40.0),
        d2=st.floats(min_value=1.0, max_value=40.0),
    )
    def test_round_trip_f(self, q, d1, d2):
        d = fisher_f(d1, d2)
        assert cdf(d, quantile(d, q)) == pytest.approx(q, abs=1e-9)


class TestCrossFamily:
    @settings(max_examples=150, deadline=None)
    @given(
        t=st.floats(min_value=-40.0, max_value=40.0),
        df=st.floats(min_value=1.0, max_value=120.0),
    )
    def test_t_squared_is_f(self, t, df):
        # P(|T| > t) for T ~ t_nu equals P(F > t^2) for F ~ F(1, nu)
        p_t = 2.0 * cdf(student_t(df), -abs(t))
        p_f = 1.0 - cdf(fisher_f(1.0, df), t * t)
        assert p_t == pytest.approx(p_f, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(min_value=0.0, max_value=60.0),
        df=st.floats(min_value=1.0, max_value=80.0),
    )
    def test_f_large_denominator_vs_chisq(self, x, df):
        # F(d1, huge) converges to chi-square(d1)/d1; modest agreement only
        big = 2e7
        p_f = cdf(fisher_f(df, big), x / df)
        p_c = cdf(chi_square(df), x)
        assert p_f == pytest.approx(p_c, abs=5e-6)

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.floats(min_value=-6.0, max_value=6.0),
        st.data(),
    )
    def test_cdf_monotone(self, x1, x2, data):
        fam = data.draw(
            st.sampled_from(
                [student_t(4.0), fisher_f(3.0, 8.0), beta_params(2.0, 2.0), chi_square(5.0)]
            )
        )
        lo, hi = min(x1, x2), max(x1, x2)
        assert cdf(fam, lo) <= cdf(fam, hi) + 1e-15


class TestNormalHelpers:
    def test_cdf_against_erf(self):
        for z in [-4.2, -1.0, 0.0, 0.5, 1.959963984540054, 6.0]:
            expect = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert std_normal_cdf(z) == pytest.approx(expect, abs=1e-13)

    def test_two_sided_p(self):
        for z in [0.0, 1.0, 2.575829303548901]:
            expect = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0))))
            assert two_sided_normal_p(z) == pytest.approx(expect, abs=1e-13)
        assert two_sided_normal_p(-1.5) == pytest.approx(two_sided_normal_p(1.5), abs=0)
        assert two_sided_normal_p(math.inf) == 0.0

    @pytest.mark.parametrize("z", [8.0, 10.0, 20.0])
    def test_upper_tails_against_scipy(self, z):
        # read off the continued fraction for Q(1/2, z^2/2), not 1 - P
        assert std_normal_cdf(-z) == pytest.approx(float(sst.norm.cdf(-z)), rel=1e-12)
        assert two_sided_normal_p(z) == pytest.approx(2.0 * float(sst.norm.sf(z)), rel=1e-12)
        assert two_sided_normal_p(-z) == two_sided_normal_p(z)

    def test_critical_values(self):
        assert normal_critical(0.05) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_critical(0.01) == pytest.approx(2.5758293035489004, abs=1e-9)

    def test_critical_round_trip(self):
        for alpha in [0.001, 0.05, 0.32, 0.9]:
            z = normal_critical(alpha)
            assert two_sided_normal_p(z) == pytest.approx(alpha, abs=1e-10)

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            normal_critical(0.0)
        with pytest.raises(DomainError):
            normal_critical(1.0)


class TestIntsPastTheFloatRange:
    """An int past the float range reads as +-inf at every public entry, and
    the entry's own check decides, as it does at inf: a value or DomainError,
    never a bare OverflowError."""

    BIG = 10**400

    @pytest.mark.parametrize("law", [student_t(3.0), fisher_f(2.0, 5.0), beta_params(2.0, 3.0),
                                     chi_square(4.0)], ids=lambda d: d.family.value)
    def test_cdf(self, law):
        assert cdf(law, self.BIG) == cdf(law, math.inf) == 1.0
        assert cdf(law, -self.BIG) == cdf(law, -math.inf) == 0.0

    @pytest.mark.parametrize("law", [student_t(3.0), fisher_f(2.0, 5.0), beta_params(2.0, 3.0),
                                     chi_square(4.0)], ids=lambda d: d.family.value)
    def test_pdf(self, law):
        assert pdf(law, self.BIG) == pdf(law, math.inf) == 0.0
        assert pdf(law, -self.BIG) == pdf(law, -math.inf) == 0.0

    @pytest.mark.parametrize("q", [BIG, -BIG])
    def test_quantile(self, q):
        with pytest.raises(DomainError, match="quantile requires 0 < q < 1"):
            quantile(student_t(3.0), q)

    @pytest.mark.parametrize("alpha", [BIG, -BIG])
    def test_normal_critical(self, alpha):
        with pytest.raises(DomainError, match="normal_critical requires 0 < alpha < 1"):
            normal_critical(alpha)

    @pytest.mark.parametrize("args, match", [
        ((0.5, BIG, 1.0), "shape parameters"),
        ((0.5, 1.0, -BIG), "shape parameters"),
        ((BIG, 1.0, 1.0), r"x in \[0, 1\]"),
    ])
    def test_reg_inc_beta(self, args, match):
        with pytest.raises(DomainError, match=match):
            reg_inc_beta(*args)

    def test_reg_inc_gamma_lower(self):
        with pytest.raises(DomainError, match="finite s > 0"):
            reg_inc_gamma_lower(self.BIG, 1.0)
        with pytest.raises(DomainError, match="x >= 0"):
            reg_inc_gamma_lower(1.0, -self.BIG)
        assert reg_inc_gamma_lower(1.0, self.BIG) == reg_inc_gamma_lower(1.0, math.inf) == 1.0

    @pytest.mark.parametrize("x", [BIG, -BIG])
    def test_log_gamma(self, x):
        with pytest.raises(DomainError, match="log_gamma requires finite x > 0"):
            log_gamma(x)

    def test_std_normal_cdf(self):
        assert std_normal_cdf(self.BIG) == std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-self.BIG) == std_normal_cdf(-math.inf) == 0.0

    def test_two_sided_normal_p(self):
        assert two_sided_normal_p(self.BIG) == two_sided_normal_p(math.inf) == 0.0
        assert two_sided_normal_p(-self.BIG) == 0.0

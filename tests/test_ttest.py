"""One-sample t-test: the worked 3-point example, scipy as an external
oracle for the traditional route, and the exact-equivalence identities as
properties on random samples."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sst

from nullform.errors import DomainError
from nullform.sample import Sample
from nullform.specfun import beta_params, quantile, student_t
from nullform.ttest import (
    Geometry,
    geometry,
    lrt_ratio,
    map_critical_value,
    map_t0_to_t,
    t_test,
)

finite_samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50
)


def well_conditioned(values, mu0):
    """Keep property inputs where the centered sums carry enough signal.

    When the spread is a tiny fraction of the data magnitude, rounding in the
    mean alone exceeds the identity tolerances; that is a property of floats,
    not of the formulas under test.  Data whose squared distance from mu0
    underflows are a DomainError (test_linmodel), not a sample to test.
    """
    scale = max(max(abs(v) for v in values), abs(mu0), 1e-12)
    spread = max(values) - min(values)
    offset = max(abs(v - mu0) for v in values)
    return (spread == 0.0 or spread >= 1e-4 * scale) and (offset == 0.0 or offset >= 1e-150)


class TestWorkedExample:
    def test_one_two_three(self):
        res = t_test(Sample.from_iterable([1.0, 2.0, 3.0]), 0.0)
        assert res.t == pytest.approx(3.4641016, abs=5e-8)
        assert res.t0 == pytest.approx(1.6035675, abs=5e-8)
        assert res.r_ratio == pytest.approx(7.0, rel=1e-12)
        assert res.ssto == pytest.approx(14.0, rel=1e-14)
        assert res.sst == pytest.approx(12.0, rel=1e-14)
        assert res.sse == pytest.approx(2.0, rel=1e-14)
        assert res.p_value_t == pytest.approx(0.0741800, abs=5e-7)
        assert res.df == 2
        assert res.mean == 2.0
        assert res.s2 == pytest.approx(1.0, rel=1e-14)
        assert res.s0_2 == pytest.approx(14.0 / 3.0, rel=1e-14)

    def test_p_value_closed_form_df2(self):
        # for df=2 the two-sided p is 1 - |t|/sqrt(2 + t^2)
        res = t_test(Sample.from_iterable([1.0, 2.0, 3.0]), 0.0)
        expect = 1.0 - abs(res.t) / math.sqrt(2.0 + res.t * res.t)
        assert res.p_value_t == pytest.approx(expect, abs=1e-13)
        assert res.p_value_t0 == pytest.approx(expect, abs=1e-13)

    def test_symmetric_about_mu0(self):
        res = t_test(Sample.from_iterable([-1.0, 1.0]), 0.0)
        assert res.t == 0.0
        assert res.t0 == 0.0
        assert res.p_value_t == pytest.approx(1.0, abs=1e-12)
        assert res.p_value_t0 == pytest.approx(1.0, abs=1e-12)

    def test_scipy_oracle(self):
        y = [2.3, -0.7, 1.1, 4.5, 0.2, 3.3, -1.9]
        res = t_test(Sample.from_iterable(y), 0.8)
        ref = sst.ttest_1samp(y, popmean=0.8)
        assert res.t == pytest.approx(float(ref.statistic), rel=1e-12)
        assert res.p_value_t == pytest.approx(float(ref.pvalue), rel=1e-10)
        assert res.p_value_t0 == pytest.approx(float(ref.pvalue), rel=1e-10)


class TestDegenerateAndBoundary:
    def test_constant_at_mu0(self):
        res = t_test(Sample.from_iterable([5.0] * 4), 5.0)
        assert res.degenerate
        assert not res.boundary
        assert res.t == 0.0
        assert res.t0 == 0.0
        assert res.p_value_t == 1.0

    def test_constant_away_from_mu0(self):
        res = t_test(Sample.from_iterable([2.0, 2.0, 2.0]), 5.0)
        assert res.boundary
        assert res.t == -math.inf
        assert res.t0 == -math.sqrt(3.0)
        assert res.p_value_t == 0.0
        assert res.p_value_t0 == 0.0
        assert res.r_ratio == math.inf

    def test_needs_two_observations(self):
        with pytest.raises(DomainError):
            t_test(Sample.from_iterable([1.0]), 0.0)


class TestSample:
    @pytest.mark.parametrize("values, message", [
        ([1.0, math.inf, 2.0], "observation 2 is not finite: inf"),
        ([1.0, -math.inf, math.inf], "observation 2 is not finite: -inf"),
        ([math.nan, 1.0], "observation 1 is not finite: nan"),
        ([1e308, 1e308, math.inf], "observation 3 is not finite: inf"),
    ])
    def test_non_finite_observation_is_named(self, values, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            Sample.from_iterable(values)

    def test_huge_finite_values_whose_sum_overflows(self):
        assert Sample.from_iterable(["1e308", 1.7e308, -1e308]).values == (1e308, 1.7e308, -1e308)

    def test_empty(self):
        with pytest.raises(DomainError, match="at least one observation"):
            Sample.from_iterable([])


class TestMaps:
    def test_zero_fixed_point(self):
        assert map_t0_to_t(0.0, 7) == 0.0
        assert map_critical_value(0.0, 7) == 0.0

    def test_worked_value(self):
        # the 7-digit rounded input is amplified by the map's slope (~15 here),
        # so the rounded target is only reachable to ~1e-6
        assert map_t0_to_t(1.6035675, 3) == pytest.approx(3.4641016, abs=2e-6)
        # the exact t0 = 6/sqrt(14) must land on 2*sqrt(3) tightly
        assert map_t0_to_t(6.0 / math.sqrt(14.0), 3) == pytest.approx(
            2.0 * math.sqrt(3.0), rel=1e-12
        )

    def test_unit_point_n2(self):
        assert map_critical_value(1.0, 2) == pytest.approx(1.0, rel=1e-14)

    def test_odd_function(self):
        assert map_t0_to_t(-1.2, 5) == pytest.approx(-map_t0_to_t(1.2, 5), abs=1e-15)

    def test_divergence_near_boundary(self):
        n = 2
        assert map_t0_to_t(math.sqrt(n) * (1.0 - 1e-9), n) > 1e3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            map_t0_to_t(2.0, 4)
        with pytest.raises(DomainError):
            map_t0_to_t(-2.0, 4)
        with pytest.raises(DomainError):
            map_critical_value(3.0, 9)
        with pytest.raises(DomainError):
            map_critical_value(-0.5, 9)

    def test_critical_value_through_null_law(self):
        # T0-scale critical value from the Beta law of T0^2/n, then mapped;
        # must land on the Student t quantile of the same level
        n, alpha = 3, 0.05
        c = math.sqrt(n * quantile(beta_params(0.5, 0.5 * (n - 1)), 1.0 - alpha))
        mapped = map_critical_value(c, n)
        assert mapped == pytest.approx(4.3026527, abs=5e-7)
        assert mapped == pytest.approx(quantile(student_t(2.0), 0.975), rel=1e-9)

    @settings(max_examples=200)
    @given(
        n=st.integers(min_value=2, max_value=60),
        u1=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        u2=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_strictly_increasing(self, n, u1, u2):
        root = math.sqrt(n)
        lo, hi = sorted([root * (2.0 * u1 - 1.0), root * (2.0 * u2 - 1.0)])
        # Strictness is a claim about distinct t0 that the map's rounding
        # resolves. 2u - 1 can round neighbouring u to one t0, and where the
        # map's slope is below 1 neighbouring t0 can round to one t; its
        # relative rounding error stays under 1e-10 for |2u - 1| <= 1 - 2e-6.
        assume(hi - lo > 1e-9 * max(abs(lo), abs(hi)))
        assert map_t0_to_t(lo, n) < map_t0_to_t(hi, n)


class TestLrtRatio:
    def test_worked_example(self):
        r = lrt_ratio(Sample.from_iterable([1.0, 2.0, 3.0]), 0.0)
        assert r.r_via_t == pytest.approx(7.0, rel=1e-12)
        assert r.r_via_t0 == pytest.approx(7.0, rel=1e-12)

    def test_mean_equals_mu0(self):
        r = lrt_ratio(Sample.from_iterable([1.0, 2.0, 3.0]), 2.0)
        assert r.r_via_t == pytest.approx(1.0, rel=1e-14)
        assert r.r_via_t0 == pytest.approx(1.0, rel=1e-14)

    def test_rejects_constant_sample(self):
        with pytest.raises(DomainError):
            lrt_ratio(Sample.from_iterable([4.0, 4.0]), 4.0)
        with pytest.raises(DomainError):
            lrt_ratio(Sample.from_iterable([4.0, 4.0]), 0.0)


class TestGeometry:
    def test_worked_example(self):
        g = geometry(Sample.from_iterable([1.0, 2.0, 3.0]), 0.0)
        assert math.cos(g.theta) ** 2 == pytest.approx(12.0 / 14.0, rel=1e-12)
        assert (g.ssto, g.sst, g.sse) == pytest.approx((14.0, 12.0, 2.0), rel=1e-14)

    def test_parallel_to_ones(self):
        g = geometry(Sample.from_iterable([3.0, 3.0, 3.0]), 1.0)
        assert g.theta == pytest.approx(0.0, abs=1e-12)
        g = geometry(Sample.from_iterable([3.0, 3.0, 3.0]), 5.0)
        assert g.theta == pytest.approx(math.pi, abs=1e-12)

    def test_orthogonal_when_mean_matches(self):
        g = geometry(Sample.from_iterable([-2.0, 2.0]), 0.0)
        assert g.theta == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_undefined_at_zero_vector(self):
        with pytest.raises(DomainError):
            geometry(Sample.from_iterable([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("values, mu0", [
        ([1.0, 2.0, 3.0], 0.0),
        ([0.1, 0.7, -0.3, 2.9, 1.3], 0.9),
        ([3.0, 3.0, 3.0], 5.0),  # boundary: SSE = 0, theta = pi
    ])
    def test_from_result_matches_geometry(self, values, mu0):
        y = Sample.from_iterable(values)
        assert Geometry.from_result(t_test(y, mu0)) == geometry(y, mu0)


class TestIdentities:
    @settings(max_examples=300, deadline=None)
    @given(values=finite_samples, mu0=st.floats(min_value=-1e6, max_value=1e6))
    def test_core_identities(self, values, mu0):
        assume(well_conditioned(values, mu0))
        res = t_test(Sample.from_iterable(values), mu0)
        assume(not res.degenerate and not res.boundary)
        n = len(values)
        # the t0 <-> t map has log-sensitivity t^2/(n-1): past ~1e4 a single
        # ulp of t0 moves the mapped t by more than rel 1e-10, so the float
        # representation itself caps the achievable agreement there
        assume(res.t**2 <= 1e4 * (n - 1))
        # Pythagoras at 1e-12, everything else at 1e-10
        assert res.ssto == pytest.approx(res.sst + res.sse, rel=1e-12)
        assert map_t0_to_t(res.t0, n) == pytest.approx(res.t, rel=1e-10, abs=1e-10)
        assert res.t0 * res.t0 == pytest.approx(n * res.cos2_theta, rel=1e-12, abs=1e-12)
        assert res.r_ratio == pytest.approx(1.0 + res.t**2 / (n - 1), rel=1e-10)
        assert res.r_ratio == pytest.approx(1.0 / (1.0 - res.t0**2 / n), rel=1e-10)
        assert abs(res.p_value_t - res.p_value_t0) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(
        values=finite_samples,
        mu0=st.floats(min_value=-100.0, max_value=100.0),
        a=st.floats(min_value=0.01, max_value=50.0),
        b=st.floats(min_value=-50.0, max_value=50.0),
        flip=st.booleans(),
    )
    def test_location_scale_equivariance(self, values, mu0, a, b, flip):
        if flip:
            a = -a
        moved_values = [a * v + b for v in values]
        assume(well_conditioned(values, mu0))
        assume(well_conditioned(moved_values, a * mu0 + b))
        base = t_test(Sample.from_iterable(values), mu0)
        assume(not base.degenerate and not base.boundary)
        moved = t_test(Sample.from_iterable(moved_values), a * mu0 + b)
        assume(not moved.degenerate and not moved.boundary)
        assert moved.t**2 == pytest.approx(base.t**2, rel=1e-10, abs=1e-12)
        assert moved.t0**2 == pytest.approx(base.t0**2, rel=1e-10, abs=1e-12)
        assert moved.r_ratio == pytest.approx(base.r_ratio, rel=1e-10)
        assert moved.cos2_theta == pytest.approx(base.cos2_theta, rel=1e-10, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        values=finite_samples,
        mu0=st.floats(min_value=-10.0, max_value=10.0),
        alpha=st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_decision_equivalence(self, values, mu0, alpha):
        assume(well_conditioned(values, mu0))
        res = t_test(Sample.from_iterable(values), mu0)
        assume(not res.degenerate and not res.boundary)
        n = len(values)
        t_crit = quantile(student_t(float(n - 1)), 1.0 - alpha / 2.0)
        c0 = math.sqrt(n * quantile(beta_params(0.5, 0.5 * (n - 1)), 1.0 - alpha))
        assert (abs(res.t) >= t_crit) == (abs(res.t0) >= c0)

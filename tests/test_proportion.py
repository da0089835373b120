"""Proportion test: worked values, degenerate handling, and the variance
comparison property that decides which statistic is larger."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullform.errors import DomainError
from nullform.proportion import ProportionData, proportion_test


class TestWorkedValues:
    def test_sixty_of_hundred(self):
        res = proportion_test(ProportionData(60, 100), p0=0.5)
        assert res.p_hat == 0.6
        assert res.z_null == pytest.approx(2.0, abs=1e-12)
        # 0.1 / sqrt(0.0024)
        assert res.z_wald == pytest.approx(2.0412415, abs=5e-8)
        assert not res.wald_degenerate

    def test_wald_ci(self):
        res = proportion_test(ProportionData(60, 100), p0=0.5, alpha=0.05)
        assert res.ci_lower == pytest.approx(0.5039818, abs=5e-8)
        assert res.ci_upper == pytest.approx(0.6960182, abs=5e-8)
        assert res.ci_lower <= res.p_hat <= res.ci_upper

    def test_null_exactly_true(self):
        res = proportion_test(ProportionData(50, 100), p0=0.5)
        assert res.z_null == 0.0
        assert res.z_wald == 0.0
        assert res.p_value_null == pytest.approx(1.0, abs=1e-12)
        assert res.p_value_wald == pytest.approx(1.0, abs=1e-12)

    def test_p_values_against_normal_tail(self):
        res = proportion_test(ProportionData(60, 100), p0=0.5)
        expect_null = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0))))
        assert res.p_value_null == pytest.approx(expect_null, abs=1e-12)


class TestDegenerate:
    def test_all_successes(self):
        res = proportion_test(ProportionData(10, 10), p0=0.4)
        assert res.wald_degenerate
        assert res.z_wald == math.inf
        assert res.p_value_wald == 0.0
        assert math.isfinite(res.z_null)
        assert res.ci_lower == res.ci_upper == 1.0

    def test_no_successes(self):
        res = proportion_test(ProportionData(0, 7), p0=0.5)
        assert res.wald_degenerate
        assert res.z_wald == -math.inf
        assert res.z_null < 0.0


class TestValidation:
    def test_rejects_bad_p0(self):
        with pytest.raises(DomainError):
            proportion_test(ProportionData(3, 10), p0=0.0)
        with pytest.raises(DomainError):
            proportion_test(ProportionData(3, 10), p0=1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            proportion_test(ProportionData(3, 10), p0=0.5, alpha=0.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            ProportionData(-1, 10)
        with pytest.raises(DomainError):
            ProportionData(11, 10)
        with pytest.raises(DomainError):
            ProportionData(3, 0)
        with pytest.raises(DomainError):
            ProportionData(3.0, 10)  # type: ignore[arg-type]

    @pytest.mark.parametrize("n", [10.0, True, "10", None])
    def test_rejects_a_non_integer_n(self, n):
        with pytest.raises(DomainError, match=f"n must be an integer, got {n!r}"):
            ProportionData(1, n)  # type: ignore[arg-type]


class TestProperties:
    @settings(max_examples=200)
    @given(
        n=st.integers(min_value=1, max_value=500),
        data=st.data(),
        p0=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_signs_agree_and_variance_ordering(self, n, data, p0):
        k = data.draw(st.integers(min_value=0, max_value=n))
        res = proportion_test(ProportionData(k, n), p0)
        p_hat = k / n
        if p_hat == p0:
            assert res.z_null == res.z_wald == 0.0
            return
        assert math.copysign(1.0, res.z_null) == math.copysign(1.0, res.z_wald)
        if not res.wald_degenerate:
            # larger plug-in variance gives the smaller |z|
            null_var = p0 * (1.0 - p0)
            wald_var = p_hat * (1.0 - p_hat)
            if null_var > wald_var:
                assert abs(res.z_null) < abs(res.z_wald) + 1e-12
            elif null_var < wald_var:
                assert abs(res.z_null) > abs(res.z_wald) - 1e-12

    @settings(max_examples=50)
    @given(
        p0_lo=st.floats(min_value=0.02, max_value=0.49),
        p0_hi=st.floats(min_value=0.51, max_value=0.98),
    )
    def test_z_null_decreasing_in_p0(self, p0_lo, p0_hi):
        data = ProportionData(30, 60)
        assert proportion_test(data, p0_lo).z_null > proportion_test(data, p0_hi).z_null

"""One-sample binomial proportion inference.

Two large-sample z statistics for H0: p = p0 that differ only in which value
is plugged into the variance of the sample proportion:

  z_null uses the hypothesized p0(1-p0)/n,
  z_wald uses the estimated   p_hat(1-p_hat)/n.

The Wald confidence interval inverts the second form.  Both two-sided
p-values go through the chi-square(1) law of the squared statistic.  Both
forms and the zero-Wald-variance rule are written once, in `_z_forms`,
which `montecarlo` looks up per simulated success count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .specfun import normal_critical, two_sided_normal_p

__all__ = ["ProportionData", "ProportionTestResult", "proportion_test"]


@dataclass(frozen=True)
class ProportionData:
    """A count of successes out of n Bernoulli trials."""

    successes: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.successes, int) or isinstance(self.successes, bool):
            raise DomainError(f"successes must be an integer, got {self.successes!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 1:
            raise DomainError(f"n must be at least 1, got {self.n}")
        if not 0 <= self.successes <= self.n:
            raise DomainError(
                f"successes must lie in [0, n], got {self.successes} with n={self.n}"
            )

    @property
    def p_hat(self) -> float:
        return self.successes / self.n


@dataclass(frozen=True)
class ProportionTestResult:
    p_hat: float
    z_null: float
    z_wald: float
    p_value_null: float
    p_value_wald: float
    ci_lower: float
    ci_upper: float
    alpha: float
    # p_hat in {0, 1}: the Wald variance vanishes, z_wald is signed infinity
    # and the interval collapses to the point p_hat
    wald_degenerate: bool


def _z_forms(successes: int, n: int, p0: float) -> tuple[float, float, float]:
    """(z_null, z_wald, wald_var) of successes out of n; a zero Wald variance
    (p_hat in {0, 1}, so p_hat != p0) makes z_wald the signed infinity."""
    p_hat = successes / n
    diff = p_hat - p0
    wald_var = p_hat * (1.0 - p_hat) / n
    z_wald = diff / math.sqrt(wald_var) if wald_var else math.copysign(math.inf, diff)
    return diff / math.sqrt(p0 * (1.0 - p0) / n), z_wald, wald_var


def proportion_test(
    data: ProportionData, p0: float, alpha: float = 0.05
) -> ProportionTestResult:
    """Test H0: p = p0 with both variance plug-ins and the Wald CI.

    z_null = (p_hat - p0) / sqrt(p0 (1-p0) / n) remains well-defined for any
    observable data.  When p_hat is 0 or 1 the Wald statistic is reported as
    signed infinity with ``wald_degenerate`` set; it is never a silent NaN.
    """
    p0 = float(p0)
    alpha = float(alpha)
    if not 0.0 < p0 < 1.0:
        raise DomainError(f"p0 must lie strictly inside (0, 1), got {p0!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")

    p_hat = data.p_hat
    z_null, z_wald, wald_var = _z_forms(data.successes, data.n, p0)
    half_width = normal_critical(alpha) * math.sqrt(wald_var)
    return ProportionTestResult(
        p_hat=p_hat,
        z_null=z_null,
        z_wald=z_wald,
        p_value_null=two_sided_normal_p(z_null),
        p_value_wald=two_sided_normal_p(z_wald),
        ci_lower=p_hat - half_width,
        ci_upper=p_hat + half_width,
        alpha=alpha,
        wald_degenerate=not wald_var,
    )

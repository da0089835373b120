"""One-sample location test in its two variance conventions.

The traditional statistic T divides the centered mean by the sample standard
deviation S (divisor n-1, deviations from the sample mean).  The null-form
statistic T0 divides by S0 (divisor n, deviations from the hypothesized mu0).
The two are linked by an exact monotone map, so they generate the same
rejection regions; this module computes both from scratch, together with the
sum-of-squares decomposition

    SSTO = SST + SSE,   SSTO = sum (Yi - mu0)^2,  SST = n (ybar - mu0)^2,

and the angle theta between the centered data vector and the all-ones
direction, in terms of which T0^2 = n cos^2(theta) and
T^2 = (n-1) cot^2(theta).

Both p-values are exposed: the T route through the Student t tail and the T0
route through the Beta law of T0^2/n.  They are computed independently and
must agree; nothing here shortcuts one through the other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .sample import Sample
from .specfun import cdf, reg_inc_beta, student_t

__all__ = [
    "TTestResult",
    "t_test",
    "map_t0_to_t",
    "map_critical_value",
    "LrtRatio",
    "lrt_ratio",
    "Geometry",
    "geometry",
]


@dataclass(frozen=True)
class TTestResult:
    mean: float
    mu0: float
    s2: float
    s0_2: float
    t: float
    t0: float
    r_ratio: float
    ssto: float
    sst: float
    sse: float
    cos2_theta: float
    df: int
    p_value_t: float
    p_value_t0: float
    # all observations equal mu0: both statistics are 0/0, reported as 0
    degenerate: bool = False
    # all observations equal but != mu0: S = 0, T infinite, |T0| = sqrt(n)
    boundary: bool = False


class LrtRatio(NamedTuple):
    r_via_t: float
    r_via_t0: float


class Geometry(NamedTuple):
    """A test's right triangle: hypotenuse a, leg b along the tested direction
    (signed for t), leg c and theta = arccos(b/a) (see f_geometry for F's)."""

    theta: float
    a: float
    b: float
    c: float

    @classmethod
    def from_sides(cls, a: float, b: float, c: float) -> "Geometry":
        return cls(math.acos(max(-1.0, min(1.0, b / a))), a, b, c)


def _sums_of_squares(y: Sample, mu0: float) -> tuple[float, float, float, float]:
    """Mean and the (SSTO, SST, SSE) decomposition about mu0.

    SSE uses the two-pass centered algorithm: the one-pass expansion
    sum(y^2) - n ybar^2 cancels catastrophically and would not survive the
    1e-12 Pythagoras tolerance.

    A sum that overflows is a DomainError, and so is one that underflows:
    SSTO < n 2^-1022 with some value != mu0, or SSE < n 2^-1022 with the
    values not all equal.  Below that bound the squared terms are subnormal
    and the sums lose their relative precision (at 0 they would pass for
    degenerate or boundary data).
    """
    n = y.n
    lo, hi = min(y.values), max(y.values)
    try:
        if hi == lo:
            # rounding must not leak a phantom nonzero SSE on exactly
            # constant data; the boundary/degenerate paths depend on this
            ybar = y.values[0]
            sse = 0.0
        else:
            ybar = math.fsum(y.values) / n
            sse = math.fsum((v - ybar) ** 2 for v in y.values)
        ssto = math.fsum((v - mu0) ** 2 for v in y.values)
        sst = n * (ybar - mu0) ** 2
        if max(ssto, sst, sse) < math.inf:
            tiny = n * sys.float_info.min
            if sse < tiny and hi != lo or ssto < tiny and not lo == hi == mu0:
                raise DomainError(
                    "the sums of squares about the mean and mu0 underflow double precision"
                )
            return ybar, ssto, sst, sse
    except OverflowError:
        pass
    raise DomainError("the sums of squares about the mean and mu0 overflow double precision")


def t_test(y: Sample, mu0: float) -> TTestResult:
    """Both forms of the one-sample location test of H0: mu = mu0.

    Requires n >= 2.  Degenerate data (every value equal to mu0) and boundary
    data (every value equal, but not to mu0) return flagged results instead
    of raising; the boundary case carries T infinite, T0 = +/- sqrt(n), and
    p-values 0.
    """
    mu0 = float(mu0)
    if not math.isfinite(mu0):
        raise DomainError(f"mu0 must be finite, got {mu0!r}")
    n = y.n
    if n < 2:
        raise DomainError(f"t_test needs at least 2 observations, got {n}")

    ybar, ssto, sst, sse = _sums_of_squares(y, mu0)
    df = n - 1

    if ssto == 0.0:
        return TTestResult(
            mean=ybar, mu0=mu0, s2=0.0, s0_2=0.0, t=0.0, t0=0.0,
            r_ratio=1.0, ssto=0.0, sst=0.0, sse=0.0, cos2_theta=0.0,
            df=df, p_value_t=1.0, p_value_t0=1.0, degenerate=True,
        )

    s0_2 = ssto / n
    t0 = (ybar - mu0) / math.sqrt(s0_2 / n)

    if sse == 0.0:
        # |t0| equals sqrt(n) exactly here: ssto = n (ybar-mu0)^2
        t0 = math.copysign(math.sqrt(n), ybar - mu0)
        return TTestResult(
            mean=ybar, mu0=mu0, s2=0.0, s0_2=s0_2,
            t=math.copysign(math.inf, ybar - mu0), t0=t0,
            r_ratio=math.inf, ssto=ssto, sst=sst, sse=0.0, cos2_theta=1.0,
            df=df, p_value_t=0.0, p_value_t0=0.0, boundary=True,
        )

    s2 = sse / df
    t = (ybar - mu0) / math.sqrt(s2 / n)

    # two independent p-value routes: Student t tail at |t|, and the upper
    # tail of T0^2/n ~ Beta(1/2, (n-1)/2), which is the lower tail of
    # Beta((n-1)/2, 1/2) at 1 - T0^2/n = SSE/SSTO, so no 1 - cdf cancels it
    # to 0.  With mu0 within an ulp of ybar, rounding can put SSE above SSTO.
    p_value_t = 2.0 * cdf(student_t(float(df)), -abs(t))
    p_value_t0 = reg_inc_beta(min(1.0, sse / ssto), 0.5 * df, 0.5)

    return TTestResult(
        mean=ybar, mu0=mu0, s2=s2, s0_2=s0_2, t=t, t0=t0,
        r_ratio=ssto / sse, ssto=ssto, sst=sst, sse=sse,
        cos2_theta=sst / ssto, df=df,
        p_value_t=p_value_t, p_value_t0=p_value_t0,
    )


def map_t0_to_t(t0: float, n: int) -> float:
    """The exact increasing map from the null-form statistic to T.

    T = sqrt(n-1) * t0 / sqrt(n - t0^2), defined for |t0| < sqrt(n).
    """
    t0 = float(t0)
    if n < 2:
        raise DomainError(f"map_t0_to_t needs n >= 2, got {n}")
    if not t0 * t0 < n:
        raise DomainError(
            f"t0 must satisfy |t0| < sqrt(n); got t0={t0!r} with n={n}"
        )
    return math.sqrt(n - 1.0) * t0 / math.sqrt(n - t0 * t0)


def map_critical_value(c_alpha: float, n: int) -> float:
    """Map a T0-scale critical value c to the T scale.

    The region {|T0| >= c} equals {|T| >= map_critical_value(c, n)}.
    """
    c_alpha = float(c_alpha)
    if c_alpha < 0.0 or math.isnan(c_alpha):
        raise DomainError(f"critical value must be non-negative, got {c_alpha!r}")
    return map_t0_to_t(c_alpha, n)


def lrt_ratio(y: Sample, mu0: float) -> LrtRatio:
    """The likelihood-ratio surrogate R = SSTO/SSE, by both expressions.

    r_via_t evaluates 1 + T^2/(n-1); r_via_t0 evaluates 1/(1 - T0^2/n).
    Both equal sum(Yj - mu0)^2 / sum(Yj - ybar)^2.
    """
    res = t_test(y, mu0)
    if res.degenerate or res.sse == 0.0:
        raise DomainError("lrt_ratio requires SSE > 0 (non-constant sample)")
    n = y.n
    r_via_t = 1.0 + res.t * res.t / (n - 1.0)
    r_via_t0 = 1.0 / (1.0 - res.t0 * res.t0 / n)
    return LrtRatio(r_via_t, r_via_t0)


def _t_triangle(res: TTestResult) -> Geometry:
    """The triangle of a t-test already run (see geometry)."""
    if res.degenerate:
        raise DomainError("geometry is undefined when every value equals mu0")
    b = math.sqrt(res.df + 1) * (res.mean - res.mu0)
    return Geometry.from_sides(math.sqrt(res.ssto), b, math.sqrt(res.sse))


def geometry(y: Sample, mu0: float) -> Geometry:
    """Angle between y - mu0*1 and the all-ones direction, with the sides.

    theta is in [0, pi]; values above pi/2 mean the sample mean falls below
    mu0.  a^2 = SSTO, b^2 = SST, c^2 = SSE and T0^2 = n cos^2(theta).
    """
    return _t_triangle(t_test(y, mu0))

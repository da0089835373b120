"""Special-function kernel: log-gamma, regularized incomplete beta and gamma
functions, and the CDFs, densities, and quantiles of the Student t, Fisher F,
Beta, and chi-square families.

Everything here is a pure function of its arguments, computed in IEEE double
precision.  Log-gamma uses a fixed-coefficient Lanczos approximation (g = 7,
nine terms).  The incomplete functions use the classic series vs.
continued-fraction split, with continued fractions evaluated by the modified
Lentz algorithm (tiny-value floor 1e-300, convergence tolerance 1e-15,
iteration cap 500).  Quantiles are found by bracketing from a family-specific
initial guess followed by bisection-safeguarded Newton steps.

The t and F cdfs share one reduction.  t enters as the upper tail of
F(1, nu) at x^2, so both map to (z, c, a, b) with the cdf or tail equal to
I_u(a, b) at u = z/(z+c), and one split at z <= c, written once per kernel,
forms whichever of u and 1 - u is at most 1/2 without cancellation.

Upper normal tails read Q(1/2, z^2/2) straight off the incomplete-gamma
continued fraction, which evaluates Q, instead of forming 1 - P: so
two_sided_normal_p(9) is 2.3e-19, not 0.

`cdf_array` evaluates one Student t, F or Beta law at every element of an
array: the batch shape of a KS pass or a column of outlier p-values.  Its
kernel `_reg_inc_beta_array` computes log B(a, b) once, splits x at
(a+1)/(a+b+2) as the scalar code does, and runs the modified Lentz loop with
the same constants over all elements at once (Thompson & Barnett, J. Comput.
Phys. 64, 1986), dropping each element once it converges.  Per element it
does the scalar arithmetic in the same order, so the two paths differ only
where numpy's exp, log and log1p round differently from the math module's.
The scalar functions stay: quantile searches and the single p-values of the
CLI call one value at a time, where numpy's per-call overhead makes a
one-element array call over ten times slower than the scalar code.  Tests
cross-check the two paths.  numpy is imported inside the array functions
only, so this module imports without it.

A law is checked once, when `DistParams` makes it; the public entries check
their own points, and the kernels under them (`_reg_inc_beta`,
`_reg_inc_gamma`, `_beta_at` and the array forms) trust their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import DomainError, NumericError

__all__ = [
    "Family",
    "DistParams",
    "student_t",
    "fisher_f",
    "beta_params",
    "chi_square",
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
    "reg_inc_gamma_lower",
    "cdf",
    "cdf_array",
    "pdf",
    "quantile",
    "std_normal_cdf",
    "two_sided_normal_p",
    "normal_critical",
]

_TINY = 1e-300
_CF_TOL = 1e-15
_CF_MAX_ITER = 500
_LN_SQRT_2PI = 0.9189385332046727417803297364056176

# Lanczos approximation, g = 7, nine coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _float(x: float) -> float:
    """x as a float, with an int past the float range read as +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = _float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    if x < 0.5:
        # reflection keeps the Lanczos sum well conditioned near zero
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by modified Lentz."""
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
        # the even then the odd half-step
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    raise NumericError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 <= x <= 1, a, b > 0."""
    x = _float(x)
    a = _float(a)
    b = _float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be finite and positive, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires x in [0, 1], got {x!r}")
    return _reg_inc_beta(x, a, b)


def _reg_inc_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for float x in [0, 1] and shapes a, b > 0: the continued
    fraction directly for x below the crossover point (a+1)/(a+b+2), and the
    symmetry I_x(a,b) = 1 - I_{1-x}(b,a) above it."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf_array(a: float, b: float, x):
    """_beta_cf at every element of the 1-D array x, one (a, b).

    The same modified Lentz steps run on the elements still unconverged; an
    element leaves the loop, with its h, at the step where the scalar code
    would return.
    """
    import numpy as np

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
        if m > _CF_MAX_ITER:
            raise NumericError(
                f"incomplete beta continued fraction did not converge at "
                f"{live.size} of the x values (a={a}, b={b})"
            )
        m2 = 2 * m
        # the even then the odd half-step
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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


def _reg_inc_beta_array(x, a: float, b: float):
    """_reg_inc_beta at every element of the float64 array x, one (a, b).

    log B(a, b) is computed once; each element takes the branch, the
    continued fraction and the arithmetic order the scalar code gives it.
    """
    import numpy as np

    out = np.where(x == 1.0, 1.0, 0.0)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    front = np.exp(a * np.log(xi) + b * np.log1p(-xi) - log_beta(a, b))
    low = xi < (a + 1.0) / (a + b + 2.0)
    high = ~low
    val = np.empty_like(xi)
    val[low] = front[low] * _beta_cf_array(a, b, xi[low]) / a
    val[high] = 1.0 - front[high] * _beta_cf_array(b, a, 1.0 - xi[high]) / b
    out[inner] = val
    return out


def _reg_inc_gamma(s: float, x: float) -> tuple[float, float]:
    """(P(s, x), Q(s, x)) for s > 0, x >= 0, x = inf included.

    The series for x < s + 1 gives P, and Q = 1 - P there; beyond it the
    continued fraction gives Q directly, so far upper tails keep their
    relative precision down to underflow.
    """
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    ln_front = -x + s * math.log(x) - log_gamma(s)
    if x < s + 1.0:
        # series: P(s,x) = front * sum_k x^k / (s (s+1) ... (s+k))
        ap = s
        term = 1.0 / s
        total = term
        for _ in range(_CF_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _CF_TOL:
                p = total * math.exp(ln_front)
                return p, 1.0 - p
        raise NumericError(f"incomplete gamma series did not converge (s={s}, x={x})")
    # continued fraction for Q(s,x), modified Lentz
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) >= _TINY else 1.0 / _TINY
    h = d
    for i in range(1, _CF_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOL:
            q = math.exp(ln_front) * h
            return 1.0 - q, q
    raise NumericError(f"incomplete gamma continued fraction did not converge (s={s}, x={x})")


def reg_inc_gamma_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) for s > 0, x >= 0.

    Series expansion for x < s + 1, continued fraction for the upper tail
    otherwise.
    """
    s = _float(s)
    x = _float(x)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"reg_inc_gamma_lower requires finite s > 0, got {s!r}")
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"reg_inc_gamma_lower requires x >= 0, got {x!r}")
    return _reg_inc_gamma(s, x)[0]


class Family(Enum):
    STUDENT_T = "student_t"
    FISHER_F = "fisher_f"
    BETA = "beta"
    CHI_SQUARE = "chi_square"


@dataclass(frozen=True)
class DistParams:
    """Distribution family plus its shape / degree-of-freedom parameters.

    df1 carries the single parameter for StudentT (degrees of freedom) and
    ChiSquare (degrees of freedom); FisherF reads (df1, df2) as numerator and
    denominator degrees of freedom; Beta reads (df1, df2) as shapes (a, b).
    Each parameter the family reads is made a finite positive float when the
    law is made, or raises DomainError; one it does not read is never checked.
    """

    family: Family
    df1: float
    df2: float = math.nan

    def __post_init__(self) -> None:
        for name in ("df1", "df2") if self.family in (Family.FISHER_F, Family.BETA) else ("df1",):
            df = _float(getattr(self, name))
            if not 0.0 < df < math.inf:
                raise DomainError(f"{self.family.value} requires {name} > 0, got {df!r}")
            object.__setattr__(self, name, df)


def student_t(df: float) -> DistParams:
    return DistParams(Family.STUDENT_T, df)


def fisher_f(df1: float, df2: float) -> DistParams:
    return DistParams(Family.FISHER_F, df1, df2)


def beta_params(a: float, b: float) -> DistParams:
    return DistParams(Family.BETA, a, b)


def chi_square(df: float) -> DistParams:
    return DistParams(Family.CHI_SQUARE, df)


def _beta_args(d: DistParams, x):
    """(z, c, a, b) with I_u(a, b), u = z/(z+c), the F(d1, d2) cdf at x or,
    for t(nu), the tail P(|T| >= |x|) of F(1, nu) at x^2; floats or arrays.
    t's (z, c) is (nu, x^2), not (x^2, nu), so `_beta_at` puts its tie
    x^2 = nu on the far branch and F's tie d1 x = d2 on the lower one."""
    if d.family is Family.STUDENT_T:
        return d.df1, x * x, 0.5 * d.df1, 0.5
    return d.df1 * x, d.df2, 0.5 * d.df1, 0.5 * d.df2


def _beta_at(z: float, c: float, a: float, b: float) -> float:
    """I_u(a, b) at u = z/(z+c) for c >= 0; 0 where z <= 0.

    Whichever of u and 1 - u is at most 1/2 is formed without cancellation:
    u itself for z <= c, else c/(z+c) with the shapes swapped.
    """
    if z <= 0.0:
        return 0.0
    if z <= c:
        return _reg_inc_beta(z / (z + c), a, b)
    return 1.0 - _reg_inc_beta(c / (z + c), b, a)


def _beta_at_array(z, c, a: float, b: float):
    """_beta_at at every element of z and c broadcast together."""
    import numpy as np

    z, c = np.broadcast_arrays(z, c)
    out = np.zeros(z.shape)
    low = (z > 0.0) & (z <= c)
    high = z > c
    # the kernel runs only on a side that holds an element; for t the low
    # side is empty unless some |t| reaches sqrt(nu)
    if low.any():
        zl, cl = z[low], c[low]
        out[low] = _reg_inc_beta_array(zl / (zl + cl), a, b)
    if high.any():
        zh, ch = z[high], c[high]
        out[high] = 1.0 - _reg_inc_beta_array(ch / (zh + ch), b, a)
    return out


def cdf(d: DistParams, x: float) -> float:
    """CDF of the named family at x, via the incomplete-function reductions."""
    x = _float(x)
    if math.isnan(x):
        raise DomainError("cdf requires a non-NaN evaluation point")
    if d.family is Family.STUDENT_T:
        tail = 0.5 * _beta_at(*_beta_args(d, x))
        return 1.0 - tail if x > 0 else tail
    if d.family is Family.FISHER_F:
        return _beta_at(*_beta_args(d, x))
    if d.family is Family.BETA:
        return _reg_inc_beta(min(max(x, 0.0), 1.0), d.df1, d.df2)
    return _reg_inc_gamma(0.5 * d.df1, 0.5 * max(x, 0.0))[0]


def cdf_array(d: DistParams, x):
    """cdf(d, x) at every element of the array x, for one Student t, F or Beta law.

    Same reductions and special points as `cdf`.  Chi-square has no array
    path.
    """
    import numpy as np

    try:
        x = np.asarray(x, dtype=np.float64)
    except OverflowError:  # an int past the float range, read as by cdf
        x = np.vectorize(_float, otypes=[np.float64])(np.asarray(x, dtype=object))
    if np.isnan(x).any():
        raise DomainError("cdf_array requires non-NaN evaluation points")
    if d.family is Family.BETA:
        return _reg_inc_beta_array(np.clip(x, 0.0, 1.0), d.df1, d.df2)
    if d.family is Family.CHI_SQUARE:
        raise DomainError(f"cdf_array has no path for {d.family.value}; use cdf")
    # x^2 or d1 x may overflow to inf, which the split reads exactly
    with np.errstate(over="ignore"):
        args = _beta_args(d, x)
    p = _beta_at_array(*args)
    if d.family is Family.FISHER_F:
        return p
    tail = 0.5 * p
    return np.where(x > 0, 1.0 - tail, tail)


def pdf(d: DistParams, x: float) -> float:
    """Density of the named family at x (used as the quantile Newton slope)."""
    x = _float(x)
    if math.isnan(x):
        raise DomainError("pdf requires a non-NaN evaluation point")
    if d.family is Family.STUDENT_T:
        if math.isinf(x):
            return 0.0
        nu = d.df1
        ln = (
            log_gamma(0.5 * (nu + 1.0))
            - log_gamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi)
            - 0.5 * (nu + 1.0) * math.log1p(x * x / nu)
        )
        return math.exp(ln)
    if d.family is Family.FISHER_F:
        if x <= 0.0 or math.isinf(x):
            return 0.0
        d1, d2 = d.df1, d.df2
        ln = (
            0.5 * d1 * math.log(d1 / d2)
            + (0.5 * d1 - 1.0) * math.log(x)
            - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2)
            - log_beta(0.5 * d1, 0.5 * d2)
        )
        return math.exp(ln)
    if d.family is Family.BETA:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        a, b = d.df1, d.df2
        ln = (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)
        return math.exp(ln)
    # chi-square
    if x <= 0.0 or math.isinf(x):
        return 0.0
    k = 0.5 * d.df1
    ln = (k - 1.0) * math.log(x) - 0.5 * x - k * math.log(2.0) - log_gamma(k)
    return math.exp(ln)


_QUANTILE_MAX_ITER = 200
_QUANTILE_TOL = 1e-13


@lru_cache(maxsize=4096)
def quantile(d: DistParams, q: float) -> float:
    """Inverse CDF: returns x with cdf(d, x) = q to within 1e-10 or better.

    Pure and cached; repeated critical-value lookups are free.
    """
    q = _float(q)
    if not (0.0 < q < 1.0) or math.isnan(q):
        raise DomainError(f"quantile requires 0 < q < 1, got {q!r}")

    if d.family is Family.BETA:
        # solve upper-tail quantiles on the complement scale: near x = 1
        # spacing of doubles is absolute (~1e-16) while the density may be
        # unbounded, so no representable x can meet the CDF tolerance there;
        # near 0 the spacing is relative and the solve always converges
        if q > 0.5:
            return 1.0 - quantile(beta_params(d.df2, d.df1), 1.0 - q)
        lo, hi = 0.0, 1.0
    else:
        if d.family is Family.STUDENT_T:
            if q == 0.5:
                return 0.0
            if q < 0.5:
                return -quantile(d, 1.0 - q)
        # t upper half and the positive half-line families: double from a
        # rough scale guess
        lo = 0.0
        hi = max(d.df1, 1.0) if d.family is Family.CHI_SQUARE else 1.0
        for _ in range(_QUANTILE_MAX_ITER):
            if cdf(d, hi) >= q:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise NumericError(f"quantile bracketing failed for {d.family.value}")

    x = 0.5 * (lo + hi)
    f = cdf(d, x) - q
    for _ in range(_QUANTILE_MAX_ITER):
        if abs(f) <= _QUANTILE_TOL:
            break
        if f < 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
        slope = pdf(d, x)
        if slope > 0.0:
            step = x - f / slope
        else:
            step = math.nan
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        x = step
        f = cdf(d, x) - q
    if abs(f) > 1e-10:
        raise NumericError(
            f"quantile iteration did not converge for {d.family.value} at q={q}"
        )
    return x


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, through the chi-square(1) reduction."""
    z = _float(z)
    if math.isnan(z):
        raise DomainError("std_normal_cdf requires a non-NaN argument")
    p, q = _reg_inc_gamma(0.5, 0.5 * z * z)
    return 0.5 * (1.0 + p) if z > 0 else 0.5 * q


def two_sided_normal_p(z: float) -> float:
    """P(|Z| >= |z|) for a standard normal Z."""
    z = _float(z)
    if math.isnan(z):
        raise DomainError("two_sided_normal_p requires a non-NaN argument")
    return _reg_inc_gamma(0.5, 0.5 * z * z)[1]


def normal_critical(alpha: float) -> float:
    """Two-sided standard normal critical value z such that P(|Z| >= z) = alpha."""
    alpha = _float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"normal_critical requires 0 < alpha < 1, got {alpha!r}")
    return math.sqrt(quantile(chi_square(1.0), 1.0 - alpha))

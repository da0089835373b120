"""Residual diagnostics: leverage, standardized and studentized residuals,
and the per-observation outlier test.

The outlier test for observation i augments the design with an indicator
column (1 at row i, 0 elsewhere) and runs the nested F-test of that single
coefficient.  The standardized residual is the signed square root of F_null
from that test, the studentized residual the signed square root of F_trad.
Because the two F forms are linked by an exact monotone map, flagging
observations by either residual type (or either F form) yields identical
decisions; what changes is only the numerical scale, and the gap |t_i - r_i|
widens monotonically as observations become more extreme.

All n tests share one QR of X.  The indicator's part orthogonal to X has
squared norm 1 - h_i, so SS_{2|1,i} = e_i^2 / (1 - h_i), SSE_1 = SSE and
SSE_12,i = SSE - SS_{2|1,i} (Belsley, Kuh & Welsch 1980; Cook & Weisberg
1982); F_null and F_trad are linmodel's two formulas over those sums with
p1 = p, p2 = 1, and an SSE under linmodel's exact-fit threshold is zero.
Where SS_{2|1,i} > SSE / 2 the subtraction cancels, so SSE_12,i is summed
directly from the augmented residuals e_j + h_ji e_i / (1 - h_i), j != i,
with h_ji = Q_j . Q_i, losing at most one bit.

Each column of the table is one array whose row states (tested, untested,
flagged) are set by masks, and the rows are zipped from those columns.
`is_outlier` is the one outlier rule, shared by the CLI report and the plot.

The per-row augmented nested F-test and the leave-one-out formula
t_i = e_i / sqrt(s_(i)^2 (1 - h_i)) are independent oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
# fit and nested_f_test stay bound here unused: nullbench/tracing.py wraps them
from .linmodel import (DesignMatrix, _f_forms, _qr_and_response, _qr_with_rank_check, fit,
                       map_fnull_to_ftrad, nested_f_test)
from .sample import Sample
# cdf stays bound here unused: nullbench/tracing.py wraps it
from .specfun import cdf, cdf_array, student_t

__all__ = [
    "DiagnosticsRow",
    "DiagnosticsTable",
    "leverage",
    "residual_diagnostics",
    "map_standardized_to_studentized",
    "residual_gaps",
    "is_outlier",
]

# a hat diagonal this close to 1 means the observation determines its own
# fit; its indicator column lies (numerically) in the column space of X
_LEVERAGE_TOL = 1e-8

# above this share of SSE, SSE_12,i is summed directly, not subtracted
_DIRECT_SSE12_FRAC = 0.5


@dataclass(frozen=True)
class DiagnosticsRow:
    index: int
    leverage: float
    raw_residual: float
    standardized: float
    studentized: float
    outlier_p_value: float
    # n outlier tests run at once; this column is the Bonferroni-adjusted
    # p-value min(1, n * p), an extension over the unadjusted report
    bonferroni_p_value: float
    gap: float
    # leverage within 1e-8 of 1: residual quantities are undefined (NaN)
    flagged: bool = False


@dataclass(frozen=True)
class DiagnosticsTable:
    rows: tuple[DiagnosticsRow, ...]
    n: int
    p: int
    # fitted values of the base model in row order; empty when a table is
    # rebuilt from its rows alone
    fitted: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def leverage(x: DesignMatrix) -> tuple[float, ...]:
    """Hat-matrix diagonal h_i, computed as squared row norms of the Q factor."""
    q, _ = _qr_with_rank_check(x)
    return tuple(float(v) for v in np.einsum("ij,ij->i", q, q))


def residual_diagnostics(x: DesignMatrix, y: Sample) -> DiagnosticsTable:
    """Per-observation outlier diagnostics for the fit of y on x.

    Needs n > p + 1 so the indicator-augmented model keeps positive residual
    degrees of freedom.  Observations whose leverage is (numerically) 1 are
    flagged rather than tested.  Outlier p-values are two-sided Student t
    tails with the full augmented-model residual df, n - p - 1, evaluated for
    every tested row in one `cdf_array` call.
    """
    n, p = x.n_rows, x.n_cols
    if n <= p + 1:
        raise DomainError(
            f"diagnostics need n > p + 1, got n={n} with p={p}"
        )
    q, _, yvec, tiny_sse = _qr_and_response(x, y)
    fitted = q @ (q.T @ yvec)
    e = yvec - fitted
    sse = float(e @ e)
    h = np.einsum("ij,ij->i", q, q)
    flagged = h >= 1.0 - _LEVERAGE_TOL
    # only tested rows are read below; the others may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        ss2given1 = e * e / (1.0 - h)
        # a reduction in SSE at the size of QR rounding dust is no residual
        tested = ~flagged & (ss2given1 > tiny_sse) & (sse > tiny_sse)
        sse12 = sse - ss2given1
        for i in np.flatnonzero(tested & (ss2given1 > _DIRECT_SSE12_FRAC * sse)):
            # residuals of the augmented fit: e_j + h_ji e_i / (1 - h_i) off
            # row i, exactly 0 on it
            aug = e + (q @ q[i]) * (e[i] / (1.0 - h[i]))
            aug[i] = 0.0
            sse12[i] = aug @ aug
        f_trad, f_null = _f_forms(ss2given1, sse12, sse, n, p, 1)
        r = np.copysign(np.sqrt(f_null), e)
        t = np.copysign(np.where(sse12 <= tiny_sse, np.inf, np.sqrt(f_trad)), e)

    p_out = np.ones(n)
    p_out[tested] = 2.0 * cdf_array(student_t(float(n - p - 1)), -np.abs(t[tested]))
    # untested rows read r = t = gap = 0 and Bonferroni 1; flagged rows NaN
    r, t = np.where(tested, r, 0.0), np.where(tested, t, 0.0)
    columns = (r, t, p_out, np.minimum(1.0, n * p_out), np.abs(t - r))
    masked = (np.where(flagged, np.nan, c).tolist() for c in columns)
    rows = map(DiagnosticsRow, range(n), h.tolist(), e.tolist(), *masked, flagged.tolist())
    return DiagnosticsTable(rows=tuple(rows), n=n, p=p, fitted=tuple(fitted.tolist()))


def map_standardized_to_studentized(r: float, n: int, p1: int) -> float:
    """Exact map from a standardized to a studentized residual.

    t = sign(r) sqrt((n - p1 - 1) r^2 / (n - p1 - r^2)), the signed square
    root of linmodel's F_null -> F_trad map at F_null = r^2 with a single
    tested coefficient; defined for |r| < sqrt(n - p1).
    """
    r = float(r)
    return math.copysign(math.sqrt(map_fnull_to_ftrad(r * r, n, p1, 1)), r)


def residual_gaps(table: DiagnosticsTable) -> list[tuple[int, float]]:
    """(observation, |t_i - r_i|) pairs, largest gap first.

    Flagged rows carry undefined residuals and are omitted.
    """
    pairs = [(row.index, row.gap) for row in table.rows if not row.flagged]
    return sorted(pairs, key=lambda item: (-item[1], item[0]))


def is_outlier(row: DiagnosticsRow, alpha: float) -> bool:
    """Outlier at level alpha: not flagged (a flagged row has no test), p <= alpha."""
    return not row.flagged and row.outlier_p_value <= alpha

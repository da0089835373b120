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
flagged) are set by masks.  The table is those arrays: `outliers`, `plot`,
the report and `residual_gaps` read the columns, and there is no per-row
view.  `DiagnosticsTable.outliers` is the one outlier rule, not flagged and
p <= alpha, over the columns: the mask the CLI report and the plot share.

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


def _read_only(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


class DiagnosticsTable:
    """Per-observation diagnostics as columns, in observation order.

    Each name in COLUMNS is a read-only float64 array; a flagged row holds
    NaN in the five residual columns.  `flagged` is a read-only bool array
    and `fitted` the base model's fitted values, empty when a table is
    rebuilt from DiagnosticsRow records alone.

    `from_columns` takes the arrays.  `DiagnosticsTable(rows, n=, p=,
    fitted=)` converts DiagnosticsRow records, whose indexes must run 0, 1,
    ..., to columns; the table keeps no record.
    """

    # the float columns, in the order of from_columns' arguments
    COLUMNS = ("leverage", "raw_residual", "standardized", "studentized",
               "outlier_p_value", "bonferroni_p_value", "gap")

    def __init__(self, rows=(), n: int = 0, p: int = 0, fitted=()):
        rows = tuple(rows)
        if any(row.index != i for i, row in enumerate(rows)):
            raise ValueError("diagnostics rows must be given in index order 0, 1, ...")
        cells = [[getattr(row, name) for row in rows] for name in (*self.COLUMNS, "flagged")]
        self._fill(n, p, fitted, *cells)

    @classmethod
    def from_columns(cls, n: int, p: int, fitted, *columns) -> DiagnosticsTable:
        """A table over arrays: `columns` are the COLUMNS in order, then flagged."""
        table = cls.__new__(cls)
        table._fill(n, p, fitted, *columns)
        return table

    def _fill(self, n, p, fitted, *columns) -> None:
        *floats, flagged = columns
        self.n, self.p = n, p
        self.fitted = _read_only(fitted, np.float64)
        for name, values in zip(self.COLUMNS, floats):
            setattr(self, name, _read_only(values, np.float64))
        self.flagged = _read_only(flagged, np.bool_)

    def outliers(self, alpha: float) -> np.ndarray:
        """Bool mask of the rows that test as outliers at level alpha: not
        flagged (a flagged row has no test) and p <= alpha."""
        return ~self.flagged & (self.outlier_p_value <= alpha)

    def __len__(self) -> int:
        return len(self.flagged)


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
    masked = (np.where(flagged, np.nan, c) for c in columns)
    return DiagnosticsTable.from_columns(n, p, fitted, h, e, *masked, flagged)


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
    kept = np.flatnonzero(~table.flagged)
    # a stable sort of the kept indexes, which ascend, breaks ties by index
    order = kept[np.argsort(-table.gap[kept], kind="stable")]
    return list(zip(order.tolist(), table.gap[order].tolist()))

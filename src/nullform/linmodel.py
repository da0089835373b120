"""Gaussian linear model fitting and the nested-model F-test in both forms.

Fits go through a QR factorization of the design; projections onto the
column space are applied as Q (Q^T y) and never materialized as n-by-n
matrices.  The nested test compares a full design X = [X1 | X2] against its
column-prefix reduction X1 and reports

    F_trad = (SS_{2|1} / p2) / (SSE_12 / (n - p)),
    F_null = (SS_{2|1} / p2) / (SSE_1  / (n - p1)),

where SS_{2|1} is the reduction in error sum of squares.  One QR of the full
design X = QR gives all three sums, because the first p1 columns Q1 of Q span
X1: with the effects vector Q^T y = (Q1^T y, Q2^T y),

    SSE_12 = ||y - Q Q^T y||^2,  SS_{2|1} = ||Q2^T y||^2,  SSE_1 = SSE_12 + SS_{2|1},

so SS_{2|1} is never the cancelling difference SSE_1 - SSE_12 (Bjorck,
Numerical Methods for Least Squares Problems, SIAM 1996).  F_trad follows
the usual F law; under H0 the scaled null form p2 F_null / (n - p1) follows
Beta(p2/2, (n-p)/2).  Both p-value routes are computed and reported; the two
must agree to rounding.  The two forms, their null laws and the exact-fit
SSE threshold are written once here; simulation and diagnostics share them.

The p1 = 0 case (no reduced predictors at all) needs no branch: Q1 is empty,
the reduced fit is the zero function and SSE_1 = ||y||^2, which makes the
one-sample t-test the exact special case X = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .sample import Sample
from .specfun import beta_params, cdf, fisher_f, reg_inc_beta
from .ttest import Geometry

__all__ = [
    "DesignMatrix",
    "NestedSpec",
    "FitResult",
    "NestedFTestResult",
    "fit",
    "nested_f_test",
    "map_fnull_to_ftrad",
    "f_geometry",
]

# smallest |R_jj| relative to the largest before a column is declared
# linearly dependent on its predecessors
_RANK_RTOL = 1e-10

# an SSE below the square of 1e-12 * ||y|| cannot be told apart from an
# exact interpolation; QR rounding alone produces dust of this size
_SSE_NEGLIGIBLE_RTOL = 1e-24


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """An n-by-p design with finite entries and one label per column.

    The wrapped array is a read-only float64 copy of whatever was passed in.
    """

    data: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2:
            raise DomainError(f"design matrix must be 2-dimensional, got shape {arr.shape}")
        n, p = arr.shape
        if n < 1 or p < 1:
            raise DomainError(f"design matrix must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("design matrix entries must all be finite")
        arr.setflags(write=False)
        labels = tuple(str(s) for s in self.labels)
        if not labels:
            labels = tuple(f"x{j}" for j in range(p))
        if len(labels) != p:
            raise DomainError(
                f"expected {p} column labels, got {len(labels)}"
            )
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[float]], labels: Sequence[str] = ()
    ) -> "DesignMatrix":
        return cls(np.array(rows, dtype=np.float64), tuple(labels))

    @classmethod
    def from_columns(
        cls, columns: Sequence[Sequence[float]], labels: Sequence[str] = ()
    ) -> "DesignMatrix":
        return cls(np.column_stack([np.asarray(c, dtype=np.float64) for c in columns]),
                   tuple(labels))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class NestedSpec:
    """A full design together with the width p1 of its reduced prefix.

    The reduced model is always the first p1 columns of the full design;
    p1 = 0 means the reduced model is the zero function.
    """

    full: DesignMatrix
    p1: int

    def __post_init__(self) -> None:
        if not isinstance(self.p1, int) or isinstance(self.p1, bool):
            raise DomainError(f"p1 must be an integer, got {self.p1!r}")
        if not 0 <= self.p1 < self.full.n_cols:
            raise DomainError(
                f"p1 must satisfy 0 <= p1 < p={self.full.n_cols}, got {self.p1}"
            )
        if self.full.n_cols >= self.full.n_rows:
            raise DomainError(
                f"need p < n, got p={self.full.n_cols} with n={self.full.n_rows}"
            )

    @property
    def p(self) -> int:
        return self.full.n_cols

    @property
    def p2(self) -> int:
        return self.p - self.p1


@dataclass(frozen=True, eq=False)
class FitResult:
    # read-only float64 arrays
    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    sse: float
    df_resid: int


@dataclass(frozen=True)
class NestedFTestResult:
    sse1: float
    sse12: float
    ss2given1: float
    f_trad: float
    f_null: float
    p_value_f: float
    p_value_beta: float
    cos2_theta: float
    dims: tuple[int, int, int]
    # full model interpolates y exactly (SSE_12 = 0): F_trad is infinite and
    # F_null sits at its supremum (n - p1)/p2
    saturated: bool = False


def _qr_with_rank_check(x: DesignMatrix) -> tuple[np.ndarray, np.ndarray]:
    q, r = np.linalg.qr(x.data, mode="reduced")
    diag = np.abs(np.diag(r))
    threshold = _RANK_RTOL * diag.max()
    deficient = np.nonzero(diag < threshold)[0]
    if deficient.size:
        raise RankDeficiencyError(x.labels[int(deficient[0])])
    return q, r


def _qr_and_response(
    x: DesignMatrix, y: Sample
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(Q, R) of x with the rank check, y as a float64 vector of its length,
    and the exact-fit SSE threshold 1e-24 y.y.

    y.y must be finite, and for a response that is not all zero the threshold
    must be at least 2^-1022: below it the sums of squares it is compared
    with are subnormal and have lost their relative precision.  Either
    failure is a DomainError.
    """
    if y.n != x.n_rows:
        raise DomainError(f"design has {x.n_rows} rows but the response has {y.n}")
    yvec = np.asarray(y.values, dtype=np.float64)
    with np.errstate(over="ignore"):
        yy = float(yvec @ yvec)
    if not math.isfinite(yy):
        raise DomainError("the response's sum of squares y.y overflows double precision")
    tiny_sse = _SSE_NEGLIGIBLE_RTOL * yy
    if tiny_sse < sys.float_info.min and yvec.any():
        raise DomainError(
            "the response's exact-fit threshold 1e-24 y.y underflows double precision"
        )
    q, r = _qr_with_rank_check(x)
    return q, r, yvec, tiny_sse


def _nested_sums(
    q: np.ndarray, p1: int, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(SSE_1, SSE_12, SS_{2|1}) of y, shape (n,) or (m, n), from the
    orthonormal factor q of a full design whose first p1 columns span X1."""
    coef = y @ q
    resid = y - coef @ q.T
    sse12 = np.einsum("...i,...i->...", resid, resid)
    ss2given1 = np.einsum("...i,...i->...", coef[..., p1:], coef[..., p1:])
    return sse12 + ss2given1, sse12, ss2given1


def _f_forms(ss2given1, sse12, sse1, n: int, p1: int, p2: int):
    """(F_trad, F_null) over the nested sums, for floats or arrays alike."""
    f_trad = (ss2given1 / p2) / (sse12 / (n - p1 - p2))
    f_null = (ss2given1 / p2) / (sse1 / (n - p1))
    return f_trad, f_null


def _null_laws(n: int, p1: int, p2: int):
    """H0 laws of F_trad and of p2 F_null / (n - p1): F(p2, n-p), Beta(p2/2, (n-p)/2)."""
    df = n - p1 - p2
    return fisher_f(float(p2), float(df)), beta_params(0.5 * p2, 0.5 * df)


def fit(x: DesignMatrix, y: Sample) -> FitResult:
    """Least-squares fit of y on the design columns via Householder QR.

    Raises a rank-deficiency error naming the first column whose R diagonal
    falls below 1e-10 of the largest.
    """
    n, p = x.n_rows, x.n_cols
    if p >= n:
        raise DomainError(f"need p < n, got p={p} with n={n}")
    q, r, yvec, _ = _qr_and_response(x, y)
    qty = q.T @ yvec
    fitted = q @ qty
    residuals = yvec - fitted
    # r is exactly upper triangular: LU makes no row swaps, so this is back-substitution
    beta = np.linalg.solve(r, qty)
    for arr in (beta, fitted, residuals):
        arr.setflags(write=False)
    return FitResult(beta, fitted, residuals, float(residuals @ residuals), n - p)


def nested_f_test(spec: NestedSpec, y: Sample) -> NestedFTestResult:
    """Test H0: (coefficients beyond the first p1 columns) = 0, both forms.

    The two p-values take genuinely different routes: p_value_f is the upper
    F(p2, n-p) tail at F_trad, p_value_beta the upper Beta(p2/2, (n-p)/2)
    tail at p2 F_null / (n - p1).
    """
    n, p1, p2 = spec.full.n_rows, spec.p1, spec.p2
    # X1's R diagonal is the leading part of the full one, under a threshold
    # at least as strict, so this check also covers the reduced design
    q, _, yvec, tiny_sse = _qr_and_response(spec.full, y)
    sse1, sse12, ss2given1 = (float(v) for v in _nested_sums(q, p1, yvec))

    if sse1 <= tiny_sse:
        raise DomainError("reduced model already fits exactly; the F-test is undefined")
    cos2_theta = ss2given1 / sse1

    saturated = sse12 <= tiny_sse
    if saturated:
        f_trad, f_null, p_value_f, p_value_beta = math.inf, (n - p1) / p2, 0.0, 0.0
    else:
        f_trad, f_null = _f_forms(ss2given1, sse12, sse1, n, p1, p2)
        f_law, beta_law = _null_laws(n, p1, p2)
        p_value_f = 1.0 - cdf(f_law, f_trad)
        # the upper Beta tail at p2 F_null / (n - p1) = 1 - SSE_12/SSE_1, read
        # at SSE_12/SSE_1 (<= 1, as sse1 is the sum) with the shapes swapped
        p_value_beta = reg_inc_beta(sse12 / sse1, beta_law.df2, beta_law.df1)
    return NestedFTestResult(
        sse1=sse1, sse12=sse12, ss2given1=ss2given1,
        f_trad=f_trad, f_null=f_null,
        p_value_f=p_value_f, p_value_beta=p_value_beta,
        cos2_theta=cos2_theta, dims=(n, p1, p2), saturated=saturated,
    )


def map_fnull_to_ftrad(f_null: float, n: int, p1: int, p2: int) -> float:
    """The exact increasing map between the two F forms.

    F_trad = (n - p) F_null / (n - p1 - p2 F_null), valid for
    0 <= F_null < (n - p1)/p2.
    """
    f_null = float(f_null)
    if p1 < 0 or p2 < 1 or n <= p1 + p2:
        raise DomainError(
            f"need p1 >= 0, p2 >= 1 and n > p1 + p2, got n={n}, p1={p1}, p2={p2}"
        )
    sup = (n - p1) / p2
    if not 0.0 <= f_null < sup:
        raise DomainError(
            f"f_null must lie in [0, {sup}), got {f_null!r}"
        )
    return (n - p1 - p2) * f_null / (n - p1 - p2 * f_null)


def _f_triangle(res: NestedFTestResult) -> Geometry:
    """The triangle of a nested test already run (see f_geometry)."""
    return Geometry.from_sides(math.sqrt(res.sse1), math.sqrt(res.ss2given1),
                               math.sqrt(res.sse12))


def f_geometry(spec: NestedSpec, y: Sample) -> Geometry:
    """The nested sum-of-squares triangle: hypotenuse a = sqrt(SSE_1), legs
    b = sqrt(SS_{2|1}) and c = sqrt(SSE_12), theta = arccos(b/a); so
    cos^2(theta) carries F_null and cot^2(theta) carries F_trad."""
    return _f_triangle(nested_f_test(spec, y))

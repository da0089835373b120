"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: usage errors exit 2 (argparse),
DataError (like an OSError) exits 3, and every other NullformError exits 4.
"""

__all__ = ["NullformError", "DomainError", "NumericError", "DataError",
           "RankDeficiencyError"]


class NullformError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NullformError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(NullformError, ArithmeticError):
    """An iterative numerical scheme failed to converge."""


class DataError(NullformError, ValueError):
    """Input data could not be ingested or does not match the request."""


class RankDeficiencyError(DomainError):
    """A design matrix is numerically rank deficient.

    Carries the label of the first offending column.
    """

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"design matrix is rank deficient at column {column!r}")

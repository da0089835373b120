"""Univariate sample container used by the test modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError

__all__ = ["Sample"]


@dataclass(frozen=True)
class Sample:
    """An ordered collection of finite real observations."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise DomainError("a sample needs at least one observation")
        # a finite fsum clears every value at once; inf + -inf raises
        # ValueError and finite values can overflow the sum, so only then,
        # or on a non-finite sum, look for the offending observation
        try:
            if math.isfinite(math.fsum(self.values)):
                return
        except (ValueError, OverflowError):
            pass
        for i, v in enumerate(self.values):
            if not math.isfinite(v):
                raise DomainError(f"observation {i + 1} is not finite: {v!r}")

    @classmethod
    def from_iterable(cls, values: Iterable[float]) -> "Sample":
        return cls(tuple(map(float, values)))

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

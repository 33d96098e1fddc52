"""Shared domain types and exact integer arithmetic for the classifier."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .series import Series


@dataclass(frozen=True, order=True)
class Quintuple:
    """An ordered weight system (a0 <= a1 <= a2 <= a3) together with a degree d.

    The index a0+a1+a2+a3-d is always derived, never stored.  Construction
    enforces ordering, d > a3 and a positive index, so every Quintuple in the
    system is a genuine candidate weight system.
    """

    a0: int
    a1: int
    a2: int
    a3: int
    d: int

    def __post_init__(self) -> None:
        w = (self.a0, self.a1, self.a2, self.a3)
        # exact type test: it also rejects bool, a subclass of int
        if not (type(self.a0) is type(self.a1) is type(self.a2) is type(self.a3) is type(self.d) is int):
            raise ValueError(f"weights and degree must be integers: {w} d={self.d}")
        if any(x < 1 for x in w):
            raise ValueError(f"weights must be positive: {w}")
        if not (self.a0 <= self.a1 <= self.a2 <= self.a3):
            raise ValueError(f"weights must be ordered: {w}")
        if self.d <= self.a3:
            raise ValueError(f"degree must exceed the top weight: d={self.d} a3={self.a3}")
        if self.index < 1:
            raise ValueError(f"index must be positive: {w} d={self.d}")

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)

    @property
    def index(self) -> int:
        return self.a0 + self.a1 + self.a2 + self.a3 - self.d

    def astuple(self) -> tuple[int, int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3, self.d)

    def __str__(self) -> str:
        return f"({self.a0},{self.a1},{self.a2},{self.a3},{self.d})"


@dataclass(frozen=True)
class Classification:
    """The complete answer for one index: series families plus sporadic cases."""

    index: int
    two_param: tuple[Series, ...]
    one_param: tuple[Series, ...]
    sporadic: tuple[Quintuple, ...]

    @property
    def all_series(self) -> tuple[Series, ...]:
        return self.two_param + self.one_param


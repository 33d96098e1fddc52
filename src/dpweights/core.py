"""Shared domain types and exact integer arithmetic for the classifier."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


def gcd_list(values: Iterable[int]) -> int:
    """Greatest common divisor of a non-empty collection of integers."""
    vals = tuple(values)
    if not vals:
        raise ValueError("gcd_list: empty input")
    return math.gcd(*vals)


def lcm_list(values: Iterable[int]) -> int:
    """Least common multiple of a non-empty collection of positive integers."""
    vals = tuple(values)
    if not vals:
        raise ValueError("lcm_list: empty input")
    if any(v < 1 for v in vals):
        raise ValueError(f"lcm_list: entries must be positive, got {vals}")
    return math.lcm(*vals)


def ceil_div(a: int, b: int) -> int:
    """a / b rounded towards +infinity (b positive)."""
    if b < 1:
        raise ValueError("ceil_div: divisor must be positive")
    return -((-a) // b)


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


class SeriesClass(Enum):
    """Origin tag for a series or a sporadic quintuple.

    class1..class6 are the six series classes of the classification; tableSeries
    and sporadic mark data that comes from the embedded tables.
    """

    CLASS1 = "class1"
    CLASS2 = "class2"
    CLASS3 = "class3"
    CLASS4 = "class4"
    CLASS5 = "class5"
    CLASS6 = "class6"
    TABLE_SERIES = "tableSeries"
    SPORADIC = "sporadic"

    @classmethod
    def from_class_number(cls, n: int) -> "SeriesClass":
        if n not in range(1, 7):
            raise ValueError(f"series class number must be 1..6, got {n}")
        return cls(f"class{n}")

    @property
    def class_number(self) -> int | None:
        """The 1..6 class number, or None for table-origin tags."""
        v = self.value
        return int(v[5]) if v.startswith("class") else None


StepVector = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Series:
    """A parametric family of quintuples: base plus one or two step vectors.

    Every step is a 5-vector of non-negative increments on (a0,a1,a2,a3,d)
    per unit of its parameter.  The degree entry always equals the sum of the
    weight entries, so all members share the base's index.  Two steps are
    linearly independent, so each member has exactly one parameter pair.
    """

    origin: SeriesClass
    base: Quintuple
    steps: tuple[StepVector, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.steps) <= 2:
            raise ValueError(f"a series has one or two step vectors, got {len(self.steps)}")
        for step in self.steps:
            if len(step) != 5 or any(x < 0 for x in step):
                raise ValueError(f"malformed step vector {step}")
            if sum(step[:4]) != step[4] or step[4] == 0:
                raise ValueError(f"degree entry of {step} must equal the sum of its weight entries")
        if len(self.steps) == 2:
            s, t = self.steps
            if all(s[i] * t[j] == s[j] * t[i] for i in range(5) for j in range(i + 1, 5)):
                raise ValueError(f"series steps {s} and {t} are linearly dependent")
        m = self.modulus
        if self.origin.class_number is not None:
            # class-origin steps move series-defining weights by exactly the modulus
            for step in self.steps:
                if any(x not in (0, m) for x in step[:4]):
                    raise ValueError(f"class-series step {step} must have weight entries in {{0,{m}}}")

    @property
    def modulus(self) -> int:
        """Common granularity of the weight increments."""
        return math.gcd(*(x for step in self.steps for x in step[:4]))

    def member(self, *params: int) -> Quintuple:
        """The member at the given non-negative parameters (must be ordered)."""
        if len(params) != len(self.steps):
            raise ValueError(f"series takes {len(self.steps)} parameters, got {len(params)}")
        if any(p < 0 for p in params):
            raise ValueError(f"parameters must be non-negative: {params}")
        vals = list(self.base.astuple())
        for p, step in zip(params, self.steps):
            for i in range(5):
                vals[i] += p * step[i]
        return Quintuple(*vals)

    def to_dict(self) -> dict:
        """Wire format: {"base": [...], "steps": [[...], ...], "class": tag}."""
        return {
            "base": list(self.base.astuple()),
            "steps": [list(s) for s in self.steps],
            "class": self.origin.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Series":
        base = Quintuple(*data["base"])
        steps = tuple(tuple(s) for s in data["steps"])
        if any(type(x) is not int for step in steps for x in step):
            raise ValueError(f"step entries must be integers: {data['steps']}")
        return cls(SeriesClass(data["class"]), base, steps)


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


@dataclass(frozen=True)
class TableRow:
    """A one-parameter table datum: weights, degree and index linear in n >= 1."""

    weight_exprs: tuple[tuple[int, int], ...]  # four (slope, intercept) pairs
    degree_expr: tuple[int, int]
    index_expr: tuple[int, int]
    source_label: str

    def __post_init__(self) -> None:
        if len(self.weight_exprs) != 4:
            raise ValueError("a table row carries exactly four weight expressions")
        # degree = sum(weights) - index must hold identically in n
        ws, wi = (sum(e[0] for e in self.weight_exprs), sum(e[1] for e in self.weight_exprs))
        if self.degree_expr != (ws - self.index_expr[0], wi - self.index_expr[1]):
            raise ValueError(f"degree expression inconsistent with weights/index: {self}")
        # positive for every n >= 1: non-negative slope and positive value at n=1
        for slope, intercept in self.weight_exprs:
            if slope < 0 or slope + intercept < 1:
                raise ValueError(f"weight expression ({slope},{intercept}) not positive for n >= 1")

    def weights_at(self, n: int) -> tuple[int, int, int, int]:
        return tuple(slope * n + intercept for slope, intercept in self.weight_exprs)  # type: ignore[return-value]

    def degree_at(self, n: int) -> int:
        return self.degree_expr[0] * n + self.degree_expr[1]

    def index_at(self, n: int) -> int:
        return self.index_expr[0] * n + self.index_expr[1]

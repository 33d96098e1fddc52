"""Shared domain types and exact integer arithmetic for the classifier."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


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
    """Origin tag for a series.

    class1..class6 are the six series classes of the classification;
    tableSeries marks a series that comes from the embedded tables.
    """

    CLASS1 = "class1"
    CLASS2 = "class2"
    CLASS3 = "class3"
    CLASS4 = "class4"
    CLASS5 = "class5"
    CLASS6 = "class6"
    TABLE_SERIES = "tableSeries"

    @classmethod
    def from_class_number(cls, n: int) -> "SeriesClass":
        if n not in range(1, 7):
            raise ValueError(f"series class number must be 1..6, got {n}")
        return _BY_CLASS_NUMBER[n]

    @property
    def class_number(self) -> int | None:
        """The 1..6 class number, or None for the table-origin tag."""
        v = self.value
        return int(v[5]) if v.startswith("class") else None


# the member for each class number, at its position; 0 holds no class
_BY_CLASS_NUMBER = (None, *(SeriesClass(f"class{n}") for n in range(1, 7)))

StepVector = tuple[int, int, int, int, int]

# step shapes per class number, in units of the series modulus m
STEP_SHAPES: dict[int, tuple[StepVector, ...]] = {
    1: ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1)),
    2: ((0, 0, 0, 1, 1),),
    3: ((0, 0, 0, 1, 1),),
    4: ((0, 0, 1, 1, 2),),
    5: ((0, 0, 1, 1, 2),),
    6: ((0, 0, 1, 1, 2),),
}


@dataclass(frozen=True)
class Series:
    """A parametric family of quintuples: base plus one or two step vectors.

    Every step is a 5-vector of non-negative increments on (a0,a1,a2,a3,d)
    per unit of its parameter.  The degree entry always equals the sum of the
    weight entries, so it is positive and all members share the base's index.
    Two steps are linearly independent, so each member has exactly one
    parameter pair.  The steps of a class-tagged series are, in some order,
    the modulus times its class's ``STEP_SHAPES``.
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
            # degree entries are positive: dependent exactly when s*t[4] == t*s[4]
            s, t = self.steps
            if all(s[i] * t[4] == t[i] * s[4] for i in range(4)):
                raise ValueError(f"series steps {s} and {t} are linearly dependent")
        n = self.origin.class_number
        if n is not None:
            m = self.modulus
            shaped = [tuple(m * e for e in shape) for shape in STEP_SHAPES[n]]
            if sorted(self.steps) != sorted(shaped):
                raise ValueError(f"class-{n} series steps must be {shaped}, got {list(self.steps)}")

    @classmethod
    def _of_class(cls, class_number: int, base: Quintuple, m: int) -> "Series":
        """The class series through ``base`` with modulus ``m``, unchecked.

        For callers that have checked that ``base`` lies in the class and that
        ``m`` is the lcm of its defining weights: the steps, ``m`` times the
        class's ``STEP_SHAPES``, then meet every rule of ``__post_init__`` by
        construction, so it is skipped.
        """
        series = object.__new__(cls)
        object.__setattr__(series, "origin", SeriesClass.from_class_number(class_number))
        object.__setattr__(series, "base", base)
        steps = tuple([(m * a, m * b, m * c, m * e, m * f) for a, b, c, e, f in STEP_SHAPES[class_number]])
        object.__setattr__(series, "steps", steps)
        return series

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
        origin = SeriesClass(data["class"])
        n = origin.class_number
        if n is not None:
            # a class series is fixed by its base: the base must lie in the
            # class and be solid, and the steps must be that series' steps
            from .series import make_series  # series.py builds on this module

            expected = make_series(n, base).steps
            if sorted(steps) != sorted(expected):
                raise ValueError(f"class-{n} series through {base} has steps {list(expected)}, got {list(steps)}")
        return cls(origin, base, steps)


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


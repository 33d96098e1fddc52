"""The series type and its construction, expansion and membership.

A series is a base quintuple plus step vectors, tagged with its origin as
the plain string it has on the wire; each of the six series classes fixes
the step shapes and the modulus, the lcm of its modulus weights, in its
record of the class table ``conditions._CLASSES``.
"""
from __future__ import annotations

from collections import namedtuple
from math import lcm

from .conditions import _CLASSES, _cond_iv_ints, _well_formed_ints, detect_class
from .core import Quintuple


# the wire tag of each series: the table-origin tag, then class n at position n
_TAGS = ("tableSeries", "class1", "class2", "class3", "class4", "class5", "class6")

StepVector = tuple[int, int, int, int, int]


class Series(namedtuple("Series", "origin base steps")):
    """A parametric family of quintuples: base plus one or two step vectors.

    ``origin`` is one of the tags in ``_TAGS``: ``"class1"`` .. ``"class6"``
    for the six series classes, ``"tableSeries"`` for a series from the
    embedded tables.
    Every step is a 5-vector of non-negative ``int`` increments on
    (a0,a1,a2,a3,d) per unit of its parameter.  The degree entry always
    equals the sum of the weight entries, so it is positive and all members
    share the base's index.
    Two steps are linearly independent, so each member has exactly one
    parameter pair.  A class-tagged series is fixed by its base: the base is
    a solid member of the class, and the steps are, in some order, the ones
    ``make_series`` gives it.  The constructor, ``from_dict`` and
    ``make_series`` all apply that one rule, ``_class_steps``, and
    ``_rebased`` copies its result onto bases of the same class and modulus.
    """

    __slots__ = ()

    def __new__(cls, origin: str, base: Quintuple, steps: tuple[StepVector, ...]) -> Series:
        # exact type test: a bool entry would reach the wire format as true or false
        if any(type(x) is not int for step in steps for x in step):
            raise ValueError(f"step entries must be integers: {[list(s) for s in steps]}")
        if origin not in _TAGS:
            raise ValueError(f"unknown series tag {origin!r}")
        n = _TAGS.index(origin)
        if n:
            expected = _class_steps(n, base)
            if sorted(steps) != sorted(expected):
                raise ValueError(f"class-{n} series through {base} has steps {list(expected)}, got {list(steps)}")
            return tuple.__new__(cls, (origin, base, steps))
        if not 1 <= len(steps) <= 2:
            raise ValueError(f"a series has one or two step vectors, got {len(steps)}")
        for step in steps:
            if len(step) != 5 or any(x < 0 for x in step):
                raise ValueError(f"malformed step vector {step}")
            if sum(step[:4]) != step[4] or step[4] == 0:
                raise ValueError(f"degree entry of {step} must equal the sum of its weight entries")
        if len(steps) == 2:
            # degree entries are positive: dependent exactly when s*t[4] == t*s[4]
            s, t = steps
            if all(s[i] * t[4] == t[i] * s[4] for i in range(4)):
                raise ValueError(f"series steps {s} and {t} are linearly dependent")
        return tuple.__new__(cls, (origin, base, steps))

    @classmethod
    def _make(cls, iterable) -> Series:
        # namedtuple's own _make, which _replace calls, would skip the checks
        return cls(*iterable)

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
            "class": self.origin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Series":
        base = Quintuple(*data["base"])
        steps = tuple(tuple(s) for s in data["steps"])
        return cls(data["class"], base, steps)


def _class_steps(class_number: int, rep: Quintuple) -> tuple[StepVector, ...]:
    """The steps of the class series through ``rep``: the rule for a class series.

    ``rep`` must lie in the class and be solid, which for a quintuple in a
    class is (iv) and well-formedness (Lemma B in ``conditions``).  The steps
    are the modulus m, the lcm of the class's modulus weights, times its step
    shapes, both read from the class's record in ``conditions._CLASSES``.
    The class test comes first, so a number outside 1..6 raises before it
    could index the table.
    """
    a0, a1, a2, a3, d = rep
    if detect_class(rep) != class_number:
        raise ValueError(f"{rep} does not lie in series class {class_number}")
    if not (_cond_iv_ints(a0, a1, a2, a3, d) and _well_formed_ints(a0, a1, a2, a3, d)):
        raise ValueError(f"series representative {rep} is not solid")
    _, modulus_weights, shapes = _CLASSES[class_number - 1]
    m = lcm(*modulus_weights(a0, a1, a2, a3, a0 + a1 + a2 + a3 - d))
    return tuple([(m * a, m * b, m * c, m * e, m * f) for a, b, c, e, f in shapes])


def make_series(class_number: int, rep: Quintuple) -> Series:
    """Build the series of the given class through a solid representative.

    By Lemma B (``conditions``) that is a member of the class that passes
    (iv) and is well formed.  ``_class_steps`` checks the input once and
    gives the steps, which meet every rule of ``Series`` by construction, so
    the checks of ``Series.__new__`` are skipped.  The tag is looked up only
    after that check has rejected a number outside 1..6: ``_TAGS[-1]`` is
    ``"class6"``.
    """
    steps = _class_steps(class_number, rep)
    return tuple.__new__(Series, (_TAGS[class_number], rep, steps))


def _rebased(series: Series, base: Quintuple) -> Series:
    """The series with ``series``'s tag and steps through ``base``, unchecked.

    Only for a base whose class and modulus are those of ``series.base``, so
    that ``make_series`` would give it the same steps: ``enumerate_class``
    uses it for the later values of a window slot (``classify``).
    """
    return tuple.__new__(Series, (series.origin, base, series.steps))


def _shifted(base: tuple[int, ...], step: StepVector, count: int) -> tuple[int, ...]:
    return tuple(b + count * s for b, s in zip(base, step))


def _max_param(vals: tuple[int, ...], step: StepVector, bound: int) -> int:
    """Largest multiplier keeping every weight coordinate at or below bound."""
    # the degree entry is positive and sums the weight entries, so one moves
    return min((bound - vals[i]) // step[i] for i in range(4) if step[i] > 0)


def expand(series: Series, bound: int) -> list[Quintuple]:
    """All members with non-negative parameters, ordered weights and a3 <= bound.

    Members come out in lexicographic parameter order.
    """
    points = [series.base.astuple()]
    for step in series.steps:
        points = [_shifted(p, step, x) for p in points for x in range(_max_param(p, step, bound) + 1)]
    return [Quintuple(*v) for v in points if v[0] <= v[1] <= v[2] <= v[3] <= bound]


def contains(series: Series, q: Quintuple) -> bool:
    """Whether q is a member of the series at some non-negative parameters.

    The records are read as the tuples they are, unpacked once.
    """
    a0, a1, a2, a3, d = q
    _, base, steps = series
    b0, b1, b2, b3, bd = base
    x0, x1, x2, x3, xd = a0 - b0, a1 - b1, a2 - b2, a3 - b3, d - bd
    if x0 < 0 or x1 < 0 or x2 < 0 or x3 < 0 or xd < 0:
        return False
    # every step's degree entry is positive (Series enforces it), so it is
    # the pivot; the floor divisions are exact when a solution exists, and
    # comparing all five coordinates rejects every other case
    s = steps[0]
    s0, s1, s2, s3, sd = s
    if len(steps) == 1:
        x = xd // sd
        return x0 == x * s0 and x1 == x * s1 and x2 == x * s2 and x3 == x * s3 and xd == x * sd
    # independent steps have a non-zero 2x2 minor against the degree column,
    # and Cramer's rule on it gives the only candidate parameters (x, y)
    t = steps[1]
    t0, t1, t2, t3, td = t
    diff = (x0, x1, x2, x3)
    for i in range(4):
        det = s[i] * td - sd * t[i]
        if det:
            break
    x = (diff[i] * td - xd * t[i]) // det
    y = (s[i] * xd - sd * diff[i]) // det
    return (
        x >= 0 and y >= 0 and x0 == x * s0 + y * t0 and x1 == x * s1 + y * t1
        and x2 == x * s2 + y * t2 and x3 == x * s3 + y * t3 and xd == x * sd + y * td
    )


def canonical_key(series: Series) -> tuple:
    """Sort key of a series: its base plus its sorted steps.

    Two series with minimal bases, from which no step can be subtracted, share
    a key exactly when they generate the same members.
    """
    return (series.base, tuple(sorted(series.steps)))

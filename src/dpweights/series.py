"""Series construction and manipulation.

A series is a base quintuple plus step vectors; the six series classes fix
the step shape and the modulus (lcm of the series-defining weights).
"""
from __future__ import annotations

from math import lcm

from .conditions import cond_iv, detect_class, well_formed
from .core import Quintuple, Series, StepVector


def defining_weights(class_number: int, rep: Quintuple) -> tuple[int, ...]:
    """The weights whose lcm is the series modulus for this class."""
    if class_number in (1, 4, 5):
        return (rep.a0, rep.a1)
    if class_number in (2, 3):
        return (rep.a0, rep.a1, rep.a2)
    if class_number == 6:
        return (rep.a0, rep.a1, rep.index - rep.a0)
    raise ValueError(f"series class number must be 1..6, got {class_number}")


def make_series(class_number: int, rep: Quintuple) -> Series:
    """Build the series of the given class through a solid representative.

    Each class's defining relation is a type I, II or III relation, so a
    quintuple in a class always has a type, and solidity reduces to (iv) and
    well-formedness.  The input is checked once; the steps are the modulus,
    the lcm of the class-defining weights, times the class's step shapes, and
    are built without re-checking them.
    """
    if detect_class(rep) != class_number:
        raise ValueError(f"{rep} does not lie in series class {class_number}")
    if not (cond_iv(rep) and well_formed(rep)):
        raise ValueError(f"series representative {rep} is not solid")
    return Series._of_class(class_number, rep, lcm(*defining_weights(class_number, rep)))


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
    out: list[Quintuple] = []
    base = series.base.astuple()
    s1 = series.steps[0]
    if len(series.steps) == 1:
        for x in range(_max_param(base, s1, bound) + 1):
            vals = _shifted(base, s1, x)
            if vals[0] <= vals[1] <= vals[2] <= vals[3] <= bound:
                out.append(Quintuple(*vals))
        return out
    s2 = series.steps[1]
    for x in range(_max_param(base, s1, bound) + 1):
        mid = _shifted(base, s1, x)
        for y in range(_max_param(mid, s2, bound) + 1):
            vals = _shifted(mid, s2, y)
            if vals[0] <= vals[1] <= vals[2] <= vals[3] <= bound:
                out.append(Quintuple(*vals))
    return out


def contains(series: Series, q: Quintuple) -> bool:
    """Whether q is a member of the series at some non-negative parameters."""
    diff = tuple(t - b for t, b in zip(q.astuple(), series.base.astuple()))
    if any(x < 0 for x in diff):
        return False
    # every step's degree entry is positive (Series enforces it), so it is
    # the pivot; the floor divisions are exact when a solution exists, and
    # comparing all five coordinates rejects every other case
    s1 = series.steps[0]
    if len(series.steps) == 1:
        x = diff[4] // s1[4]
        return all(diff[i] == x * s1[i] for i in range(5))
    # independent steps have a non-zero 2x2 minor against the degree column,
    # and Cramer's rule on it gives the only candidate parameters (x, y)
    s2 = series.steps[1]
    i = next(i for i in range(4) if s1[i] * s2[4] != s1[4] * s2[i])
    det = s1[i] * s2[4] - s1[4] * s2[i]
    x = (diff[i] * s2[4] - diff[4] * s2[i]) // det
    y = (s1[i] * diff[4] - s1[4] * diff[i]) // det
    return x >= 0 and y >= 0 and all(diff[k] == x * s1[k] + y * s2[k] for k in range(5))


def canonical_key(series: Series) -> tuple:
    """Sort key of a series: its base plus its sorted steps.

    Two series with minimal bases, from which no step can be subtracted, share
    a key exactly when they generate the same members.
    """
    return (series.base.astuple(), tuple(sorted(series.steps)))

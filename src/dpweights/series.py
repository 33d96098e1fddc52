"""Series construction and manipulation.

A series is a base quintuple plus step vectors; the six series classes fix
the step shape and the modulus (lcm of the series-defining weights).
"""
from __future__ import annotations

from .conditions import detect_class, is_solid
from .core import Quintuple, Series, SeriesClass, StepVector, lcm_list

# step templates per class, in units of the modulus m
_STEP_SHAPES: dict[int, tuple[StepVector, ...]] = {
    1: ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1)),
    2: ((0, 0, 0, 1, 1),),
    3: ((0, 0, 0, 1, 1),),
    4: ((0, 0, 1, 1, 2),),
    5: ((0, 0, 1, 1, 2),),
    6: ((0, 0, 1, 1, 2),),
}


def defining_weights(class_number: int, rep: Quintuple) -> tuple[int, ...]:
    """The weights whose lcm is the series modulus for this class."""
    if class_number in (1, 4, 5):
        return (rep.a0, rep.a1)
    if class_number in (2, 3):
        return (rep.a0, rep.a1, rep.a2)
    if class_number == 6:
        k = rep.index - rep.a0
        return (rep.index - k, rep.index + k, k)
    raise ValueError(f"series class number must be 1..6, got {class_number}")


def make_series(class_number: int, rep: Quintuple) -> Series:
    """Build the series of the given class through a solid representative.

    The modulus is the lcm of the class-defining weights.
    """
    if not is_solid(rep):
        raise ValueError(f"series representative {rep} is not solid")
    if detect_class(rep) != class_number:
        raise ValueError(f"{rep} does not lie in series class {class_number}")
    m = lcm_list(defining_weights(class_number, rep))
    steps = tuple(
        tuple(m * e for e in shape)  # type: ignore[misc]
        for shape in _STEP_SHAPES[class_number]
    )
    return Series(SeriesClass.from_class_number(class_number), rep, steps)


def _shifted(base: tuple[int, ...], step: StepVector, count: int) -> tuple[int, ...]:
    return tuple(b + count * s for b, s in zip(base, step))


def _max_param(vals: tuple[int, ...], step: StepVector, bound: int) -> int:
    """Largest multiplier keeping every weight coordinate at or below bound."""
    best = None
    for i in range(4):
        if step[i] > 0:
            cap = (bound - vals[i]) // step[i]
            best = cap if best is None else min(best, cap)
    if best is None:
        raise ValueError(f"step {step} moves no weight")
    return best


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
    # the floor divisions are exact when a solution exists; comparing all
    # five coordinates rejects every other case
    s1 = series.steps[0]
    if len(series.steps) == 1:
        pivot = next(i for i in range(5) if s1[i] > 0)
        x = diff[pivot] // s1[pivot]
        return all(diff[i] == x * s1[i] for i in range(5))
    # independent steps (Series enforces it) have a non-zero 2x2 minor, and
    # Cramer's rule on it gives the only candidate parameters (x, y)
    s2 = series.steps[1]
    i, j = next((i, j) for i in range(5) for j in range(i + 1, 5) if s1[i] * s2[j] != s1[j] * s2[i])
    det = s1[i] * s2[j] - s1[j] * s2[i]
    x = (diff[i] * s2[j] - diff[j] * s2[i]) // det
    y = (s1[i] * diff[j] - s1[j] * diff[i]) // det
    return x >= 0 and y >= 0 and all(diff[k] == x * s1[k] + y * s2[k] for k in range(5))


def _try_sub(vals: tuple[int, ...], step: StepVector) -> tuple[int, ...] | None:
    cand = tuple(v - s for v, s in zip(vals, step))
    w, d = cand[:4], cand[4]
    if any(x < 1 for x in w) or not (w[0] <= w[1] <= w[2] <= w[3]) or d <= w[3]:
        return None
    return cand


def canonical_key(series: Series) -> tuple:
    """Identity of the generated member set: minimal base plus sorted steps.

    The base is walked down by the step vectors until no subtraction leaves a
    well-defined ordered quintuple; two series get the same key exactly when
    they generate the same members.
    """
    vals = series.base.astuple()
    moved = True
    while moved:
        moved = False
        for step in series.steps:
            lower = _try_sub(vals, step)
            if lower is not None:
                vals = lower
                moved = True
                break
    return (vals, tuple(sorted(series.steps)))

"""Per-index classification: enumerate series representatives and merge tables.

Every series class confines its representatives to one period window of the
modulus, so finitely many candidates cover all series of a given index; each
candidate is kept iff it is solid.  The window loops run on plain integers:
in classes 1-3 a non-coprime (a0, a1, a2) skips its whole a3 range, and each
candidate meets an integer pre-filter (cond_iv, coprime triples, pairwise
gcds dividing d, d > a3) before a Quintuple is built.  The pre-filter only
restates necessary conditions of ``is_solid``, which still decides on the
~2% that are built.  Validity of everything emitted is re-checked as a
defence against bugs in either condition path.
"""
from __future__ import annotations

from math import gcd

from .conditions import is_solid, quasismooth_divisibility
from .core import Classification, Quintuple, Series, ceil_div, lcm_list
from .series import canonical_key, contains, expand, make_series
from .tables import instantiate


def _candidate(a0: int, a1: int, a2: int, a3: int, d: int) -> Quintuple | None:
    """The window candidate as a Quintuple if it is solid, else None."""
    # integer pre-filter: cond_iv (a1 and a2 fail it most often), then
    # non-degeneracy, which Quintuple requires, and well-formedness, exactly
    # as is_solid phrases them
    for ai in (a1, a2, a0, a3):
        if (d - a0) % ai and (d - a1) % ai and (d - a2) % ai and (d - a3) % ai:
            return None
    if (d <= a3 or gcd(a0, a1, a2) != 1 or gcd(a0, a1, a3) != 1 or gcd(a0, a2, a3) != 1
            or gcd(a1, a2, a3) != 1 or d % gcd(a0, a1) or d % gcd(a0, a2) or d % gcd(a0, a3)
            or d % gcd(a1, a2) or d % gcd(a1, a3) or d % gcd(a2, a3)):
        return None
    q = Quintuple(a0, a1, a2, a3, d)
    return q if is_solid(q) else None


def enumerate_class(class_number: int, index: int) -> list[Series]:
    """All series of one class at one index, via solid window representatives."""
    if index < 1:
        raise ValueError(f"index must be positive, got {index}")
    found: list[Series] = []

    def emit(q: Quintuple | None, cls: int) -> None:
        if q is not None:
            found.append(make_series(cls, q))

    if class_number == 1:
        for a0 in range(1, index // 2 + 1):
            a1 = index - a0
            m = lcm_list((a0, a1))
            for a2 in range(a1, a1 + m):
                if gcd(a0, a1, a2) != 1:
                    continue
                for a3 in range(a2, a2 + m):
                    emit(_candidate(a0, a1, a2, a3, a2 + a3), 1)
    elif class_number == 2:
        for a0 in range(1, index // 2 + 1):
            a2 = index - a0
            for a1 in range(a0, index - a0):
                if gcd(a0, a1, a2) != 1:
                    continue
                m = lcm_list((a0, a1, a2))
                for a3 in range(a2, a2 + m):
                    emit(_candidate(a0, a1, a2, a3, a1 + a3), 2)
    elif class_number == 3:
        for a1 in range(2, index // 2 + 1):
            a2 = index - a1
            for a0 in range(1, a1):
                if gcd(a0, a1, a2) != 1:
                    continue
                m = lcm_list((a0, a1, a2))
                for a3 in range(a2, a2 + m):
                    emit(_candidate(a0, a1, a2, a3, a0 + a3), 3)
    elif class_number == 4:
        for k in range(max(ceil_div(index, 3), 1), index):
            a0, a1 = index - k, 2 * k
            m = lcm_list((a0, a1))
            for a2 in range(a1, a1 + m):
                emit(_candidate(a0, a1, a2, a2 + k, 2 * (a2 + k)), 4)
    elif class_number == 5:
        for k in range(1, ceil_div(index, 3)):
            a0, a1 = 2 * k, index - k
            m = lcm_list((a0, a1))
            for a2 in range(a1, a1 + m):
                emit(_candidate(a0, a1, a2, a2 + k, 2 * (a2 + k)), 5)
    elif class_number == 6:
        for k in range(1, index):
            a0, a1 = index - k, index + k
            m = lcm_list((a0, a1, k))
            for a2 in range(a1, a1 + m):
                emit(_candidate(a0, a1, a2, a2 + k, a1 + 2 * a2), 6)
    else:
        raise ValueError(f"series class number must be 1..6, got {class_number}")
    return found


def _outside_series(quintuples: list[Quintuple], series: list[Series]) -> list[Quintuple]:
    """The quintuples no series contains, unique and sorted."""
    # steps that leave a0 and a1 fixed confine a series' members to its base's
    # (a0, a1); series with other steps (some table rows) are always scanned
    by_head: dict[tuple[int, int] | None, list[Series]] = {}
    for s in series:
        fixed = all(step[0] == step[1] == 0 for step in s.steps)
        by_head.setdefault((s.base.a0, s.base.a1) if fixed else None, []).append(s)
    unkeyed = by_head.get(None, [])
    return sorted(
        q for q in set(quintuples)
        if not any(contains(s, q) for s in by_head.get((q.a0, q.a1), []) + unkeyed)
    )


def _assert_valid(q: Quintuple) -> None:
    if not quasismooth_divisibility(q).accepted:
        raise RuntimeError(f"emission failed the condition suite: {q}")


def classify_index(index: int) -> Classification:
    """Complete classification at one index: series plus sporadic quintuples."""
    two_param = enumerate_class(1, index)
    one_param: list[Series] = []
    for cls in range(2, 7):
        one_param.extend(enumerate_class(cls, index))
    table_series, table_sporadic = instantiate(index)
    one_param.extend(table_series)

    def dedup(seriess: list[Series]) -> list[Series]:
        by_key = {canonical_key(s): s for s in seriess}
        return [by_key[k] for k in sorted(by_key)]

    two_param = dedup(two_param)
    one_param = dedup(one_param)
    all_series = two_param + one_param

    sporadic = _outside_series(table_sporadic, all_series)

    for s in all_series:
        _assert_valid(s.base)
    for q in sporadic:
        _assert_valid(q)
    return Classification(index, tuple(two_param), tuple(one_param), tuple(sporadic))


def expand_classification(c: Classification, bound: int) -> list[Quintuple]:
    """Every concrete quintuple of the classification with a3 <= bound, sorted."""
    members: set[Quintuple] = {q for q in c.sporadic if q.a3 <= bound}
    for s in c.all_series:
        members.update(expand(s, bound))
    return sorted(members)

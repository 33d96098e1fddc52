"""Brute-force ground truth, independent of the series machinery.

``brute_force`` enumerates ordered weight systems directly and keeps those
passing the monomial-form conditions.  It never consults series classes or
tables, so its output is a genuinely independent check of the classifier.
Its pruning is its own: a3 is drawn from divisors, and two conditions the
monomial form imposes on every quintuple are tested first on plain integers,
written here with ``math.gcd`` and ``%`` rather than borrowed from the
integer predicates the classifier uses.  What the pruning drops, the
monomial form would reject, so every hit is still decided by that form.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from .conditions import detect_class, detect_types, quasismooth_monomial
from .core import Quintuple


def _divisor_table(limit: int, top: int) -> list[list[int]]:
    """``divs[n]``: the divisors of n that are at most ``top``, ascending."""
    divs: list[list[int]] = [[] for _ in range(limit + 1)]
    for a in range(1, top + 1):
        for b in range(a, limit + 1, a):
            divs[b].append(a)
    return divs


def brute_force(index: int, bound: int) -> list[Quintuple]:
    """All quintuples of the given index with a3 <= bound, lexicographically.

    Loops a0 <= a1 <= a2 and takes a3 only from the values that give x3 a
    monomial x3^m x_j of degree d: a3 divides d - a_j (every a3 does when
    d - a3 equals a0, a1 or a2).  Each such candidate must then pass two
    conditions on plain integers: every weight triple holding a3 is coprime,
    and a0, a1 and a2 each divide d - a_j for some weight a_j.  The monomial
    form applies both to every quintuple and waives neither, so what they
    skip it would reject; the pair conditions, which it waives for the
    covered-edge family, are left to it.  Only the survivors become a
    ``Quintuple`` and see the full monomial check, so every hit is still
    decided by that form alone.
    """
    if index < 1 or bound < 1:
        raise ValueError(f"index and bound must be positive: index={index} bound={bound}")
    divisors = _divisor_table(3 * bound, bound)
    hits: list[Quintuple] = []
    for a0 in range(1, bound + 1):
        for a1 in range(a0, bound + 1):
            for a2 in range(a1, bound + 1):
                if gcd(a0, a1, a2) != 1:
                    continue  # a coprime triple is required no matter what a3 is
                s = a0 + a1 + a2 - index  # equals d - a3; positive iff d > a3
                if s < 1:
                    continue
                if s in (a0, a1, a2):
                    a3_range: range | list[int] = range(a2, bound + 1)  # x3 * x_j has degree d
                else:
                    # a3 divides d iff it divides s, and d - a_j iff it divides s - a_j
                    cands: set[int] = set()
                    for t in (s, s - a0, s - a1, s - a2):
                        if t > 0:
                            divs = divisors[t]
                            cands.update(divs[bisect_left(divs, a2):])
                    if not cands:
                        continue
                    a3_range = sorted(cands)
                # d - a3 = s, so a_i | s covers a_i by x_i^m x3 for every a3
                uncovered = [ai for ai in (a0, a1, a2) if s % ai]
                for a3 in a3_range:
                    if gcd(a0, a1, a3) != 1 or gcd(a0, a2, a3) != 1 or gcd(a1, a2, a3) != 1:
                        continue
                    d = s + a3
                    for ai in uncovered:
                        if (d - a0) % ai and (d - a1) % ai and (d - a2) % ai:
                            break
                    else:
                        q = Quintuple(a0, a1, a2, a3, d)
                        if quasismooth_monomial(q):
                            hits.append(q)
    return hits


@dataclass(frozen=True)
class CoverageDiagnosis:
    """How one brute-force hit is explained by the structured classification."""

    types: frozenset[str]
    series_class: int | None
    table_covered: bool

    @property
    def covered(self) -> bool:
        return bool(self.types) or self.series_class is not None or self.table_covered


def type_coverage(index: int, bound: int) -> list[tuple[Quintuple, CoverageDiagnosis]]:
    """Diagnose every brute-force hit: type, series class, table coverage.

    A quintuple flagged uncovered (no type, no class, not in the tables)
    would mark a gap in the classification data.
    """
    from .series import contains  # local import keeps brute_force table-free
    from .tables import instantiate

    table_series, table_sporadic = instantiate(index)
    sporadic_set = set(table_sporadic)
    out = []
    for q in brute_force(index, bound):
        covered = q in sporadic_set or any(contains(s, q) for s in table_series)
        out.append((q, CoverageDiagnosis(detect_types(q), detect_class(q), covered)))
    return out

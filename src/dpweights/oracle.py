"""Brute-force ground truth, independent of the series machinery.

``brute_force`` enumerates ordered weight systems directly and keeps those
passing the monomial-form conditions.  It never consults series classes or
tables, so its output is a genuinely independent check of the classifier.
Its pruning is its own: a3 is drawn from the values that give x3 a monomial
of degree d, and two conditions the monomial form imposes on every quintuple
are tested first on plain integers, written here with ``math.gcd`` and ``%``
rather than borrowed from the integer predicates the classifier uses.  What
the pruning drops, the monomial form would reject, so every hit is still
decided by that form.
"""
from __future__ import annotations

from math import gcd

from .conditions import quasismooth_monomial
from .core import Quintuple


def brute_force(index: int, bound: int) -> list[Quintuple]:
    """All quintuples of the given index with a3 <= bound, lexicographically.

    Loops a0 <= a1 <= a2 and takes a3 only from the values that give x3 a
    monomial x3^m x_j of degree d: with s = d - a3, a3 divides some t in
    (s, s - a0, s - a1, s - a2) (every a3 does when s equals a0, a1 or a2).
    Each t is below 3*a2, so its only divisors a3 >= a2 are t and t/2.  Each
    candidate must then pass two conditions on plain integers: every weight
    triple holding a3 is coprime, and a0, a1 and a2 each divide d - a_j for
    some weight a_j.  The monomial form applies both to every quintuple and
    waives neither, so what they skip it would reject; the pair conditions,
    which it waives for the covered-edge family, are left to it.  Only the
    survivors become a ``Quintuple`` and see the full monomial check, so
    every hit is still decided by that form alone.
    """
    if index < 1 or bound < 1:
        raise ValueError(f"index and bound must be positive: index={index} bound={bound}")
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
                        if a2 <= t <= bound:
                            cands.add(t)
                        if t % 2 == 0 and a2 <= t // 2 <= bound:
                            cands.add(t // 2)
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

"""Brute-force ground truth, independent of the series machinery.

``brute_force`` enumerates ordered weight systems directly and keeps those
passing the monomial-form conditions.  It never consults series classes or
tables, so its output is a genuinely independent check of the classifier.
Its pruning is its own: for each pair (a0, a1) it takes (a2, a3) only from
the values that give both x2 and x3 a monomial of degree d, and then tests
two conditions the monomial form imposes on every quintuple on plain
integers, written here with ``math.gcd`` and ``%`` rather than borrowed from
the integer predicates the classifier uses.  What the pruning drops, the
monomial form would reject, so every hit is still decided by that form.

With c = a0 + a1 - I, so that s = d - a3 = a2 + c, three facts about the
pair (a0, a1) give those (a2, a3); ``brute_force`` proves them:

* Free a3: every a3 gives x3 a monomial exactly when c = 0, a2 = I - a0 or
  a2 = I - a1.
* Offsets: otherwise a3 = a2 + delta for delta in {c, a1 - I, a0 - I} with
  delta >= 0, or, only when a2 <= c, a3 = c or a3 = s/2.
* a2 on an offset: x2 has a monomial exactly when a2 divides one of the
  constants c, c + delta, c + delta - a0, c + delta - a1.
* Few a2: when c > 0, each of those constants k has |k| < 4*a2, and when
  a2 <= c, each constant that decides a3 = c or a3 = s/2 has |k| < 6*a2.
  So a2 is a small quotient k/m of one of them, and ``_a2_a3`` takes these
  quotients as its candidates instead of scanning a2.  The modular test
  still decides every candidate; only a zero constant, which every a2
  divides, sends an offset back to its whole range of a2.
"""
from __future__ import annotations

from math import gcd

from .conditions import quasismooth_monomial
from .core import Quintuple


def _a2_a3(index: int, bound: int, a0: int, a1: int) -> list[tuple[int, int]]:
    """Every (a2, a3) with a1 <= a2 <= a3 <= bound and d > a3 for which both
    x2 and x3 have a monomial x_i^m x_j of degree d, in ascending order."""
    c = a0 + a1 - index
    if c <= 0:
        # free a3; a2 divides d - a3, d - a0, d - a1 or d - a2, that is
        # c, c + a3 - a0, c + a3 - a1 or c + a3 modulo a2
        return [
            (a2, a3)
            for a2 in (range(a1, bound + 1) if c == 0 else sorted({index - a1, index - a0}))
            if a1 <= a2
            for a3 in range(a2, bound + 1)
            if not (c % a2 and (c + a3 - a0) % a2 and (c + a3 - a1) % a2 and (c + a3) % a2)
        ]
    found: set[tuple[int, int]] = set()
    for delta in {c, a1 - index, a0 - index}:
        if delta < 0:
            continue
        k1 = c + delta
        k2 = k1 - a0
        k3 = k1 - a1
        top = bound - delta
        # an a2 dividing one of c, k1, k2, k3 is c, k1/m (m <= 3) or k2/m,
        # k3/m (m <= 2); a zero k2 or k3 lets every a2 pass
        for a2 in (c, k1, k1 // 2, k1 // 3, k2, k2 // 2, k3, k3 // 2) if k2 and k3 else range(a1, top + 1):
            if a1 <= a2 <= top and not (c % a2 and k1 % a2 and k2 % a2 and k3 % a2):
                found.add((a2, a2 + delta))
    top = min(c, bound)
    if a1 <= top:
        # a2 <= c needs a0 >= I, so every constant below is positive
        c2 = 2 * c
        k0 = c2 - a0
        k1 = c2 - a1
        if c <= bound:
            # a3 = c: a2 divides c, 2c, 2c - a0 or 2c - a1
            for a2 in (c, c2 // 3, k0, k0 // 2, k1, k1 // 2):
                if a1 <= a2 <= top and not (c % a2 and c2 % a2 and k0 % a2 and k1 % a2):
                    found.add((a2, c))
        # a3 = s/2: a2 dividing c + a3 - a_j divides 3c - 2*a_j, as 2*a3 = a2 + c
        c3 = 3 * c
        k0 = c3 - 2 * a0
        k1 = c3 - 2 * a1
        for a2 in (c, c3 // 4, c3 // 5, k0, k0 // 2, k0 // 3, k1, k1 // 2, k1 // 3):
            s = a2 + c
            if a1 <= a2 <= top and s % 2 == 0:
                a3 = s // 2
                if a3 <= bound and not (c % a2 and (c + a3 - a0) % a2 and (c + a3 - a1) % a2 and (c + a3) % a2):
                    found.add((a2, a3))
    return sorted(found)


def brute_force(index: int, bound: int) -> list[Quintuple]:
    """All quintuples of the given index with a3 <= bound, lexicographically.

    Loops a0 <= a1 and takes (a2, a3) from ``_a2_a3``: those giving x2 and x3
    a monomial x_i^m x_j of degree d, that is with a2 and a3 each dividing
    some d - a_j.  Put c = a0 + a1 - I, so that s = d - a3 = a2 + c.  Then a3
    divides d - a_j exactly when it divides t = d - a3 - a_j, one of
    (s, s - a0, s - a1, s - a2) = (a2 + c, a2 + a1 - I, a2 + a0 - I, c).

    * Free a3.  Every a3 divides t = 0, and reading the four values off,
      t = 0 exactly when c = 0, a2 = I - a1 or a2 = I - a0.  Then s is a2,
      a0 or a1, so d > a3 for every a3 too.
    * Offsets.  Every other t is a2 + delta for delta in
      {c, a1 - I, a0 - I}, or t = c.  A negative t lies above -a3, as
      d > a_j, so a3 does not divide it.  As a0 + a1 <= 2*a2 and I >= 1,
      c < 2*a2 and every t < 3*a2, so a divisor a3 >= a2 of t is t or t/2.
      t = a2 + delta is such an a3 exactly when delta >= 0, and t = c when
      a2 <= c.  A half t/2 >= a2 needs t >= 2*a2: never for t = c < 2*a2,
      nor for a2 + (a1 - I) or a2 + (a0 - I), as a1 - I and a0 - I are below
      a1 <= a2; for t = s exactly when a2 <= c.  So beyond the offsets only
      c and s/2 are candidates, and only when a2 <= c.  If c < 0, no delta
      is >= 0 and no a2 <= c, so only the free a3 remain.  If c > 0, then
      s = a2 + c >= 1, so d > a3 for every candidate.
    * a2 on an offset.  If a3 = a2 + delta, then d = 2*a2 + c + delta, so
      d - a3, d - a2, d - a0 and d - a1 are congruent modulo a2 to the
      constants c, c + delta, c + delta - a0 and c + delta - a1.  So a2
      divides some d - a_j exactly when it divides one of them, and every a2
      does when one of them is 0.  The free a3 and the a3 of a2 <= c test a2
      directly, against the same four values reduced modulo a2: c,
      c + a3 - a0, c + a3 - a1 and c + a3.
    * Few a2 (c > 0).  Then c < 2*a2 and every delta <= c, as a1 - I and
      a0 - I are c - a0 and c - a1.  On an offset, 0 < c + delta < 4*a2,
      while c + delta - a0 = a1 - I + delta and c + delta - a1 =
      a0 - I + delta lie above -a2 (as a0 + a1 > I) and below a2 + c < 3*a2.
      So a2 divides a nonzero one of them only as c, (c + delta)/m with
      m <= 3, or (c + delta - a_j)/m with m <= 2; a negative one it does not
      divide at all.  Only the last two can be 0, on the lines a0 = I,
      a1 = I, a0 + a1 = 2I, a0 = 2(I - a1) and a1 = 2(I - a0), and there
      every a2 of the offset passes.  When a2 <= c, then a1 <= c, so a0 >= I
      and c/2 < a2.  For a3 = c, a2 divides c, 2c, 2c - a0 or 2c - a1.  For
      a3 = s/2, 2*a3 = a2 + c turns a2 | c + a3 - a_j into
      a2 | 3c - 2*a_j for a_j in {a0, a1, 0}.  Each of these constants lies
      in [a1, 6*a2): 2c in [2*a2, 4*a2), 3c in [3*a2, 6*a2),
      2c - a0 = a0 + 2*a1 - 2I and 2c - a1 = 2*a0 + a1 - 2I below 3*a2, and
      3c - 2*a0 = a0 + 3*a1 - 3I and 3c - 2*a1 = 3*a0 + a1 - 3I below
      4*a2.  So a2 is c, 2c/3, 3c/4, 3c/5, (2c - a_j)/m with m <= 2 or
      (3c - 2*a_j)/m with m <= 3, a superset of the a2 that pass.  Each
      candidate, taken as a floor quotient whether or not it divides, then
      meets the unchanged test against c, c + a3 - a0, c + a3 - a1 and
      c + a3, so the candidates give exactly the pairs a scan of every a2
      gives.

    Each candidate must then pass two conditions on plain integers: every
    weight triple is coprime, and a0 and a1 each divide d - a_j for some
    weight a_j (``_a2_a3`` decided that for a2 and a3).  The monomial form
    applies both to every quintuple and waives neither, so what they skip it
    would reject; the pair conditions, which it waives for the covered-edge
    family, are left to it.  Only the survivors become a ``Quintuple`` and see
    the full monomial check, so every hit is still decided by that form alone.
    """
    if index < 1 or bound < 1:
        raise ValueError(f"index and bound must be positive: index={index} bound={bound}")
    hits: list[Quintuple] = []
    for a0 in range(1, bound + 1):
        for a1 in range(a0, bound + 1):
            g = gcd(a0, a1)
            for a2, a3 in _a2_a3(index, bound, a0, a1):
                if gcd(g, a2) != 1 or gcd(g, a3) != 1 or gcd(a0, a2, a3) != 1 or gcd(a1, a2, a3) != 1:
                    continue
                d = a0 + a1 + a2 + a3 - index
                for ai in (a0, a1):
                    if (d - a0) % ai and (d - a1) % ai and (d - a2) % ai and (d - a3) % ai:
                        break
                else:
                    q = Quintuple(a0, a1, a2, a3, d)
                    if quasismooth_monomial(q):
                        hits.append(q)
    return hits

"""Brute-force ground truth, independent of the series machinery.

``brute_force`` enumerates ordered weight systems directly and keeps those
passing the monomial-form conditions.  It never consults series classes or
tables, so its output is a genuinely independent check of the classifier.
Its pruning is its own: for each pair (a0, a1) it takes (a2, a3) only from
the values that give each of x0, x1, x2 and x3 a monomial of degree d, and
then tests on plain integers that every weight triple is coprime and that
every pair gcd divides d, save for the one shape whose pair the monomial
form waives.  These tests are written here with ``math.gcd`` and ``%``
rather than borrowed from the integer predicates the classifier uses.  What
the pruning drops, the monomial form would reject, so every hit is still
decided by that form, and every quintuple it sees is a hit.

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
* Pair bound: every candidate has a3 >= (a1 + c)/2, so a pair with
  a0 + 2*a1 > 2*bound + I has none, and ``brute_force`` ends its a1 loop
  there.  Within a pair, ``_a2_a3`` skips an offset whose a2 range
  a1..bound - delta is empty and caps a2 <= c at 2*bound - c, where
  a3 = s/2 passes bound.
* Free a3 at c = 0: a0 + a1 = I and d = a2 + a3.  Unless a0 divides a2, a0
  divides some d - a_j exactly when a3 is 0, -a2 or a1 - a2 modulo a0, and
  likewise for a1 with a0 - a2.  ``_free_pairs`` walks those residues
  instead of every a3.
* x0 and x1 elsewhere: ``_a2_a3`` tests a0 and a1 against the four d - a_j
  of each (a2, a3) before it keeps it.
* Pair gate: the monomial form rejects every quintuple with a pair gcd that
  does not divide d, unless the quintuple has the covered-edge shape.
"""
from __future__ import annotations

from math import gcd

from .conditions import quasismooth_monomial
from .core import Quintuple


def _a2_a3(index: int, bound: int, a0: int, a1: int) -> list[tuple[int, int]]:
    """Every (a2, a3) with a1 <= a2 <= a3 <= bound and d > a3 for which each
    of x0, x1, x2 and x3 has a monomial x_i^m x_j of degree d, in ascending
    order."""
    c = a0 + a1 - index
    if c == 0:
        return _free_pairs(bound, a0, a1)
    found: set[tuple[int, int]] = set()
    if c < 0:
        for a2 in {index - a1, index - a0}:
            if a2 < a1:
                continue
            # free a3; a2 divides d - a3, d - a0, d - a1 or d - a2, that is
            # c, c + a3 - a0, c + a3 - a1 or c + a3 modulo a2; c is a0 - a2
            # or a1 - a2, in (-a2, 0), so a3 is a0 - c, a1 - c or -c modulo a2
            for r in {(a0 - c) % a2, (a1 - c) % a2, -c % a2}:
                for a3 in range(a2 + r, bound + 1, a2):
                    d = c + a2 + a3
                    if (d % a0 and (d - a1) % a0 and (d - a2) % a0 and (d - a3) % a0) or (
                        d % a1 and (d - a0) % a1 and (d - a2) % a1 and (d - a3) % a1
                    ):
                        continue
                    found.add((a2, a3))
        return sorted(found)
    # a1 - I = a0 - I exactly when a0 = a1; c equals neither
    for delta in (c, a1 - index, a0 - index) if a0 != a1 else (c, a1 - index):
        top = bound - delta
        if delta < 0 or top < a1:
            continue
        k1 = c + delta
        k2 = k1 - a0
        k3 = k1 - a1
        # an a2 dividing one of c, k1, k2, k3 is c, k1/m (m <= 3) or k2/m,
        # k3/m (m <= 2); a zero k2 or k3 lets every a2 pass
        for a2 in (c, k1, k1 // 2, k1 // 3, k2, k2 // 2, k3, k3 // 2) if k2 and k3 else range(a1, top + 1):
            if a1 <= a2 <= top and not (c % a2 and k1 % a2 and k2 % a2 and k3 % a2):
                a3 = a2 + delta
                d = k1 + 2 * a2
                if (d % a0 and (d - a1) % a0 and (d - a2) % a0 and (d - a3) % a0) or (
                    d % a1 and (d - a0) % a1 and (d - a2) % a1 and (d - a3) % a1
                ):
                    continue
                found.add((a2, a3))
    # a3 = s/2 = (a2 + c)/2 <= bound caps a2 at 2*bound - c, and that cap is
    # c or above whenever a3 = c <= bound is possible
    top = min(c, 2 * bound - c)
    if a1 <= top:
        # a2 <= c needs a0 >= I, so every constant below is positive
        c2 = 2 * c
        k0 = c2 - a0
        k1 = c2 - a1
        if c <= bound:
            # a3 = c: a2 divides c, 2c, 2c - a0 or 2c - a1
            for a2 in (c, c2 // 3, k0, k0 // 2, k1, k1 // 2):
                if a1 <= a2 <= top and not (c % a2 and c2 % a2 and k0 % a2 and k1 % a2):
                    d = a2 + c2
                    if (d % a0 and (d - a1) % a0 and (d - a2) % a0 and (d - c) % a0) or (
                        d % a1 and (d - a0) % a1 and (d - a2) % a1 and (d - c) % a1
                    ):
                        continue
                    found.add((a2, c))
        # a3 = s/2: a2 dividing c + a3 - a_j divides 3c - 2*a_j, as 2*a3 = a2 + c
        c3 = 3 * c
        k0 = c3 - 2 * a0
        k1 = c3 - 2 * a1
        for a2 in (c, c3 // 4, c3 // 5, k0, k0 // 2, k0 // 3, k1, k1 // 2, k1 // 3):
            s = a2 + c
            if a1 <= a2 <= top and s % 2 == 0:
                a3 = s // 2
                if not (c % a2 and (c + a3 - a0) % a2 and (c + a3 - a1) % a2 and (c + a3) % a2):
                    d = s + a3
                    if (d % a0 and (d - a1) % a0 and (d - a2) % a0 and s % a0) or (
                        d % a1 and (d - a0) % a1 and (d - a2) % a1 and s % a1
                    ):
                        continue
                    found.add((a2, a3))
    return sorted(found)


def _free_pairs(bound: int, a0: int, a1: int) -> list[tuple[int, int]]:
    """``_a2_a3`` for c = 0, that is a0 + a1 = I: every
    a1 <= a2 <= a3 <= bound at which a0 and a1 each divide some d - a_j, in
    ascending order; every such pair gives x2 and x3 a monomial.

    A weight a_i of a0, a1 that divides a2 passes; otherwise a3 must be 0,
    -a2 or a_k - a2 modulo a_i, with a_k the other one (``brute_force``
    proves it).  The walk strides those residues of the larger such a_i,
    which leaves fewer a3, and tests the other.
    """
    found: list[tuple[int, int]] = []
    for a2 in range(a1, bound + 1):
        moduli = [(m, k) for m, k in ((a1, a0), (a0, a1)) if a2 % m]
        if not moduli:
            found.extend((a2, a3) for a3 in range(a2, bound + 1))
            continue
        m, k = moduli[0]
        a3s = sorted(
            a3 for r in {0, -a2 % m, (k - a2) % m} for a3 in range(a2 + (r - a2) % m, bound + 1, m)
        )
        for m, k in moduli[1:]:
            residues = {0, -a2 % m, (k - a2) % m}
            a3s = [a3 for a3 in a3s if a3 % m in residues]
        found.extend((a2, a3) for a3 in a3s)
    return found


def brute_force(index: int, bound: int) -> list[Quintuple]:
    """All quintuples of the given index with a3 <= bound, lexicographically.

    Loops a0 <= a1 and takes (a2, a3) from ``_a2_a3``: those giving each of
    x0, x1, x2 and x3 a monomial x_i^m x_j of degree d, that is with every
    weight dividing some d - a_j.  The facts below find the (a2, a3) that
    pass for a2 and a3; the last two bullets add a0 and a1.  Put
    c = a0 + a1 - I, so that s = d - a3 = a2 + c.  Then a3
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
      c + a3 - a0, c + a3 - a1 and c + a3.  For c < 0, where a2 is I - a1
      or I - a0, c is a0 - a2 or a1 - a2, which lies in (-a2, 0) and so is
      no multiple of a2.  So a3 is a0 - c, a1 - c or -c modulo a2, and
      ``_a2_a3`` strides those residues instead of every a3.
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
    * Pair bound.  Every candidate has a3 >= (a1 + c)/2 =
      (a0 + 2*a1 - I)/2.  On an offset, a3 = a2 + delta with delta >= 0 and
      a2 >= a1, so a3 >= a1; and a2 + c, a2 + (a1 - I), a2 + (a0 - I) are
      at least c, as a2 >= a1 >= a0; so a3 >= max(a1, c).  a3 = c is c and
      a3 >= a2 >= a1.  a3 = s/2 = (a2 + c)/2 >= (a1 + c)/2.  So once
      a0 + 2*a1 > 2*bound + I, no candidate has a3 <= bound, and the a1 loop
      stops at (2*bound + I - a0) // 2.  For c <= 0 the cut never applies:
      a0 + a1 <= I and a1 <= bound give a0 + 2*a1 <= 2*bound + I.  Inside
      ``_a2_a3`` an offset with bound - delta < a1 has no a2, and a3 = s/2
      <= bound caps a2 <= c at 2*bound - c, which is c itself whenever
      a3 = c <= bound.  None of these exits changes its output.
    * Free a3 at c = 0.  Then d = a2 + a3, so d - a2 = a3, d - a3 = a2, and
      every (a2, a3) with a1 <= a2 <= a3 <= bound is a candidate.  a0
      divides d - a3 = a2, or one of d - a0, d - a1 and d - a2, which are
      a2 + a3, a2 + a3 - a1 and a3 modulo a0.  So unless a0 | a2, a3 is
      -a2, a1 - a2 or 0 modulo a0.  Likewise a3 is -a2, a0 - a2 or 0
      modulo a1 unless a1 | a2.
      ``_free_pairs`` yields exactly the candidates that meet both, striding
      the residues of one modulus and testing the other.
    * x0 and x1 elsewhere.  For c != 0, ``_a2_a3`` keeps a pair only when a0
      and a1 each divide one of d - a0, d - a1, d - a2 and d - a3, tested
      with ``%`` alone.  These d - a_j are all positive, as d > a3, so a
      divisor of one gives a monomial x_i^m x_j with m >= 1.  For c = 0 the
      walk of ``_free_pairs`` has decided both.  So every candidate meets
      (iv) for all four weights, and ``brute_force`` has no test of its own.

    Each candidate must then pass two more conditions on plain integers, in
    three gcds beyond gcd(a0, a1):

    * Triples.  Every weight triple is coprime.  gcd(g, x*y) = 1 exactly when
      gcd(g, x) = gcd(g, y) = 1, so the triples holding a0 and a1 are coprime
      exactly when gcd(gcd(a0, a1), a2*a3) is 1, and the triples holding a2
      and a3 exactly when gcd(gcd(a2, a3), a0*a1) is.
    * Pair gate.  Every pair gcd divides d.  With the triples coprime, a
      prime divides at most two weights, so gcd(a0*a1, a2*a3) is the product
      of the four gcds of a pair across {a0, a1} and {a2, a3}, and these are
      pairwise coprime.  So that one gcd divides d exactly when each of the
      four does; gcd(a0, a1) and gcd(a2, a3) are tested on their own.

    The monomial form applies the triple condition to every quintuple, and
    rejects every quintuple with a pair whose gcd does not divide d, save the
    even pair it waives for the covered-edge shape: weights 7, 2v, 3v and
    (9v - 7)/2 and degree 9v, with v = 3 mod 4 and 7 not dividing v.  It
    waives no pair elsewhere.  Its test of the shape (d odd, 9 | d, even
    weights 2v and (9v - 7)/2, odd weights 7 and 3v) asks (9v - 7)/2 to be
    even, that is v = 3 mod 4, or d = 27 modulo 36, and omits 7 not dividing
    v; but when 7 divides v the triple (7, 2v, 3v) shares 7 and was skipped
    already.  So the gate lets a failed pair gcd through only on that shape,
    with the weights in order, and everything the two tests skip the monomial
    form would reject.  Only the survivors become a ``Quintuple`` and see the
    full monomial check, so every hit is still decided by that form alone.
    Each survivor is also a hit: the ``conditions`` module proves that (v)
    and (vi) follow from (i), (ii) and (iv), with the covered-edge pair
    covered by its shape.
    """
    if index < 1 or bound < 1:
        raise ValueError(f"index and bound must be positive: index={index} bound={bound}")
    hits: list[Quintuple] = []
    for a0 in range(1, bound + 1):
        # a0 + 2*a1 > 2*bound + I puts every a3 above bound
        for a1 in range(a0, min(bound, (2 * bound + index - a0) // 2) + 1):
            c = a0 + a1 - index
            g = gcd(a0, a1)
            for a2, a3 in _a2_a3(index, bound, a0, a1):
                g23 = gcd(a2, a3)
                if gcd(g, a2 * a3) != 1 or gcd(g23, a0 * a1) != 1:
                    continue
                d = c + a2 + a3
                # a pair gcd not dividing d passes only on the covered-edge
                # shape: 7, 2v, 3v, (9v - 7)/2 of degree 9v, v = 3 mod 4, v prime to 7
                if (
                    d % g or d % g23 or d % gcd(a0 * a1, a2 * a3)
                ) and not (
                    d % 36 == 27
                    and (v := d // 9) % 7
                    and [a0, a1, a2, a3] == sorted((7, 2 * v, 3 * v, (9 * v - 7) // 2))
                ):
                    continue
                q = Quintuple(a0, a1, a2, a3, d)
                if quasismooth_monomial(q):
                    hits.append(q)
    return hits

"""Quasi-smoothness and well-formedness tests for weight quintuples.

Two deliberately independent formulations are implemented:

* a divisibility form (``quasismooth_divisibility``), used by the classifier,
  which phrases every condition as divisibility of degree differences; each
  pair condition asks whether r = ai*c + aj*b for some b, c >= 0, which one
  kernel (``_reaches``) answers in closed form, so its cost is O(log d) per
  pair and does not grow with the degree, and
* a monomial form (``quasismooth_monomial``), used by the brute-force oracle,
  which searches directly for the monomials a general degree-d polynomial
  must contain.

Both decide the same predicate; the equivalence is exercised exhaustively in
the test suite.  The divisibility verdict (``_accepted``) decides every
condition in one pass over the pairs; the per-condition detail that ``dpweights
check`` prints comes from ``_pair_conditions`` alone, and both ask every
monomial question through ``_reaches``.  The tests pin the verdict to the
conjunction of that detail, the covered-edge family included.

One parametric family needs special handling.  In (7, 2v, 3v, (9v-7)/2) of
degree 9v with v = 3 mod 4 and prime to 7, the two even weights have gcd 2
while the degree is odd, so no monomial in those two variables alone exists
and their edge lies inside every member of the linear system.  Both cross
monomials covering the edge exist, so the general member stays quasi-smooth
along it, and the tables include the family: the pure-pair requirements step
aside for exactly this edge; every other condition still applies.

Conditions (v) and (vi) follow from (i), (ii) and (iv).  Take a pair (i, j)
with other indices k, l; every d - a_m is positive.

* (v): let g = gcd(a_i, a_j) > 1 divide d, and a_i | d - a_m by (iv).  m = k
  would put g into a_k, against the coprime triple (i, j, k), and so would
  m = l.  So m is i or j: a pure monomial in x_i, x_j exists.
* (vi), coprime pair without a pure monomial: (iv) then sends a_i and a_j to
  d - a_k or d - a_l.  Both to k would give a_i*a_j | d - a_k > 0, so d would
  exceed the Frobenius number a_i*a_j - a_i - a_j and a pure monomial would
  exist.  So they go to k and l, and those are the two cross monomials.
* (vi), other pairs: through (v), and the covered-edge pair by its shape,
  d - 7 = 2*(9v-7)/2 and d - 3v = 3*2v.  The verdict still re-checks both.

Lemma B: on a quintuple that passes (iv) and is well formed, ``detect_types``
is non-empty exactly when ``detect_class`` is not None.  So a solid
quintuple, one that passes (iv), is well formed and has a type, is one that
passes (iv), is well formed and lies in a class, and ``is_solid`` decides by
the class.  Write I for the index and, for type II at (i, j), h = a_j/2, so
I = a_i + h.

* Class gives type, on every quintuple: classes 1-3 are type I on a pair of
  a0..a2, class 4 is type II at (i, j) = (0, 1), class 5 at (1, 0), and
  class 6 is type III.
* Type gives class.  Type III is class 6.  Type I on a pair of a0..a2 is
  class 1, 2 or 3 through the weight order; type II at (0, 1) is class 4,
  and at (1, 0) class 5, or class 4 when a0 = a1.  Call these direct.  For
  the rest, (iv) on a3 narrows d: a3 divides some d - a_m, which lies in
  (0, 3*a3) since d > a3 and I >= 1, so d - a_m is a3 or 2*a3.  So d is
  a3 + a_m or 2*a3 + a_m with m < 3, 2*a3 or 3*a3.
* d = a3 + a_m: I is the sum of the other two of a0..a2, direct.
* d = 3*a3: I = a0 - (a3 - a1) - (a3 - a2) <= a0, while every type puts I
  above a0.
* d = 2*a3 + a_m: I = a_p + a_q - a3 <= min(a_p, a_q) <= a1 with
  {m, p, q} = {0, 1, 2}.  So no type I, and type II needs a_i < I, so i = m
  and a_m < min(a_p, a_q), that is i = m = 0, d = 2*a3 + a0 and
  I = a1 + a2 - a3; j is 1 (direct), 2 or 3.
  - j = 2: a3 = a1 + h - a0, so a0 <= h and 2h <= a3 < 3h.  Then a2 = 2h
    divides none of the d - a_x, which are 2*a3, a3 + h, 2*a3 + a0 - 2h and
    a3 + a0, unless a3 = a2: (iv) fails.
  - j = 3: a1 + a2 = a0 + 3h with a2 <= a3 = 2h, so a0 <= h and a2 > 3h/2.
    If a2 < a3, a2 divides none of 4h, h + a2 and 2h + a0, and dividing
    4h + a0 - a2 needs 3*a2 = 4h + a0, which makes a1 > a2: (iv) fails.
  - Both leave a2 = a3 = 2h, and gcd(a2, a3) = 2h does not divide
    d = 4h + a0: not well formed.
* d = 2*a3: I = a0 + a1 + a2 - a3.  Type I with a3 makes the other two
  weights sum to 2*a3, so a2 = a3 and I = a0 + a1, direct.  Type II bounds
  2*a3 <= 3*a2: a3 = h + a_k when 3 is not in (i, j), with k the third index
  below 3, and otherwise the two weights outside (i, j), both at most a2,
  sum to 3*a3/2 (j = 3) or 2*a3 - h (i = 3).  By (iv), a2 divides a3,
  2*a3 - a2 or some 2*a3 - a_m (m < 2), which lie in [a2, 3*a2).  So:
  - a3 = a2, and I = a0 + a1, direct;
  - or a_m = 2*(a3 - a2) for some m < 2, and I = a_n + a_m/2 with
    {m, n} = {0, 1}, direct;
  - or 2*a3 = 3*a2, which leaves only a3 = h + a_k with a_j = a_k = a2, so
    a1 = a2 and I = a0 + a1/2, direct.

With Lemma B, ``is_valid`` equals ``is_solid``.  A solid quintuple is
accepted through (v) and (vi) above.  The only accepted quintuples that are
not well formed are the covered-edge family, which has no type: there
2I = v + 7, while every type gives 2I >= a_i + a_j for two weights, and any
two of its weights add up to at least 7 + 2v.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd

from .core import Quintuple

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TRIPLES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
# each pair (i, j) of PAIRS with the other two indices (k, l)
_PAIRS_KL = tuple((i, j, *(x for x in range(4) if x not in (i, j))) for i, j in PAIRS)

PairChecks = tuple[tuple[tuple[int, int], bool], ...]
TripleChecks = tuple[tuple[tuple[int, int, int], bool], ...]


class ConditionReport(namedtuple("ConditionReport", "quintuple accepted waived_pair", defaults=(None,))):
    """Verdict on one quintuple, with per-condition detail built on first read.

    ``accepted`` aggregates all conditions and is decided when the report is
    made; ``waived_pair`` is the covered-edge family's admitted pair, or
    None.  The per-pair and per-triple detail, which only ``dpweights check``
    prints, is built from the same per-pair helper when one of its fields is
    first read, and cached in the instance dict: this record alone has no
    ``__slots__``.
    """

    @cached_property
    def _pairs(self) -> tuple[tuple[tuple[int, int], tuple[bool, bool | None, bool]], ...]:
        *w, d = self.quintuple
        return tuple(((i, j), _pair_conditions(w, d, i, j, k, l, self.waived_pair)) for i, j, k, l in _PAIRS_KL)

    @cached_property
    def wf_pairs(self) -> PairChecks:
        """gcd(ai, aj) divides d."""
        return tuple((p, wf) for p, (wf, _, _) in self._pairs)

    @cached_property
    def wf_triples(self) -> TripleChecks:
        """gcd of any three weights is 1."""
        return tuple(zip(TRIPLES, _triple_conditions(self.quintuple.weights)))

    @cached_property
    def cond_iv(self) -> bool:
        return cond_iv(self.quintuple)

    @cached_property
    def cond_v(self) -> PairChecks:
        """Only pairs with gcd > 1."""
        return tuple((p, v) for p, (_, v, _) in self._pairs if v is not None)

    @cached_property
    def cond_vi(self) -> PairChecks:
        return tuple((p, vi) for p, (_, _, vi) in self._pairs)

    @property
    def well_formed(self) -> bool:
        return all(ok for _, ok in self.wf_pairs) and all(ok for _, ok in self.wf_triples)


def _well_formed_ints(a0: int, a1: int, a2: int, a3: int, d: int) -> bool:
    """Every weight triple coprime and every pairwise gcd dividing d.

    gcd(g, x*y) = 1 exactly when gcd(g, x) = gcd(g, y) = 1, so the two
    triples holding a0 and a1 are coprime iff gcd(g01, a2*a3) = 1, and the
    two holding a2 and a3 iff gcd(g23, a0*a1) = 1: eight gcds, not ten.
    """
    g01, g23 = gcd(a0, a1), gcd(a2, a3)
    return not (
        gcd(g01, a2 * a3) != 1 or gcd(g23, a0 * a1) != 1 or d % g01 or d % g23
        or d % gcd(a0, a2) or d % gcd(a0, a3) or d % gcd(a1, a2) or d % gcd(a1, a3)
    )


def _cond_iv_ints(a0: int, a1: int, a2: int, a3: int, d: int) -> bool:
    """Every weight divides d - aj for some weight aj."""
    # a1 and a2 fail most often among the classifier's window candidates
    for ai in (a1, a2, a0, a3):
        if (d - a0) % ai and (d - a1) % ai and (d - a2) % ai and (d - a3) % ai:
            return False
    return True


def well_formed(q: Quintuple) -> bool:
    """Pairwise gcds divide the degree and every weight triple is coprime."""
    return _well_formed_ints(*q)


def cond_iv(q: Quintuple) -> bool:
    """Every weight divides d - aj for some weight aj."""
    return _cond_iv_ints(*q)


def covered_edge_pair(q: Quintuple) -> tuple[int, int] | None:
    """The admissible contained-edge pair, or None.

    Recognises the shape (7, 2v, 3v, (9v-7)/2) of degree 9v with v = 3 mod 4
    and prime to 7, and returns the index pair of its two even weights, 2v and
    (9v-7)/2, whose pure-pair checks the module docstring waives.  When 7
    divides v their gcd is 14, not 2, and every weight triple has gcd 7.
    """
    *w, d = q
    if d % 9 or d % 2 == 0:
        return None
    v = d // 9
    if v % 4 != 3 or v % 7 == 0 or w != sorted((7, 2 * v, 3 * v, (9 * v - 7) // 2)):
        return None
    return (w.index(2 * v), w.index((9 * v - 7) // 2))


def _reaches(ai: int, aj: int, r: int) -> bool:
    """Some b in [0, r // aj] makes r - aj*b divisible by ai.

    The least b >= 0 solving aj*b = r (mod ai) has a closed form: with
    g = gcd(ai, aj) it exists iff g divides r, and it is
    (r/g) * inv(aj/g) mod (ai/g).  The test costs O(log r), not O(r).
    The two exits first spare the modular inverse on the common cases.
    """
    if r % ai == 0 or r % aj == 0:
        return True
    g = gcd(ai, aj)
    if r % g:
        return False
    m = ai // g
    return (r // g) * pow(aj // g, -1, m) % m <= r // aj


def _triple_conditions(w: tuple[int, int, int, int]) -> list[bool]:
    """Condition (ii) on each weight triple of ``TRIPLES``: its gcd is 1."""
    return [gcd(w[i], w[j], w[k]) == 1 for i, j, k in TRIPLES]


def _pair_conditions(
    w: list[int], d: int, i: int, j: int, k: int, l: int, waived: tuple[int, int] | None
) -> tuple[bool, bool | None, bool]:
    """Conditions (i), (v) and (vi) on the weight pair (i, j), with k and l the other two.

    (v) is None for a coprime pair, which it does not concern.  The entries
    record effective acceptance: the covered-edge family's even pair passes
    its pure-pair checks by waiver (see module docstring).
    """
    ai, aj = w[i], w[j]
    g = gcd(ai, aj)
    # one pure-pair test serves (v) and (vi); without a pure pair monomial,
    # (vi) needs both cross monomials covering edges k and l
    pure = _reaches(ai, aj, d)
    if pure:
        vi = True
    else:
        vi = _reaches(ai, aj, d - w[k]) and _reaches(ai, aj, d - w[l])
    waive = (i, j) == waived
    return waive or d % g == 0, ((pure or waive) if g > 1 else None), vi


def quasismooth_divisibility(q: Quintuple) -> ConditionReport:
    """Divisibility-form report; ``accepted`` aggregates all conditions.

    The verdict stops at the first failed condition; the per-pair detail is
    built only when read.
    """
    *w, d = q
    waived = covered_edge_pair(q)
    return ConditionReport(q, _accepted(w, d, waived), waived)


def _accepted(w: list[int], d: int, waived: tuple[int, int] | None) -> bool:
    """Every condition holds, decided in one pass over the pairs.

    Per pair (i, j) it tests (i), then asks for the pure monomial, and only
    without one fails a shared-factor pair (v) or asks for both cross
    monomials (vi); the waived pair skips (i) and (v).  Every monomial
    question goes through ``_reaches``, as in ``_pair_conditions``, which
    alone builds the detail that ``check`` prints; the tests pin this
    verdict to the conjunction of that detail.
    """
    a0, a1, a2, a3 = w
    # the four triples through two gcds, as in _well_formed_ints
    if gcd(a0, a1, a2 * a3) != 1 or gcd(a2, a3, a0 * a1) != 1 or not _cond_iv_ints(a0, a1, a2, a3, d):
        return False
    for i, j, k, l in _PAIRS_KL:
        ai, aj = w[i], w[j]
        g = gcd(ai, aj)
        if d % g and (i, j) != waived:
            return False
        if _reaches(ai, aj, d):
            continue
        if g > 1 and (i, j) != waived or not (_reaches(ai, aj, d - w[k]) and _reaches(ai, aj, d - w[l])):
            return False
    return True


# the monomial form's own search, shared with nothing on the divisibility path
def _pair_monomial(ai: int, aj: int, r: int, lo: int) -> bool:
    # bi*ai + bj*aj = r with bi + bj >= lo
    for bj in range(r // aj + 1):
        rest = r - aj * bj
        if rest % ai == 0 and rest // ai + bj >= lo:
            return True
    return False


def quasismooth_monomial(q: Quintuple) -> bool:
    """Independent check that a general member of |O(d)| is quasi-smooth.

    Searches for the required monomials by bounded Diophantine enumeration
    instead of divisibility shortcuts.  Shares no helper with the
    divisibility path above.
    """
    w, d = q.weights, q.d

    # covered-edge family, recognised by its parity signature: odd degree
    # 9v, exactly two even weights 2v and (9v-7)/2, odd weights 7 and 3v;
    # its even pair skips the two pure-pair checks below (module docstring)
    waived: tuple[int, int] | None = None
    if d % 2 and d % 9 == 0:
        v = d // 9
        evens = tuple(i for i in range(4) if w[i] % 2 == 0)
        if (
            len(evens) == 2
            and {w[evens[0]], w[evens[1]]} == {2 * v, (9 * v - 7) // 2}
            and {w[i] for i in range(4) if w[i] % 2} == {7, 3 * v}
        ):
            waived = evens

    # every triple of weights coprime
    for i, j, k in TRIPLES:
        if gcd(w[i], w[j], w[k]) != 1:
            return False
    # pairwise gcds divide the degree
    for i, j in PAIRS:
        if (i, j) != waived and d % gcd(w[i], w[j]):
            return False
    # for every i a monomial x_i^m x_j (m >= 1, j = i allowed via m+1 power)
    for ai in w:
        for aj in w:
            if d - aj >= ai and (d - aj) % ai == 0:
                break
        else:
            return False

    # shared-factor pairs need a pure pair monomial of joint degree >= 2
    for i, j in PAIRS:
        if (i, j) == waived:
            continue
        if gcd(w[i], w[j]) > 1 and not _pair_monomial(w[i], w[j], d, 2):
            return False

    # every pair needs either a pair monomial or both edge cross terms
    # x_i^ci x_j^cj x_k of degree d (ci + cj >= 1), for each other k
    for i, j in PAIRS:
        if _pair_monomial(w[i], w[j], d, 1):
            continue
        k, l = (x for x in range(4) if x not in (i, j))
        if not (_pair_monomial(w[i], w[j], d - w[k], 1) and _pair_monomial(w[i], w[j], d - w[l], 1)):
            return False
    return True


def detect_types(q: Quintuple) -> frozenset[str]:
    """Which of the three series-producing structure types the quintuple fits."""
    idx = q.index
    w = q.weights
    found = set()
    if any(w[i] + w[j] == idx for i, j in PAIRS):
        found.add("I")
    for i in range(4):
        for j in range(4):
            if i != j and w[j] % 2 == 0 and 2 * w[i] + w[j] == 2 * idx:
                found.add("II")
                break
    # (a0, a1, a, a+k) with a1 - a0 = 2k, a3 - a2 = k for some k >= 1
    k = idx - q.a0
    if k >= 1 and q.a1 == idx + k and q.a3 - q.a2 == k:
        found.add("III")
    return frozenset(found)


# The six series classes, one affine family each, in detection order.  A
# record holds, as functions of (a0, a1, a2, a3, I), the relation with I,
# with the guard that sets it apart from the classes before it (so at most
# one relation holds), and the weights whose lcm is the series modulus m;
# then the step shapes in units of m.
_CLASSES = (
    (lambda a0, a1, a2, a3, i: a0 + a1 == i,
     lambda a0, a1, a2, a3, i: (a0, a1),
     ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1))),
    (lambda a0, a1, a2, a3, i: a0 + a2 == i and a2 > a1,
     lambda a0, a1, a2, a3, i: (a0, a1, a2),
     ((0, 0, 0, 1, 1),)),
    (lambda a0, a1, a2, a3, i: a1 + a2 == i and a1 > a0,
     lambda a0, a1, a2, a3, i: (a0, a1, a2),
     ((0, 0, 0, 1, 1),)),
    (lambda a0, a1, a2, a3, i: 2 * a0 + a1 == 2 * i,
     lambda a0, a1, a2, a3, i: (a0, a1),
     ((0, 0, 1, 1, 2),)),
    (lambda a0, a1, a2, a3, i: a0 + 2 * a1 == 2 * i and a1 > a0,
     lambda a0, a1, a2, a3, i: (a0, a1),
     ((0, 0, 1, 1, 2),)),
    (lambda a0, a1, a2, a3, i: a0 < i and a0 + a1 == 2 * i and a3 - a2 == i - a0,
     lambda a0, a1, a2, a3, i: (a0, a1, i - a0),
     ((0, 0, 1, 1, 2),)),
)


def detect_class(q: Quintuple) -> int | None:
    """The series class (1..6) the quintuple belongs to, or None.

    That is the first record of ``_CLASSES`` whose relation holds.  By
    Lemma B (module docstring) the classes cover the typed quintuples that
    pass (iv) and are well formed.
    """
    a0, a1, a2, a3, d = q
    i = a0 + a1 + a2 + a3 - d
    for n, (relation, _, _) in enumerate(_CLASSES, 1):
        if relation(a0, a1, a2, a3, i):
            return n
    return None


def is_solid(q: Quintuple) -> bool:
    """Pure-power covered, well formed and in a series class (Lemma B)."""
    a0, a1, a2, a3, d = q
    return (
        _cond_iv_ints(a0, a1, a2, a3, d) and _well_formed_ints(a0, a1, a2, a3, d)
        and detect_class(q) is not None
    )


def is_valid(q: Quintuple) -> bool:
    """In a series class and accepted by the full divisibility-form suite."""
    return detect_class(q) is not None and quasismooth_divisibility(q).accepted

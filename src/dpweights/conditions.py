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
the test suite.

One parametric family needs special handling.  In (7, 2v, 3v, (9v-7)/2) of
degree 9v with v odd, the two even weights have gcd 2 while the degree is
odd, so no monomial in those two variables alone exists and their edge lies
inside every member of the linear system.  Both cross monomials covering the
edge exist, so the general member stays quasi-smooth along it, and the tables
include the family: the pure-pair requirements step aside for exactly this
edge; every other condition still applies.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .core import Quintuple

PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TRIPLES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

PairChecks = tuple[tuple[tuple[int, int], bool], ...]
TripleChecks = tuple[tuple[tuple[int, int, int], bool], ...]


@dataclass(frozen=True)
class ConditionReport:
    """Verdict on one quintuple, with per-condition detail built on first read.

    ``accepted`` aggregates all conditions and is decided when the report is
    made; the per-pair and per-triple detail, which only ``dpweights check``
    prints, is built from the same per-pair helper when one of its fields is
    first read.
    """

    quintuple: Quintuple
    accepted: bool
    waived_pair: tuple[int, int] | None = None  # covered-edge family admission

    @cached_property
    def _pairs(self) -> tuple[tuple[tuple[int, int], tuple[bool, bool | None, bool]], ...]:
        w, d = self.quintuple.weights, self.quintuple.d
        return tuple(((i, j), _pair_conditions(w, d, i, j, self.waived_pair)) for i, j in PAIRS)

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
    """Every weight triple coprime and every pairwise gcd dividing d."""
    return not (
        gcd(a0, a1, a2) != 1 or gcd(a0, a1, a3) != 1 or gcd(a0, a2, a3) != 1
        or gcd(a1, a2, a3) != 1 or d % gcd(a0, a1) or d % gcd(a0, a2) or d % gcd(a0, a3)
        or d % gcd(a1, a2) or d % gcd(a1, a3) or d % gcd(a2, a3)
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
    return _well_formed_ints(q.a0, q.a1, q.a2, q.a3, q.d)


def cond_iv(q: Quintuple) -> bool:
    """Every weight divides d - aj for some weight aj."""
    return _cond_iv_ints(q.a0, q.a1, q.a2, q.a3, q.d)


def covered_edge_pair(q: Quintuple) -> tuple[int, int] | None:
    """The admissible contained-edge pair, or None.

    Recognises the shape (7, 2v, 3v, (9v-7)/2) of degree 9v with v = 3 mod 4
    and returns the index pair of its two even weights, 2v and (9v-7)/2,
    whose pure-pair checks the module docstring waives.
    """
    w, d = q.weights, q.d
    if d % 9 or d % 2 == 0:
        return None
    v = d // 9
    if v % 4 != 3 or w != tuple(sorted((7, 2 * v, 3 * v, (9 * v - 7) // 2))):
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
    w: tuple[int, int, int, int], d: int, i: int, j: int, waived: tuple[int, int] | None
) -> tuple[bool, bool | None, bool]:
    """Conditions (i), (v) and (vi) on the weight pair (i, j).

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
        k, l = (x for x in range(4) if x not in (i, j))
        vi = _reaches(ai, aj, d - w[k]) and _reaches(ai, aj, d - w[l])
    waive = (i, j) == waived
    return waive or d % g == 0, ((pure or waive) if g > 1 else None), vi


def quasismooth_divisibility(q: Quintuple) -> ConditionReport:
    """Divisibility-form report; ``accepted`` aggregates all conditions.

    The verdict stops at the first failed condition; the per-pair detail is
    built only when read.
    """
    w, d = q.weights, q.d
    waived = covered_edge_pair(q)
    return ConditionReport(q, _accepted(w, d, waived), waived)


def _accepted(w: tuple[int, int, int, int], d: int, waived: tuple[int, int] | None) -> bool:
    """Every condition holds, decided from the same helpers as the detail."""
    if not (all(_triple_conditions(w)) and _cond_iv_ints(*w, d)):
        return False
    for i, j in PAIRS:
        wf, v, vi = _pair_conditions(w, d, i, j, waived)
        if not wf or v is False or not vi:
            return False
    return True


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
        if not any(d - aj >= ai and (d - aj) % ai == 0 for aj in w):
            return False

    def pair_monomial(ai: int, aj: int, r: int, lo: int) -> bool:
        # bi*ai + bj*aj = r with bi + bj >= lo
        for bj in range(r // aj + 1):
            rest = r - aj * bj
            if rest % ai == 0 and rest // ai + bj >= lo:
                return True
        return False

    # shared-factor pairs need a pure pair monomial of joint degree >= 2
    for i, j in PAIRS:
        if (i, j) == waived:
            continue
        if gcd(w[i], w[j]) > 1 and not pair_monomial(w[i], w[j], d, 2):
            return False

    # every pair needs either a pair monomial or both edge cross terms
    # x_i^ci x_j^cj x_k of degree d (ci + cj >= 1), for each other k
    for i, j in PAIRS:
        if pair_monomial(w[i], w[j], d, 1):
            continue
        k, l = (x for x in range(4) if x not in (i, j))
        if not (pair_monomial(w[i], w[j], d - w[k], 1) and pair_monomial(w[i], w[j], d - w[l], 1)):
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
    # (a0, a1, a, a+k) with a1 - a0 = 2k, a3 - a2 = k for some 1 <= k < index
    k = idx - q.a0
    if 1 <= k <= idx - 1 and q.a1 == idx + k and q.a3 - q.a2 == k:
        found.add("III")
    return frozenset(found)


def detect_class(q: Quintuple) -> int | None:
    """The series class (1..6) the quintuple belongs to, or None.

    The six classes partition the type-I..III quintuples by which weights
    realise the defining relation; the guards make them mutually exclusive.
    """
    idx = q.index
    a0, a1, a2, a3 = q.weights
    if a0 + a1 == idx:
        return 1
    if a0 + a2 == idx and idx > a0 + a1:
        return 2
    if a1 + a2 == idx and idx > a0 + a2:
        return 3
    if a1 % 2 == 0 and a0 + a1 // 2 == idx and idx > a0:
        return 4
    if a0 % 2 == 0 and a0 // 2 + a1 == idx and idx > a1 and 2 * idx > 2 * a0 + a1:
        return 5
    k = idx - a0
    if 1 <= k <= idx - 1 and a1 == idx + k and a3 - a2 == k and a2 >= a1:
        return 6
    return None


def is_solid(q: Quintuple) -> bool:
    """Well-formed, pure-power covered, and of some type."""
    return cond_iv(q) and well_formed(q) and bool(detect_types(q))


def is_valid(q: Quintuple) -> bool:
    """Accepted by the full divisibility-form suite and of some type."""
    return bool(detect_types(q)) and quasismooth_divisibility(q).accepted

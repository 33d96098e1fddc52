"""Per-index classification: enumerate series representatives and merge tables.

Every series class confines its representatives to one period window of the
modulus, so finitely many candidates cover all series of a given index; each
candidate is kept iff it is solid.  ``enumerate_class`` has one branch per
structure type: type I for classes 1-3, type II for classes 4-5 and type III
for class 6.

Classes 1-3 are the pair {p, q} with p + q = I and p <= q plus a third weight
s of a0..a2, with d = s + a3.  Where s falls sets the class: s < p is class 3,
p <= s < q class 2 and s >= q class 1, so s is a0, a1 and a2 respectively.
Class 1 has modulus lcm(p, q), which leaves s one period to walk; classes 2
and 3 have modulus lcm(p, q, s).

Condition (iv), that every weight a_i divides d - a_j for some j, narrows the
windows before any candidate is tested:

* In classes 1-3, a3 divides d - s and s divides d - a3, and any other
  weight a_i is covered iff it divides s or a3 = a_j - s (mod a_i) for some
  j in 0..2: at most three residues per weight.  The walk strides through
  the residue classes of the largest weight not dividing s and filters by
  the other; when every weight divides s, a3 is free and the stride is 1.
* In class 6, (a0, a1, a3) = (I - k, I + k, a2 + k) and d = a1 + 2*a2, so
  d - a_j is 2(a2 + k), 2*a2, a1 + a2 or I + a2.  a2 and a3 divide one of
  them, and w in (a0, a1) divides one iff a2 mod w is -k, h - k, 0, h, -a1
  or -I, with h = w / gcd(w, 2).
* Classes 4 and 5 are the pair {I - k, 2k} in its two orders, and their short
  windows are scanned with the integer forms of cond_iv and well-formedness.

Well-formedness then sieves the walked values with a few gcd tests, so most
of the candidates it would reject are never tried:

* In classes 1-3 write t, u for the two weights of a0..a2 other than s.  A
  pair gcd that holds a3 divides d, and d - a3 = s, so it divides s as well:
  gcd(t, a3) and gcd(u, a3) divide the triples (s, t, a3) and (s, u, a3).
  gcd(s, t) and gcd(s, u) divide d - s = a3 and the same triples.  Coprime
  triples force all four to 1, that is gcd(s, t*u) = 1, which skips the
  whole a3 walk, and gcd(a3, t*u) = 1.  These make every triple coprime, and
  leave gcd(s, a3), which divides d, and gcd(t, u).  That last one divides
  d by (iv): t divides d - a_j for some j, a_j = s or a3 would put a factor
  of gcd(t, u) into a3 or s, so a_j is t or u, and gcd(t, u) divides d.
* In class 6, with g = gcd(a0, a1): gcd(a2, a3) = gcd(a2, k) divides d
  exactly when it divides a1 and so a0 too, hence it divides the triple
  (a0, a2, a3) and is 1, which also makes the triples holding a2 and a3
  coprime.  gcd(a0, a2) must divide d - 2*a2 = a1, and gcd(a1, a3) must
  divide 2*a3 - d + a1 = 2k.  The other two triples hold a0 and a1 and need
  gcd(g, a2) = gcd(g, a3) = 1.  The pairs (a0, a3) and (a1, a2) divide
  d = a0 + 2*a3 = a1 + 2*a2 anyway, and g divides d by (iv): an odd prime or
  4 dividing g would divide none of the four d - a_j above, so g divides 2
  and with it a1 + 2*a2 = d.  So a k with g > 2 keeps no value, and
  ``_class6_window`` returns none for it without walking.

Every window keeps one contract: it yields, in ascending order, exactly the
values whose quintuple passes (iv) and is well formed.  Only those become a
Quintuple.  The fixed part of a window is its slot: (p, s) in classes 1-3
and k in classes 4-6.  The first value of a slot gets the checked build:
``is_solid`` adds the class, which on that ground is the same as a structure
type (Lemma B in ``conditions``), and ``make_series`` checks the class and
builds the series.  Every later value of the slot reuses that series' tag
and steps, since the slot fixes both the class and the modulus, and the
steps are the modulus times the class's step shapes:

* The class.  ``detect_class`` gives the first class whose relation holds
  (``conditions._CLASSES``).  The relations of classes 1-5 read a0, a1, a2
  and I, which a slot fixes, and class 6 reads a3 - a2 besides, which is k
  in classes 4-6.  So the class is fixed once one of classes 1-5 holds, or
  in classes 4-6 anyway, and the slot decides which:
  - Class 1 is (p, q, s) with s >= q, so a0 + a1 = I.
  - Class 2 is (p, s, q): a0 + a2 = I with a2 = q > s = a1, and it fails
    class 1 because s < q.
  - Class 3 is (s, p, q): a1 + a2 = I with a1 = p > s = a0, and it fails
    classes 1 and 2 because s < p.
  - In classes 4-6, a0 + a1 is I + k or 2I, above I, and a2 >= a1, so
    classes 1-3 fail.  Classes 4 and 5 hold the pair {I - k, 2k} in order,
    so 2*a0 + a1 = 2I with I - k <= 2k, else a0 + 2*a1 = 2I with
    a1 > a0: they split at k = I/3, and class 5 fails class 4 since
    2*a0 + a1 = I + 3k < 2I.  Class 6 is (I - k, I + k, a2, a2 + k), and it
    fails classes 4 and 5 because k < I: 2*a0 + a1 = 3I - k and
    a0 + 2*a1 = 3I + k.
* The modulus weights: (a0, a1) in classes 1, 4 and 5, (a0, a1, a2) in
  classes 2 and 3, and (a0, a1, I - a0) in class 6.

``Quintuple`` still validates every value, and everything emitted is
self-checked by the divisibility form's verdict, which builds no per-pair
detail; beyond the windows it re-verifies (v) and (vi), which follow from
(i), (ii) and (iv) (see ``conditions``).

The merge sorts the series and does not dedupe them:

* A window is one period of its series' steps, so no step can be subtracted
  from an emitted base, and ``detect_class`` gives each candidate one class,
  so no two class series share a base.  Table series exist only at indices 1,
  2, 4 and 6, and the tests cover those indices.
* Class steps keep the class's defining relation, so every member of a class
  series lies in its class, while no table quintuple has a type and so none
  lies in a class (every class relation is a type relation, Lemma B).  Table
  quintuples are therefore filtered against the table series only.
"""
from __future__ import annotations

from math import gcd, lcm

from .conditions import _CLASSES, _cond_iv_ints, _well_formed_ints, detect_class, is_solid, quasismooth_divisibility
from .core import Classification, Quintuple
from .series import Series, _rebased, canonical_key, contains, expand, make_series
from .tables import instantiate


def _walk(lo: int, hi: int, *constraints: tuple[int, tuple[int, ...]]) -> list[int]:
    """The x in [lo, hi) with x mod w in rs for every (w, rs), ascending.

    The first constraint's modulus is the stride (1 when there is none); the
    others filter what it walks.
    """
    stride, rs = constraints[0] if constraints else (1, (0,))
    xs = sorted(x for r in {r % stride for r in rs} for x in range(lo + (r - lo) % stride, hi, stride))
    for w, rs in constraints[1:]:
        ok = {r % w for r in rs}
        xs = [x for x in xs if x % w in ok]
    return xs


def _type1_a3(a0: int, a1: int, a2: int, s: int, m: int) -> list[int]:
    """The a3 in [a2, a2 + m) that can pass (iv) when d = s + a3, s in (a0, a1, a2)."""
    # ai | d - aj iff a3 = aj - s (mod ai); ai | s = d - a3 leaves a3 free
    shifts = (a0 - s, a1 - s, a2 - s)
    return _walk(a2, a2 + m, *((ai, shifts) for ai in (a2, a1, a0) if s % ai))


def _type1_window(a0: int, a1: int, a2: int, s: int, m: int) -> list[int]:
    """The a3 of ``_type1_a3`` whose quintuple (a0, a1, a2, a3, s + a3) is well formed."""
    tu = a0 * a1 * a2 // s  # the product of the other two weights
    if gcd(s, tu) != 1:
        return []
    return [a3 for a3 in _type1_a3(a0, a1, a2, s, m) if gcd(a3, tu) == 1]


def _class6_a2(index: int, k: int) -> list[int]:
    """The a2 of the class 6 window at (index, k) that can pass (iv), ascending."""
    a0, a1 = index - k, index + k
    # d - aj is 2(a2 + k), 2a2, a1 + a2 or index + a2: a2 divides 2a2 and a3
    # divides 2(a2 + k), so a0 and a1 decide; w | 2x iff x = 0 (mod h)

    def iv(w: int) -> tuple[int, tuple[int, ...]]:
        h = w // gcd(w, 2)
        return w, (-k, h - k, 0, h, -a1, -index)

    return _walk(a1, a1 + lcm(a0, a1, k), iv(a1), iv(a0))


def _class6_window(index: int, k: int) -> list[int]:
    """The a2 of ``_class6_a2`` whose class 6 quintuple is well formed."""
    a0, a1 = index - k, index + k
    g = gcd(a0, a1)
    if g > 2:  # (iv) and the sieve keep no a2 (module docstring)
        return []
    return [
        a2 for a2 in _class6_a2(index, k)
        if gcd(a2, k) == 1 and a1 % gcd(a0, a2) == 0 and 2 * k % gcd(a1, a2 + k) == 0
        and gcd(g, a2) == 1 and gcd(g, a2 + k) == 1
    ]


def _type2_window(a0: int, a1: int, k: int) -> list[int]:
    """The a2 of the class 4-5 window at (a0, a1, k) that pass (iv) and are well formed."""
    return [
        a2 for a2 in range(a1, a1 + lcm(a0, a1))
        if _cond_iv_ints(a0, a1, a2, a2 + k, 2 * (a2 + k))
        and _well_formed_ints(a0, a1, a2, a2 + k, 2 * (a2 + k))
    ]


def _reduce(q: tuple[int, int, int, int, int]) -> tuple[int, int, int, int, int] | None:
    """The quintuple moved by its class steps into its class window, or None.

    Let q lie in class c with index I, and let m be the lcm of the class's
    modulus weights in ``conditions._CLASSES``.  The class steps are m times
    its step shapes, and the windows ``enumerate_class`` walks are one period
    of them:

    * class 1: a2 in [a1, a1 + m), then a3 in [a2, a2 + m);
    * classes 2 and 3: a3 in [a2, a2 + m);
    * classes 4 to 6: a2 in [a1, a1 + m), with a3 - a2 fixed.

    ``_reduce`` moves each coordinate into its window in that order, a3 with
    a2 in classes 4 to 6, and returns a plain tuple.  A quintuple is a member
    of an emitted class series exactly when ``_reduce`` gives that series'
    base.  The proof uses only that each window is one period and that the
    steps are non-negative; it needs neither solidity nor Lemma A.

    * The steps keep what the reduction reads.  They move a2 and a3 only and
      keep I, since each degree entry is the sum of its weight entries.  So
      they keep m, whose weights are a0 and a1, a2 in classes 2 and 3 (which
      move a3 alone) and I - a0 in class 6.  Between ordered quintuples they
      keep the class too.  The relations of classes 1, 4 and 5 read a0, a1
      and I alone; class 6 reads a3 - a2 besides, which its steps keep.  The
      relations of classes 2 and 3 read a2: class 1, whose steps move it,
      comes before them in the detection order, their own steps leave it,
      and in classes 4 to 6 they hold at no ordered point, since there
      I < a0 + a1 (I is a0 + a1/2, a0/2 + a1 or (a0 + a1)/2) while they need
      I = a0 + a2 or a1 + a2, at least a0 + a1.
    * A member is reduced onto its base.  Let q be b plus x and y times the
      steps of the series through the emitted base b, with x, y >= 0.  Then
      q has b's class and modulus.  The a2 of q is b's plus x*m (class 1 and
      classes 4 to 6), and b's lies in the window, which holds one value of
      each residue mod m, so the reduction subtracts x*m; the same holds for
      a3 after it.  Hence ``_reduce(q) == b``.
    * A quintuple reduced onto a base is a member.  Each coordinate starts at
      or above the low end of its window (q is ordered, and a3 >= a2 holds
      after a2 moves), so the reduction subtracts non-negative multiples of
      the steps, keeping the class and m.  If the result is an emitted base
      b, whose series steps are m times the same shapes, q is b plus those
      multiples: a member.
    """
    c = detect_class(q)
    if c is None:
        return None
    a0, a1, a2, a3, d = q
    i = a0 + a1 + a2 + a3 - d
    m = lcm(*_CLASSES[c - 1][1](a0, a1, a2, a3, i))
    if c == 1 or c >= 4:
        t = (a2 - a1) // m * m
        a2 -= t
        if c >= 4:
            a3 -= t
    if c <= 3:
        a3 -= (a3 - a2) // m * m
    return (a0, a1, a2, a3, a0 + a1 + a2 + a3 - i)


def enumerate_class(class_number: int, index: int) -> list[Series]:
    """All series of one class at one index, built slot by slot.

    A slot is the fixed part of a window: (p, s) in classes 1-3 and k in
    classes 4-6.  Its first solid value gets the checked build, ``is_solid``
    and then ``make_series``; the later ones share its class and modulus
    (module docstring), so they reuse its tag and steps.
    """
    if index < 1:
        raise ValueError(f"index must be positive, got {index}")
    found: list[Series] = []

    def emit(slot: list[tuple[int, int, int, int, int]]) -> None:
        first = None
        for entries in slot:
            q = Quintuple(*entries)
            if first is not None:
                found.append(_rebased(first, q))
            elif is_solid(q):
                first = make_series(class_number, q)
                found.append(first)

    if class_number in (1, 2, 3):
        # where s falls among p <= q sets the class; class 1 walks s over one
        # period of its modulus lcm(p, q) (module docstring)
        for p in range(1, index // 2 + 1):
            q = index - p
            m = lcm(p, q)
            for s in {1: range(q, q + m), 2: range(p, q), 3: range(1, p)}[class_number]:
                a0, a1, a2 = sorted((p, q, s))
                window = _type1_window(a0, a1, a2, s, m if class_number == 1 else lcm(m, s))
                emit([(a0, a1, a2, a3, s + a3) for a3 in window])
    elif class_number in (4, 5):
        # the pair {index - k, 2k}: class 4 has index - k <= 2k, class 5 the rest
        split = (index + 2) // 3  # ceil(index / 3)
        for k in range(split, index) if class_number == 4 else range(1, split):
            a0, a1 = sorted((index - k, 2 * k))
            emit([(a0, a1, a2, a2 + k, 2 * (a2 + k)) for a2 in _type2_window(a0, a1, k)])
    elif class_number == 6:
        for k in range(1, index):
            a0, a1 = index - k, index + k
            emit([(a0, a1, a2, a2 + k, a1 + 2 * a2) for a2 in _class6_window(index, k)])
    else:
        raise ValueError(f"series class number must be 1..6, got {class_number}")
    return found


def classify_index(index: int) -> Classification:
    """Complete classification at one index: series plus sporadic quintuples."""
    two_param = sorted(enumerate_class(1, index), key=canonical_key)
    one_param = [s for cls in range(2, 7) for s in enumerate_class(cls, index)]
    table_series, table_sporadic = instantiate(index)
    one_param = sorted(one_param + table_series, key=canonical_key)
    sporadic = [q for q in table_sporadic if not any(contains(s, q) for s in table_series)]

    for q in [s.base for s in two_param + one_param] + sporadic:
        if not quasismooth_divisibility(q).accepted:
            raise RuntimeError(f"emission failed the condition suite: {q}")
    return Classification(index, tuple(two_param), tuple(one_param), tuple(sporadic))


def expand_classification(c: Classification, bound: int) -> list[Quintuple]:
    """Every concrete quintuple of the classification with a3 <= bound, sorted."""
    members: set[Quintuple] = {q for q in c.sporadic if q.a3 <= bound}
    for s in c.all_series:
        members.update(expand(s, bound))
    return sorted(members)

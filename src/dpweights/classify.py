"""Per-index classification: enumerate series representatives and merge tables.

Every series class confines its representatives to one period window of the
modulus, so finitely many candidates cover all series of a given index; each
candidate is kept iff it is solid.

Condition (iv), that every weight a_i divides d - a_j for some j, narrows the
windows before any candidate is tested:

* In classes 1-3 the degree is d = s + a3 with s = a2, a1, a0 respectively.
  Then a3 divides d - s and s divides d - a3, and any other weight a_i is
  covered iff it divides s or a3 = a_j - s (mod a_i) for some j in 0..2: at
  most three residues per weight.  The walk strides through the residue
  classes of the largest weight not dividing s and filters by the other; when
  every weight divides s, a3 is free and the stride is 1.
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
  and with it a1 + 2*a2 = d.

Every window keeps one contract: it yields, in ascending order, exactly the
values whose quintuple passes (iv) and is well formed.  Only those become a
Quintuple, ``is_solid`` adds the structure types, and ``make_series`` checks
each survivor's class and builds its series without re-checking the steps.

Everything emitted is self-checked by the divisibility form's verdict, which
builds no per-pair detail; beyond the windows it re-verifies (v) and (vi),
which follow from (i), (ii) and (iv) (see ``conditions``).

The merge sorts the series and does not dedupe them:

* A window is one period of its series' steps, so no step can be subtracted
  from an emitted base, and ``detect_class`` gives each candidate one class,
  so no two class series share a base.  Table series exist only at indices 1,
  2, 4 and 6, and the tests cover those indices.
* Class steps keep the class's defining relation, so every member of a class
  series has its class's type, while no table quintuple has a type.  Table
  quintuples are therefore filtered against the table series only.
"""
from __future__ import annotations

from math import gcd, lcm

from .conditions import _cond_iv_ints, _well_formed_ints, is_solid, quasismooth_divisibility
from .core import Classification, Quintuple, Series, ceil_div
from .series import canonical_key, contains, expand, make_series
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


def enumerate_class(class_number: int, index: int) -> list[Series]:
    """All series of one class at one index, via solid window representatives."""
    if index < 1:
        raise ValueError(f"index must be positive, got {index}")
    found: list[Series] = []

    def emit(a0: int, a1: int, a2: int, a3: int, d: int) -> None:
        q = Quintuple(a0, a1, a2, a3, d)
        if is_solid(q):
            found.append(make_series(class_number, q))

    if class_number == 1:
        for a0 in range(1, index // 2 + 1):
            a1 = index - a0
            m = lcm(a0, a1)
            for a2 in range(a1, a1 + m):
                for a3 in _type1_window(a0, a1, a2, a2, m):
                    emit(a0, a1, a2, a3, a2 + a3)
    elif class_number == 2:
        for a0 in range(1, index // 2 + 1):
            a2 = index - a0
            for a1 in range(a0, index - a0):
                for a3 in _type1_window(a0, a1, a2, a1, lcm(a0, a1, a2)):
                    emit(a0, a1, a2, a3, a1 + a3)
    elif class_number == 3:
        for a1 in range(2, index // 2 + 1):
            a2 = index - a1
            for a0 in range(1, a1):
                for a3 in _type1_window(a0, a1, a2, a0, lcm(a0, a1, a2)):
                    emit(a0, a1, a2, a3, a0 + a3)
    elif class_number in (4, 5):
        # the pair {index - k, 2k}: class 4 has index - k <= 2k, class 5 the rest
        split = ceil_div(index, 3)
        for k in range(split, index) if class_number == 4 else range(1, split):
            a0, a1 = sorted((index - k, 2 * k))
            for a2 in _type2_window(a0, a1, k):
                emit(a0, a1, a2, a2 + k, 2 * (a2 + k))
    elif class_number == 6:
        for k in range(1, index):
            a0, a1 = index - k, index + k
            for a2 in _class6_window(index, k):
                emit(a0, a1, a2, a2 + k, a1 + 2 * a2)
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

"""Condition suite: both forms, structure types, class guards and lemmas, edge waiver."""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpweights.classify import _reduce, enumerate_class
from dpweights.conditions import (
    PAIRS,
    TRIPLES,
    _CLASSES,
    _reaches,
    cond_iv,
    covered_edge_pair,
    detect_class,
    detect_types,
    is_solid,
    is_valid,
    quasismooth_divisibility,
    quasismooth_monomial,
    well_formed,
)
from dpweights.core import Quintuple
from dpweights.series import contains, make_series


def detail_verdict(r) -> bool:
    """The conjunction of a report's per-condition detail, built on read.

    The one-pass verdict ``accepted`` must equal it.
    """
    return r.well_formed and r.cond_iv and all(ok for _, ok in r.cond_v) and all(ok for _, ok in r.cond_vi)


def reaches_by_search(ai: int, aj: int, r: int) -> bool:
    """The definitional pair test: some b in [0, r // aj] with ai | r - aj*b."""
    return any((r - aj * b) % ai == 0 for b in range(r // aj + 1))


def well_formed_by_definition(q: Quintuple) -> bool:
    """Well-formedness as loops over the weight triples and pairs."""
    w = q.weights
    for i, j, k in TRIPLES:
        if gcd(w[i], w[j], w[k]) != 1:
            return False
    for i, j in PAIRS:
        if q.d % gcd(w[i], w[j]):
            return False
    return True


def cond_iv_by_definition(q: Quintuple) -> bool:
    """Condition (iv) as a loop: every weight divides d - aj for some aj."""
    w = q.weights
    return all(any((q.d - aj) % ai == 0 for aj in w) for ai in w)


def detect_class_by_branches(q: Quintuple) -> int | None:
    """The class as six guarded branches, the form detect_class had before
    its class table."""
    idx = q.index
    a0, a1, a2, a3 = q.weights
    if a0 + a1 == idx:
        return 1
    if a0 + a2 == idx and a2 > a1:
        return 2
    if a1 + a2 == idx and a1 > a0:
        return 3
    if a1 % 2 == 0 and a0 + a1 // 2 == idx:
        return 4
    if a0 % 2 == 0 and a0 // 2 + a1 == idx and a1 > a0:
        return 5
    k = idx - a0
    if k >= 1 and a1 == idx + k and a3 - a2 == k:
        return 6
    return None


def quintuples_up_to(bound: int, max_index: int):
    for w in combinations_with_replacement(range(1, bound + 1), 4):
        smallest = sum(w) - max_index
        for d in range(max(w[3] + 1, smallest), sum(w)):
            yield Quintuple(*w, d)


ACCEPTED = [
    (1, 1, 1, 1, 3),
    (1, 1, 2, 3, 6),
    (2, 3, 3, 5, 12),
    (2, 4, 5, 7, 14),
    (1, 2, 3, 5, 10),
    (6, 7, 9, 10, 27),     # covered-edge family, v = 3
    (13, 35, 81, 128, 256),
]

REJECTED = [
    (1, 1, 2, 2, 5),    # even pair, odd degree, no covering monomials
    (1, 2, 3, 4, 5),    # degree too small for pure powers
    (1, 1, 2, 4, 7),    # pair gcd 2 does not divide 7
    (2, 2, 3, 3, 9),
    (1, 6, 10, 15, 31),
]


class TestForms:
    @pytest.mark.parametrize("t", ACCEPTED)
    def test_accepted(self, t):
        q = Quintuple(*t)
        assert quasismooth_monomial(q)
        assert quasismooth_divisibility(q).accepted

    @pytest.mark.parametrize("t", REJECTED)
    def test_rejected(self, t):
        q = Quintuple(*t)
        assert not quasismooth_monomial(q)
        assert not quasismooth_divisibility(q).accepted

    def test_exhaustive_agreement_small(self):
        for q in quintuples_up_to(20, 8):
            r = quasismooth_divisibility(q)
            assert quasismooth_monomial(q) == r.accepted, q
            assert r.accepted == detail_verdict(r), q

    @given(
        st.lists(st.integers(1, 40), min_size=4, max_size=4),
        st.integers(1, 10),
    )
    @settings(max_examples=400)
    def test_forms_agree_random(self, ws, idx):
        w = sorted(ws)
        d = sum(w) - idx
        if d <= w[3]:
            return
        q = Quintuple(*w, d)
        assert quasismooth_monomial(q) == quasismooth_divisibility(q).accepted

    def test_v_and_vi_follow_from_i_ii_iv(self):
        # the proof in the module docstring, pair by pair: under (iv) a
        # coprime pair meets (vi), and a pair with gcd > 1 meets (v) once its
        # (i) holds and both triples holding it are coprime
        for q in quintuples_up_to(26, 14):
            if not cond_iv(q):
                continue
            r = quasismooth_divisibility(q)
            wf, triples, vi = dict(r.wf_pairs), dict(r.wf_triples), dict(r.cond_vi)
            for (i, j), v in r.cond_v:
                k, l = (x for x in range(4) if x not in (i, j))
                if wf[i, j] and triples[tuple(sorted((i, j, k)))] and triples[tuple(sorted((i, j, l)))]:
                    assert v, (q, i, j)
            for i, j in PAIRS:
                if gcd(q.weights[i], q.weights[j]) == 1:
                    assert vi[i, j], (q, i, j)

    def test_report_detail(self):
        r = quasismooth_divisibility(Quintuple(1, 1, 2, 2, 5))
        assert not r.accepted
        assert r.cond_iv
        failing = [p for p, ok in r.wf_pairs if not ok]
        assert failing == [(2, 3)]
        assert r.waived_pair is None


class TestCoveredEdge:
    def test_family_members(self):
        # v = 3 sorts differently from the larger members
        assert covered_edge_pair(Quintuple(6, 7, 9, 10, 27)) == (0, 3)
        assert covered_edge_pair(Quintuple(7, 22, 33, 46, 99)) == (1, 3)
        assert covered_edge_pair(Quintuple(7, 30, 45, 64, 135)) == (1, 3)

    @pytest.mark.parametrize(
        "t",
        [
            (7, 10, 15, 19, 45),   # v = 1 mod 4: no even pair, no waiver needed
            (1, 2, 3, 5, 10),      # degree not a multiple of 9
            (1, 4, 6, 8, 18),      # even degree
            (6, 7, 9, 11, 27),     # wrong weights
            (7, 14, 21, 28, 63),   # v = 7: the even pair has gcd 14, not 2
        ],
    )
    def test_non_members(self, t):
        assert covered_edge_pair(Quintuple(*t)) is None

    def test_waiver_reported(self):
        r = quasismooth_divisibility(Quintuple(6, 7, 9, 10, 27))
        assert r.accepted
        assert r.waived_pair == (0, 3)
        assert gcd(6, 10) == 2 and 27 % 2 == 1  # the literal checks would fail

    def test_family_has_no_type_or_class(self):
        # so the waiver never admits a typed quintuple, and is_valid, which
        # needs a class, rejects every member that only the waiver accepts
        accepted = 0
        for v in range(3, 404, 4):
            q = Quintuple(*sorted((7, 2 * v, 3 * v, (9 * v - 7) // 2)), 9 * v)
            assert (covered_edge_pair(q) is not None) == (v % 7 != 0) and not well_formed(q), v
            assert detect_types(q) == frozenset() and detect_class(q) is None, v
            # the waiver branch of the one-pass verdict: it must skip (i) and
            # (v) on the even pair, and agree with the monomial form and the detail
            r = quasismooth_divisibility(q)
            assert r.accepted == (v % 7 != 0) == quasismooth_monomial(q), v
            assert r.accepted == detail_verdict(r), v
            accepted += r.accepted
            assert not is_valid(q) and not is_solid(q), v
        assert accepted > 80  # every v prime to 7

    def test_raw_flags_not_waived(self):
        # the pair kernel reports the literal condition for the waived pair
        # (6, 10) at d = 27; both edge cross monomials exist
        assert not _reaches(6, 10, 27)
        assert _reaches(6, 10, 27 - 7) and _reaches(6, 10, 27 - 9)


class TestPieces:
    def test_reaches_matches_search(self):
        for ai in range(1, 41):
            for aj in range(1, 41):
                for r in range(1, 401):
                    assert _reaches(ai, aj, r) == reaches_by_search(ai, aj, r), (ai, aj, r)

    def test_int_predicates_match_definition(self):
        for q in quintuples_up_to(20, 8):
            assert well_formed(q) == well_formed_by_definition(q), q
            assert cond_iv(q) == cond_iv_by_definition(q), q

    def test_well_formed(self):
        assert well_formed(Quintuple(1, 2, 3, 5, 10))
        assert not well_formed(Quintuple(1, 2, 2, 4, 8))      # triple gcd 2
        assert not well_formed(Quintuple(1, 1, 2, 4, 7))      # gcd 2 on 7

    def test_cond_iv(self):
        assert cond_iv(Quintuple(1, 1, 1, 1, 3))
        assert cond_iv(Quintuple(2, 3, 3, 5, 12))
        assert cond_iv(Quintuple(7, 10, 15, 19, 45))
        assert not cond_iv(Quintuple(1, 2, 3, 7, 12))

    def test_types(self):
        assert detect_types(Quintuple(1, 1, 3, 3, 6)) == {"I"}
        assert detect_types(Quintuple(2, 4, 5, 7, 14)) == {"II"}
        assert detect_types(Quintuple(1, 2, 2, 3, 5)) == {"I", "II"}
        assert detect_types(Quintuple(2, 3, 3, 5, 12)) == frozenset()

    def test_classes(self):
        assert detect_class(Quintuple(1, 1, 3, 3, 6)) == 1
        assert detect_class(Quintuple(1, 1, 2, 3, 4)) == 2
        assert detect_class(Quintuple(2, 4, 5, 7, 14)) == 4
        assert detect_class(Quintuple(2, 3, 3, 5, 12)) is None

    def test_make_series_is_solid_and_in_class(self):
        # every class's relation is of some type, so make_series may drop
        # detect_types and still accept exactly the solid quintuples in class n
        for q in quintuples_up_to(20, 8):
            cls, solid = detect_class(q), is_solid(q)
            if cls is not None:
                assert detect_types(q), q
            for n in range(1, 7):
                try:
                    make_series(n, q)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (solid and cls == n), (q, n)

    def test_class_guards_exclusive(self):
        # at most one class relation holds on any quintuple, and the table
        # gives the class of the six guarded branches, at every degree and
        # so every index: check prints class= for any input
        classes = set()
        for w in combinations_with_replacement(range(1, 20), 4):
            for d in range(w[3] + 1, sum(w)):
                q = Quintuple(*w, d)
                held = [n for n, (relation, _, _) in enumerate(_CLASSES, 1) if relation(*w, q.index)]
                assert len(held) <= 1, (q, held)
                assert detect_class(q) == detect_class_by_branches(q) == (held[0] if held else None), q
                classes.add(held[0] if held else None)
        assert classes == {None, 1, 2, 3, 4, 5, 6}

    def test_solid_implies_valid_and_class(self):
        for q in quintuples_up_to(24, 8):
            solid = is_solid(q)
            assert is_valid(q) == solid, q
            if solid:
                assert detect_class(q) is not None, q

    def test_solid_by_class_matches_solid_by_type(self):
        # Lemma B (module docstring): on (iv) and well-formed ground a type
        # and a class come together, so is_solid may ask detect_class alone
        def solid_by_type(q: Quintuple) -> bool:
            return cond_iv(q) and well_formed(q) and bool(detect_types(q))

        # typed and classless, each failing one of the two conditions
        fails_iv, fails_wf = Quintuple(1, 1, 3, 4, 6), Quintuple(1, 3, 4, 4, 9)
        for q in (fails_iv, fails_wf):
            assert detect_types(q) == {"II"} and detect_class(q) is None, q
        assert well_formed(fails_iv) and not cond_iv(fails_iv)
        assert cond_iv(fails_wf) and not well_formed(fails_wf)
        solids = 0
        for q in [fails_iv, fails_wf, *quintuples_up_to(20, 16)]:
            assert is_solid(q) == solid_by_type(q), q
            solids += is_solid(q)
        assert solids > 1000

    def test_class_steps_keep_class_and_solidity(self):
        # step invariance (Lemma A), not yet proved for solidity: subtracting
        # a class step while the weights stay ordered keeps the class and
        # solidity, and reducing as far as the steps go lands on the base of
        # the emitted series holding q.  That step-by-step reduction is the
        # reference for classify._reduce on every quintuple of the sweep, and
        # _reduce is None exactly on the quintuples without a class
        def steps(n: int, q: Quintuple) -> list[tuple[int, ...]]:
            _, modulus_weights, shapes = _CLASSES[n - 1]
            m = lcm(*modulus_weights(*q.weights, q.index))
            return [tuple(m * x for x in shape) for shape in shapes]

        def minus(q: Quintuple, step: tuple[int, ...]) -> Quintuple | None:
            t = tuple(x - y for x, y in zip(q.astuple(), step))
            return Quintuple(*t) if 1 <= t[0] <= t[1] <= t[2] <= t[3] else None

        def reduce(n: int, q: Quintuple) -> Quintuple:
            shifted = True
            while shifted:
                shifted = False
                for step in steps(n, q):
                    below = minus(q, step)
                    if below is not None:
                        q, shifted = below, True
            return q

        bases = {}  # (class, index) -> {base: series}
        reduced = 0
        for q in quintuples_up_to(20, 8):
            n = detect_class(q)
            assert _reduce(q) == (None if n is None else reduce(n, q)), q
            if not is_solid(q):
                continue
            for step in steps(n, q):
                below = minus(q, step)
                if below is not None:
                    assert detect_class(below) == n and is_solid(below), (q, step)
                    reduced += 1
            if (n, q.index) not in bases:
                bases[n, q.index] = {s.base: s for s in enumerate_class(n, q.index)}
            series = bases[n, q.index].get(reduce(n, q))
            assert series is not None and contains(series, q), q
        assert reduced > 100

    def test_valid_examples(self):
        assert is_valid(Quintuple(2, 4, 5, 7, 14))
        assert not is_valid(Quintuple(1, 1, 2, 2, 5))
        # table-sourced quintuples carry no structure type
        assert not is_valid(Quintuple(6, 7, 9, 10, 27))

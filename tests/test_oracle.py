"""Brute-force oracle: ground truth enumeration and coverage diagnosis."""
from __future__ import annotations

import time
from math import gcd

import pytest

from dpweights.classify import classify_index, expand_classification
from dpweights.conditions import quasismooth_monomial
from dpweights.core import Quintuple
from dpweights.oracle import CoverageDiagnosis, brute_force, type_coverage

# member counts at bound 100, recorded with the brute force that ran the
# monomial form on every a3-divisor candidate
WIDE_BOUND = 100
WIDE_COUNTS = {
    9: 1056, 10: 2834, 11: 666, 12: 3121, 13: 607, 14: 2536, 15: 1005, 16: 1723,
    17: 494, 18: 2615, 19: 469, 20: 2096, 21: 785, 22: 1606, 23: 384, 24: 2190,
}


def brute_force_by_definition(index: int, bound: int) -> list[Quintuple]:
    """Every ordered a0 <= a1 <= a2 <= a3 <= bound with d > a3, kept when the
    monomial form accepts it; no pruning of any kind."""
    hits = []
    for a0 in range(1, bound + 1):
        for a1 in range(a0, bound + 1):
            for a2 in range(a1, bound + 1):
                for a3 in range(a2, bound + 1):
                    d = a0 + a1 + a2 + a3 - index
                    if d > a3:
                        q = Quintuple(a0, a1, a2, a3, d)
                        if quasismooth_monomial(q):
                            hits.append(q)
    return hits


class TestBruteForce:
    def test_index1_bound20(self):
        hits = brute_force(1, 20)
        assert len(hits) == 16
        got = {q.astuple() for q in hits}
        assert (1, 1, 1, 1, 3) in got
        assert (2, 3, 3, 5, 12) in got
        assert (1, 3, 5, 8, 16) in got
        assert (1, 1, 2, 2, 5) not in got

    def test_sorted_and_within_bound(self):
        hits = brute_force(2, 25)
        assert hits == sorted(hits)
        assert all(q.a3 <= 25 and q.index == 2 for q in hits)

    def test_covered_edge_member_found(self):
        got = {q.astuple() for q in brute_force(5, 10)}
        assert (6, 7, 9, 10, 27) in got

    def test_large_index_member(self):
        got = {q.astuple() for q in brute_force(7, 60)}
        assert (11, 13, 21, 38, 76) in got

    @pytest.mark.parametrize("index", range(1, 7))
    def test_matches_definition(self, index, monkeypatch):
        reference = brute_force_by_definition(index, 24)
        for bound in range(1, 25):
            assert brute_force(index, bound) == [q for q in reference if q.a3 <= bound], bound

        # the integer pre-filter hands the monomial form only candidates whose
        # weight triples are coprime and whose weights each divide some d - aj
        seen = []

        def recording(q):
            seen.append(q)
            return quasismooth_monomial(q)

        monkeypatch.setattr("dpweights.oracle.quasismooth_monomial", recording)
        brute_force(index, 24)
        assert seen
        for q in seen:
            w, d = q.weights, q.d
            assert all(gcd(*(w[i] for i in range(4) if i != k)) == 1 for k in range(4)), q
            assert all(any((d - aj) % ai == 0 for aj in w) for ai in w), q

    def test_agrees_with_classifier_small(self):
        for index in (1, 2, 3, 4):
            oracle = set(brute_force(index, 40))
            emitted = set(expand_classification(classify_index(index), 40))
            assert oracle == emitted, index

    def test_agrees_with_classifier_wide(self):
        t0 = time.monotonic()
        sizes = {}
        for index in range(9, 25):
            hits = brute_force(index, WIDE_BOUND)
            emitted = expand_classification(classify_index(index), WIDE_BOUND)
            assert set(hits) == set(emitted), index
            sizes[index] = len(hits)
        assert sizes == WIDE_COUNTS
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"oracle sweep I=9..24 at bound {WIDE_BOUND} took {elapsed:.2f}s"


class TestTypeCoverage:
    def test_every_hit_covered_for_small_indices(self):
        for index in range(1, 7):
            uncovered = [q for q, diag in type_coverage(index, 60) if not diag.covered]
            assert uncovered == [], index

    def test_diagnosis_fields(self):
        rows = dict(type_coverage(4, 20))
        diag = rows[Quintuple(2, 4, 5, 7, 14)]
        assert diag.types == {"II"}
        assert diag.series_class == 4
        assert diag.covered

    def test_covered_property(self):
        blank = CoverageDiagnosis(frozenset(), None, False)
        assert not blank.covered
        assert CoverageDiagnosis(frozenset({"I"}), None, False).covered
        assert CoverageDiagnosis(frozenset(), 2, False).covered
        assert CoverageDiagnosis(frozenset(), None, True).covered

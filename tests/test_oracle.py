"""Brute-force oracle: ground truth enumeration and coverage diagnosis."""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from math import gcd

import pytest

from dpweights.classify import classify_index, expand_classification
from dpweights.conditions import detect_class, detect_types, quasismooth_monomial
from dpweights.core import Quintuple
from dpweights.oracle import _a2_a3, brute_force
from dpweights.series import contains
from dpweights.tables import instantiate

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


def a2_a3_by_scan(index: int, bound: int, a0: int, a1: int) -> list[tuple[int, int]]:
    """``oracle._a2_a3`` as it was while it scanned every a2 of each offset
    and of a2 <= c, kept as the reference its divisor candidates must equal."""
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
        found.update(
            (a2, a2 + delta)
            for a2 in range(a1, bound - delta + 1)
            if not (c % a2 and k1 % a2 and k2 % a2 and k3 % a2)
        )
    for a2 in range(a1, min(c, bound) + 1):
        s = a2 + c
        for a3 in (c, s // 2) if s % 2 == 0 else (c,):
            if a3 <= bound and not (c % a2 and (c + a3 - a0) % a2 and (c + a3 - a1) % a2 and (c + a3) % a2):
                found.add((a2, a3))
    return sorted(found)


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
    would mark a gap in the classification data.  It lives here, not in the
    oracle, so that the oracle module imports neither tables nor series.
    """
    table_series, table_sporadic = instantiate(index)
    sporadic_set = set(table_sporadic)
    out = []
    for q in brute_force(index, bound):
        covered = q in sporadic_set or any(contains(s, q) for s in table_series)
        out.append((q, CoverageDiagnosis(detect_types(q), detect_class(q), covered)))
    return out


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

    def test_output_digest(self):
        # the reprs of every hit at I = 1..12, bound 70: members, their order
        # and the Quintuple repr stay as recorded
        out = "".join(repr(brute_force(index, 70)) for index in range(1, 13))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6e7d513e65ff0b4dbdd19c0693fac8204b70a1b6373527258546655a79aa99df"
        )

    def test_agrees_with_classifier_small(self):
        for index in (1, 2, 3, 4):
            oracle = set(brute_force(index, 40))
            emitted = set(expand_classification(classify_index(index), 40))
            assert oracle == emitted, index

    def test_agrees_with_classifier_wide(self, brute_forced):
        t0 = time.monotonic()
        sizes = {}
        for index in range(9, 25):
            hits = brute_forced(index, WIDE_BOUND)
            emitted = expand_classification(classify_index(index), WIDE_BOUND)
            assert set(hits) == set(emitted), index
            sizes[index] = len(hits)
        assert sizes == WIDE_COUNTS
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"oracle sweep I=9..24 at bound {WIDE_BOUND} took {elapsed:.2f}s"

    def test_wide_output_digest(self, brute_forced):
        # the reprs of every hit at I = 1..24, bound 100, then at I = 1..12,
        # bound 150; defined after the wide sweep, whose I = 9..24 runs it reuses
        out = "".join(repr(brute_forced(index, WIDE_BOUND)) for index in range(1, 25))
        out += "".join(repr(brute_forced(index, 150)) for index in range(1, 13))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "109e37299867f55e1672b1a7e46f879a15b5763694b9a01bbf97761ab9b4f78a"
        )

    def test_agrees_with_classifier_to_sporadic_reach(self):
        # the largest sporadic a3 is 15I - 8 (table row III.2(4)), so at that
        # bound every sporadic quintuple meets the oracle; I = 16..22 lie in
        # the band the classify benchmark times; about 7 s on a 2-vCPU machine
        t0 = time.monotonic()
        for index in range(8, 25):
            bound = 15 * index - 8
            c = classify_index(index)
            assert max(q.a3 for q in c.sporadic) == bound, index
            assert brute_force(index, bound) == expand_classification(c, bound), index
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"oracle sweep I=8..24 at bound 15I-8 took {elapsed:.2f}s"


class TestCandidateWalk:
    @pytest.mark.parametrize("index", range(1, 11))
    def test_a2_a3_is_exactly_the_monomial_pairs(self, index):
        # scan every (a2, a3) of every pair at the top bound; a lower bound
        # must give the same pairs cut at a3 <= bound
        top = 30
        for a0 in range(1, top + 1):
            for a1 in range(a0, top + 1):
                expected = []
                for a2 in range(a1, top + 1):
                    for a3 in range(a2, top + 1):
                        d = a0 + a1 + a2 + a3 - index
                        w = (a0, a1, a2, a3)
                        if d > a3 and all(any((d - aj) % ai == 0 for aj in w) for ai in (a2, a3)):
                            expected.append((a2, a3))
                for bound in range(a1, top + 1):
                    got = _a2_a3(index, bound, a0, a1)
                    assert got == [p for p in expected if p[1] <= bound], (a0, a1, bound)

    @pytest.mark.parametrize(
        "index, bound", [(index, 120) for index in range(1, 13)] + [(16, 232), (24, 352)]
    )
    def test_a2_a3_equals_the_scan(self, index, bound):
        # the divisor candidates give what scanning every a2 gave, on every
        # pair up to bound 120 at I = 1..12 and up to the sporadic reach
        # 15I - 8 at I = 16 and 24
        for a0 in range(1, bound + 1):
            for a1 in range(a0, bound + 1):
                got = _a2_a3(index, bound, a0, a1)
                assert got == a2_a3_by_scan(index, bound, a0, a1), (index, a0, a1)


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

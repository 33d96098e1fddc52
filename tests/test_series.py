"""Series construction, expansion, membership and dedupe identity."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpweights.classify import classify_index, expand_classification
from dpweights.conditions import quasismooth_divisibility
from dpweights.core import Quintuple, Series, SeriesClass
from dpweights.series import canonical_key, contains, defining_weights, expand, make_series


def contains_by_search(series, q) -> bool:
    """Membership by a loop over the first step's parameter."""
    base = series.base.astuple()
    diff = tuple(t - b for t, b in zip(q.astuple(), base))
    if any(x < 0 for x in diff):
        return False

    def solve_single(rem, step) -> bool:
        pivot = next(i for i in range(5) if step[i] > 0)
        if rem[pivot] % step[pivot]:
            return False
        y = rem[pivot] // step[pivot]
        return all(rem[i] == y * step[i] for i in range(5))

    s1 = series.steps[0]
    if len(series.steps) == 1:
        return solve_single(diff, s1)
    pivot = next(i for i in range(5) if s1[i] > 0)
    for x in range(diff[pivot] // s1[pivot] + 1):
        rem = tuple(diff[i] - x * s1[i] for i in range(5))
        if any(v < 0 for v in rem):
            break
        if solve_single(rem, series.steps[1]):
            return True
    return False


class TestMakeSeries:
    def test_class1_two_steps(self):
        s = make_series(1, Quintuple(1, 1, 3, 3, 6))
        assert s.origin is SeriesClass.CLASS1
        assert s.modulus == 1
        assert s.steps == ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1))
        assert s.member(2, 4).astuple() == (1, 1, 5, 7, 12)

    def test_class2_modulus_is_lcm_of_three(self):
        s = make_series(2, Quintuple(1, 1, 2, 3, 4))
        assert defining_weights(2, s.base) == (1, 1, 2)
        assert s.modulus == 2
        assert [q.astuple() for q in expand(s, 9)] == [
            (1, 1, 2, 3, 4), (1, 1, 2, 5, 6), (1, 1, 2, 7, 8), (1, 1, 2, 9, 10),
        ]

    def test_class4_modulus_spans_alternate_members(self):
        # the even and odd halves of the same arithmetic pattern are two series
        even = make_series(4, Quintuple(2, 4, 5, 7, 14))
        odd = make_series(4, Quintuple(2, 4, 7, 9, 18))
        assert even.modulus == odd.modulus == 4
        union = {q.astuple() for q in expand(even, 60)} | {q.astuple() for q in expand(odd, 60)}
        pattern = {(2, 4, 5 + 2 * x, 7 + 2 * x, 14 + 4 * x) for x in range(27)}
        assert union == {t for t in pattern if t[3] <= 60}

    def test_rejects_bad_representatives(self):
        with pytest.raises(ValueError):
            make_series(1, Quintuple(1, 1, 2, 2, 5))     # not solid
        with pytest.raises(ValueError):
            make_series(3, Quintuple(1, 1, 3, 3, 6))     # class mismatch

    def test_class6_defining_weights(self):
        # shape (I-k, I+k, a, a+k) with k = index - a0
        rep = Quintuple(1, 3, 3, 4, 9)
        assert rep.index == 2
        assert defining_weights(6, rep) == (1, 3, 1)


class TestExpandContains:
    def test_expansion_members_all_contained(self):
        for index in (2, 3, 4):
            for s in classify_index(index).all_series:
                for q in expand(s, 80):
                    assert contains(s, q), (s.base, q)

    def test_expansion_respects_bound_and_order(self):
        for s in classify_index(5).all_series:
            for q in expand(s, 70):
                assert q.a3 <= 70
                assert q.index == 5

    def test_contains_matches_search(self):
        outcomes = set()
        for index in range(1, 9):
            c = classify_index(index)
            members = expand_classification(c, 60)
            for s in c.all_series:
                for q in members:
                    got = contains(s, q)
                    assert got == contains_by_search(s, q), (s, q)
                    outcomes.add((len(s.steps), got))
        assert outcomes == {(1, True), (1, False), (2, True), (2, False)}

    @pytest.mark.parametrize("steps", [
        ((0, 0, 1, 1, 2), (0, 0, 0, 1, 1)),
        ((0, 0, 0, 1, 1), (0, 0, 1, 1, 2)),
        ((0, 0, 2, 0, 2), (0, 0, 1, 3, 4)),
    ])
    def test_contains_needs_both_parameters_non_negative(self, steps):
        # such table-origin steps reach ordered quintuples at a negative
        # parameter, e.g. (1,2,4,5,9) = base + 1*s1 - 1*s2 for the first pair
        s = Series(SeriesClass.TABLE_SERIES, Quintuple(1, 2, 3, 5, 8), steps)
        for a2 in range(3, 16):
            for a3 in range(max(a2, 5), 16):
                q = Quintuple(1, 2, a2, a3, a2 + a3)
                assert contains(s, q) == contains_by_search(s, q), q

    def test_non_members_rejected(self):
        s = make_series(2, Quintuple(1, 1, 2, 3, 4))
        assert contains(s, Quintuple(1, 1, 2, 11, 12))
        assert not contains(s, Quintuple(1, 1, 2, 4, 5))
        assert not contains(s, Quintuple(1, 1, 3, 3, 5))
        assert not contains(s, Quintuple(1, 2, 2, 3, 5))

    def test_two_param_contains(self):
        s = make_series(1, Quintuple(1, 1, 3, 3, 6))
        assert contains(s, Quintuple(1, 1, 3, 9, 12))
        assert contains(s, Quintuple(1, 1, 7, 7, 14))
        assert not contains(s, Quintuple(1, 2, 3, 4, 8))

    @given(st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=80)
    def test_member_always_contained(self, x, y):
        s = make_series(1, Quintuple(1, 2, 3, 3, 6))
        lo, hi = sorted((x, y))
        assert contains(s, s.member(lo, hi))

    def test_expansion_passes_condition_suite(self):
        for index in (2, 5):
            for s in classify_index(index).all_series:
                for q in expand(s, 60):
                    assert quasismooth_divisibility(q).accepted, q


class TestCanonicalKey:
    def test_shifted_representatives_collapse(self):
        a = make_series(2, Quintuple(1, 1, 2, 3, 4))
        b = make_series(2, Quintuple(1, 1, 2, 9, 10))
        assert canonical_key(a) == canonical_key(b)
        assert {q for q in expand(b, 40)} <= {q for q in expand(a, 40)}

    def test_distinct_series_distinct_keys(self):
        a = make_series(2, Quintuple(1, 1, 2, 3, 4))
        c = make_series(4, Quintuple(2, 4, 5, 7, 14))
        assert canonical_key(a) != canonical_key(c)

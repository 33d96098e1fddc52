"""Series construction, expansion, membership and dedupe identity."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpweights.classify import classify_index
from dpweights.conditions import quasismooth_divisibility
from dpweights.core import Quintuple, SeriesClass
from dpweights.series import canonical_key, contains, defining_weights, expand, make_series


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

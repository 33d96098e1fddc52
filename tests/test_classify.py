"""Classifier output: emission shape, set equality with the golden tables."""
from __future__ import annotations

import hashlib
import json
from itertools import combinations_with_replacement
from math import gcd, lcm
from pathlib import Path

import pytest
from golden_tables import expand_golden
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpweights.classify import (
    _class6_a2,
    _class6_window,
    _reduce,
    _type1_a3,
    _type1_window,
    _type2_window,
    classify_index,
    enumerate_class,
    expand_classification,
)
from dpweights.cli import main
from dpweights.conditions import (
    _cond_iv_ints,
    _well_formed_ints,
    detect_class,
    is_solid,
    quasismooth_divisibility,
)
from dpweights.core import Quintuple
from dpweights.series import Series, _class_steps, canonical_key, contains, expand, make_series
from dpweights.tables import instantiate

# sha256 of `classify --index I --format json` for I = 1..30, recorded before
# the window loops gained their integer pre-filter
GOLDEN_SHA256 = json.loads((Path(__file__).parent / "golden_classify_sha256.json").read_text())

# emission shape is a presentation choice; the generated sets are the contract
EMISSION_COUNTS = {
    1: (0, 1, 22),
    2: (1, 11, 33),
    3: (1, 3, 13),
    4: (4, 24, 19),
    5: (5, 14, 10),
    6: (13, 52, 13),
}


# every class series emitted at I <= 12, with its class number
SMALL_SERIES = [(n, s) for index in range(1, 13) for n in range(1, 7) for s in enumerate_class(n, index)]

# indices within and past the golden digests' range, as the residue walk checks
WIDE_INDICES = [*range(1, 25), 30, 40]


def canonical_key_by_walk(series: Series) -> tuple:
    """The base walked down by the steps while the result stays an ordered,
    well-defined quintuple, plus the sorted steps: a key that identifies the
    member set whatever base the series was built on."""
    vals = series.base.astuple()
    moved = True
    while moved:
        moved = False
        for step in series.steps:
            cand = tuple(v - s for v, s in zip(vals, step))
            w, d = cand[:4], cand[4]
            if all(x >= 1 for x in w) and w[0] <= w[1] <= w[2] <= w[3] < d:
                vals = cand
                moved = True
                break
    return (vals, tuple(sorted(series.steps)))


class TestClassifyIndex:
    @pytest.mark.parametrize("index", sorted(EMISSION_COUNTS))
    def test_emission_counts(self, index):
        c = classify_index(index)
        assert (len(c.two_param), len(c.one_param), len(c.sporadic)) == EMISSION_COUNTS[index]

    @pytest.mark.parametrize("index", [2, 3, 4, 5, 6])
    def test_matches_golden_tables(self, index):
        got = {q.astuple() for q in expand_classification(classify_index(index), 100)}
        assert got == expand_golden(index, 100)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            classify_index(0)

    def test_deterministic(self):
        assert classify_index(4) == classify_index(4)

    def test_series_have_two_or_one_steps(self):
        c = classify_index(6)
        assert all(len(s.steps) == 2 for s in c.two_param)
        assert all(len(s.steps) == 1 for s in c.one_param)

    @pytest.mark.parametrize("index", WIDE_INDICES)
    def test_emitted_bases_minimal_and_distinct(self, classified, index):
        # the merge sorts without deduping: no emitted base walks down, and
        # no two series generate the same members
        keys = [canonical_key(s) for s in classified(index).all_series]
        assert [canonical_key_by_walk(s) for s in classified(index).all_series] == keys
        assert len(keys) == len(set(keys))
        # class series are built without Series.__new__; the checked build agrees
        for s in classified(index).all_series:
            if s.origin != "tableSeries":
                assert Series(s.origin, s.base, s.steps) == s
                assert s.origin == f"class{detect_class(s.base)}"

    def test_self_check_rejects_invalid_emission(self, monkeypatch):
        # (1,1,2,2,5) is not quasi-smooth: gcd(2, 2) does not divide 5
        monkeypatch.setattr("dpweights.classify.instantiate", lambda index: ([], [Quintuple(1, 1, 2, 2, 5)]))
        with pytest.raises(RuntimeError, match="condition suite"):
            classify_index(1)

    def test_sporadics_not_series_members(self):
        for index in range(1, 7):
            c = classify_index(index)
            for q in c.sporadic:
                assert not any(contains(s, q) for s in c.all_series), q

    def test_emitted_members_pass_condition_suite(self):
        c = classify_index(7)
        for q in expand_classification(c, 70):
            assert quasismooth_divisibility(q).accepted, q


# the largest window period a drawn slot may have; class 6 walks its window
# in strides of a1 = I + k, so it bounds the number of strides instead
SLOT_PERIOD = 50_000
CLASS6_STRIDES = 5_000


@st.composite
def slots(draw) -> tuple[int, int, tuple[int, ...]]:
    """A class number c, an index I <= 3000 and one window slot of c at I:
    (p, s) in classes 1-3 and (k,) in classes 4-6.

    Only slots whose window can be non-empty are drawn.  In classes 1-3, s
    is prime to p*q, and in classes 4-6 gcd(a0, a1) <= 2: it divides
    d = 2*a3 in classes 4 and 5, where (a0, a1, a3) is coprime, and class 6
    keeps no value above 2 (``classify`` module docstring).
    """
    c = draw(st.integers(1, 6))
    index = draw(st.integers(4, 3000))
    if c <= 3:
        # class 2 has s >= p prime to lcm(p, q), so its period is at least
        # lcm(p, q) * p; p = 1 (p = 2 in class 3) always qualifies
        ps = [
            p for p in range(2 if c == 3 else 1, (index + 1) // 2 if c == 2 else index // 2 + 1)
            if lcm(p, index - p) * (p if c == 2 else 1) <= SLOT_PERIOD
        ]
        p = draw(st.sampled_from(ps))
        q = index - p
        m = lcm(p, q)
        ss = [
            s for s in {1: range(q, q + m), 2: range(p, q), 3: range(1, p)}[c]
            if gcd(s, p * q) == 1 and (c == 1 or lcm(m, s) <= SLOT_PERIOD)
        ]
        assume(ss)
        return c, index, (p, draw(st.sampled_from(ss)))
    split = (index + 2) // 3
    if c == 6:
        ks = [
            k for k in range(1, index)
            if gcd(index - k, index + k) <= 2 and lcm(index - k, index + k, k) <= CLASS6_STRIDES * (index + k)
        ]
    else:
        ks = [
            k for k in (range(split, index) if c == 4 else range(1, split))
            if gcd(index - k, 2 * k) <= 2 and lcm(index - k, 2 * k) <= SLOT_PERIOD
        ]
    return c, index, (draw(st.sampled_from(ks)),)


def slot_values(c: int, index: int, slot: tuple[int, ...]) -> list[tuple[int, int, int, int, int]]:
    """The values ``enumerate_class`` reads from one window slot, in order."""
    if c <= 3:
        p, s = slot
        m = lcm(p, index - p)
        a0, a1, a2 = sorted((p, index - p, s))
        return [(a0, a1, a2, a3, s + a3) for a3 in _type1_window(a0, a1, a2, s, m if c == 1 else lcm(m, s))]
    (k,) = slot
    if c == 6:
        return [(index - k, index + k, a2, a2 + k, index + k + 2 * a2) for a2 in _class6_window(index, k)]
    a0, a1 = sorted((index - k, 2 * k))
    return [(a0, a1, a2, a2 + k, 2 * (a2 + k)) for a2 in _type2_window(a0, a1, k)]


class TestEnumerateClass:
    def test_class1_at_index2(self):
        series = enumerate_class(1, 2)
        q = Quintuple(1, 1, 4, 9, 13)
        assert any(contains(s, q) for s in series)
        assert all(s.origin == "class1" for s in series)

    def test_class_bases_live_in_class(self):
        for n in range(1, 7):
            for s in enumerate_class(n, 6):
                assert detect_class(s.base) == n, (n, s.base)

    def test_empty_when_index_too_small(self):
        # no pair of positive weights can sum to 1
        assert enumerate_class(1, 1) == []

    def test_class6_keeps_nothing_where_pair_gcd_exceeds_two(self):
        # _class6_window returns [] for these k without walking; the full
        # checks over the walk it skips must keep nothing either
        for index in range(2, 41):
            for k in range(1, index):
                a0, a1 = index - k, index + k
                if gcd(a0, a1) > 2:
                    assert _class6_window(index, k) == [], (index, k)
                    for a2 in _class6_a2(index, k):
                        w = (a0, a1, a2, a2 + k, a1 + 2 * a2)
                        assert not (_cond_iv_ints(*w) and _well_formed_ints(*w)), w

    @given(st.sampled_from(SMALL_SERIES), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_far_members_stay_in_class_and_solid(self, drawn, x, y):
        # members far past any enumerated range keep the class and solidity,
        # pass the verdict the self-check applies to the bases, and reduce
        # onto their series' base
        n, s = drawn
        vals = list(s.base.astuple())
        for p, step in zip((x, y), s.steps):
            vals = [v + p * t for v, t in zip(vals, step)]
        assume(vals[0] <= vals[1] <= vals[2] <= vals[3])  # class 1 can cross a2 over a3
        q = Quintuple(*vals)
        assert detect_class(q) == n and is_solid(q), (s, q)
        assert quasismooth_divisibility(q).accepted, (s, q)
        assert _reduce(q) == s.base, (s, q)

    @given(slots())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_slot_values_share_class_and_steps(self, drawn):
        # enumerate_class checks only a slot's first value and gives the rest
        # its steps: every value of the slot has its class and its steps
        c, index, slot = drawn
        values = [Quintuple(*v) for v in slot_values(c, index, slot)]
        for q in values:
            assert q.index == index and detect_class(q) == c, (c, slot, q)
            assert _class_steps(c, q) == _class_steps(c, values[0]), (c, slot, q)


class TestExpandClassification:
    def test_sorted_unique_and_bounded(self):
        members = expand_classification(classify_index(5), 90)
        assert members == sorted(set(members))
        assert all(q.a3 <= 90 and q.index == 5 for q in members)


def reference_enumeration(class_number: int, index: int) -> list[Series]:
    """The definitional enumeration: every window candidate built and tested by is_solid."""
    found: list[Series] = []

    def emit(*entries: int) -> None:
        q = Quintuple(*entries)
        if is_solid(q):
            found.append(make_series(class_number, q))

    if class_number == 1:
        for a0 in range(1, index // 2 + 1):
            a1 = index - a0
            m = lcm(a0, a1)
            for a2 in range(a1, a1 + m):
                for a3 in range(a2, a2 + m):
                    emit(a0, a1, a2, a3, a2 + a3)
    elif class_number == 2:
        for a0 in range(1, index // 2 + 1):
            a2 = index - a0
            for a1 in range(a0, index - a0):
                m = lcm(a0, a1, a2)
                for a3 in range(a2, a2 + m):
                    emit(a0, a1, a2, a3, a1 + a3)
    elif class_number == 3:
        for a1 in range(2, index // 2 + 1):
            a2 = index - a1
            for a0 in range(1, a1):
                m = lcm(a0, a1, a2)
                for a3 in range(a2, a2 + m):
                    emit(a0, a1, a2, a3, a0 + a3)
    elif class_number == 4:
        for k in range(max((index + 2) // 3, 1), index):
            a0, a1 = index - k, 2 * k
            for a2 in range(a1, a1 + lcm(a0, a1)):
                emit(a0, a1, a2, a2 + k, 2 * (a2 + k))
    elif class_number == 5:
        for k in range(1, (index + 2) // 3):
            a0, a1 = 2 * k, index - k
            for a2 in range(a1, a1 + lcm(a0, a1)):
                emit(a0, a1, a2, a2 + k, 2 * (a2 + k))
    else:
        for k in range(1, index):
            a0, a1 = index - k, index + k
            for a2 in range(a1, a1 + lcm(a0, a1, k)):
                emit(a0, a1, a2, a2 + k, a1 + 2 * a2)
    return found


def window_candidate(a0: int, a1: int, a2: int, a3: int, d: int) -> Quintuple | None:
    """The window value as a Quintuple if it passes the integer forms of (iv)
    and well-formedness and is then solid, else None."""
    if not (_cond_iv_ints(a0, a1, a2, a3, d) and _well_formed_ints(a0, a1, a2, a3, d)):
        return None
    q = Quintuple(a0, a1, a2, a3, d)
    return q if is_solid(q) else None


def window_enumeration(class_number: int, index: int) -> list[Series]:
    """Every a3 (a2 in class 6) of each period window through the pre-filtered
    candidate test, in window order: the scan the residue walk replaces."""
    found: list[Series] = []

    def emit(q: Quintuple | None) -> None:
        if q is not None:
            found.append(make_series(class_number, q))

    if class_number == 1:
        for a0 in range(1, index // 2 + 1):
            a1 = index - a0
            m = lcm(a0, a1)
            for a2 in range(a1, a1 + m):
                if gcd(a0, a1, a2) == 1:
                    for a3 in range(a2, a2 + m):
                        emit(window_candidate(a0, a1, a2, a3, a2 + a3))
    elif class_number == 2:
        for a0 in range(1, index // 2 + 1):
            a2 = index - a0
            for a1 in range(a0, index - a0):
                if gcd(a0, a1, a2) == 1:
                    for a3 in range(a2, a2 + lcm(a0, a1, a2)):
                        emit(window_candidate(a0, a1, a2, a3, a1 + a3))
    elif class_number == 3:
        for a1 in range(2, index // 2 + 1):
            a2 = index - a1
            for a0 in range(1, a1):
                if gcd(a0, a1, a2) == 1:
                    for a3 in range(a2, a2 + lcm(a0, a1, a2)):
                        emit(window_candidate(a0, a1, a2, a3, a0 + a3))
    elif class_number == 4:
        for k in range(max((index + 2) // 3, 1), index):
            a0, a1 = index - k, 2 * k
            for a2 in range(a1, a1 + lcm(a0, a1)):
                emit(window_candidate(a0, a1, a2, a2 + k, 2 * (a2 + k)))
    elif class_number == 5:
        for k in range(1, (index + 2) // 3):
            a0, a1 = 2 * k, index - k
            for a2 in range(a1, a1 + lcm(a0, a1)):
                emit(window_candidate(a0, a1, a2, a2 + k, 2 * (a2 + k)))
    else:
        for k in range(1, index):
            a0, a1 = index - k, index + k
            for a2 in range(a1, a1 + lcm(a0, a1, k)):
                emit(window_candidate(a0, a1, a2, a2 + k, a1 + 2 * a2))
    return found


class TestAgainstReference:
    @pytest.mark.parametrize("index", range(1, 31))
    def test_json_matches_golden_digest(self, capsys, index):
        assert main(["classify", "--index", str(index), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[str(index)]

    @pytest.mark.parametrize("class_number", range(1, 7))
    def test_enumeration_matches_definition(self, class_number):
        for index in range(1, 15):
            assert enumerate_class(class_number, index) == reference_enumeration(class_number, index), index

    def test_residue_walk_is_exactly_cond_iv(self):
        # each walk yields, in order, precisely the window values that pass (iv)
        for a0, a1, a2 in combinations_with_replacement(range(1, 13), 3):
            m = lcm(a0, a1, a2)
            for s in {a0, a1, a2}:
                assert _type1_a3(a0, a1, a2, s, m) == [
                    a3 for a3 in range(a2, a2 + m) if _cond_iv_ints(a0, a1, a2, a3, s + a3)
                ], (a0, a1, a2, s)
        for index in range(2, 25):
            for k in range(1, index):
                a0, a1 = index - k, index + k
                assert _class6_a2(index, k) == [
                    a2 for a2 in range(a1, a1 + lcm(a0, a1, k))
                    if _cond_iv_ints(a0, a1, a2, a2 + k, a1 + 2 * a2)
                ], (index, k)

    def test_sieved_walk_is_exactly_iv_and_well_formed(self):
        # each sieved walk yields, in order, precisely the window values that
        # pass (iv) and well-formedness
        for a0, a1, a2 in combinations_with_replacement(range(1, 13), 3):
            m = lcm(a0, a1, a2)
            for s in {a0, a1, a2}:
                assert _type1_window(a0, a1, a2, s, m) == [
                    a3 for a3 in range(a2, a2 + m)
                    if _cond_iv_ints(a0, a1, a2, a3, s + a3) and _well_formed_ints(a0, a1, a2, a3, s + a3)
                ], (a0, a1, a2, s)
        for index in range(2, 25):
            for k in range(1, index):
                a0, a1 = index - k, index + k
                assert _class6_window(index, k) == [
                    a2 for a2 in range(a1, a1 + lcm(a0, a1, k))
                    if _cond_iv_ints(a0, a1, a2, a2 + k, a1 + 2 * a2)
                    and _well_formed_ints(a0, a1, a2, a2 + k, a1 + 2 * a2)
                ], (index, k)

    @pytest.mark.parametrize("class_number", range(1, 7))
    def test_residue_walk_matches_window_scan(self, class_number):
        # list equality: the same series in the same order
        for index in [*range(15, 25), 30, 40]:
            assert enumerate_class(class_number, index) == window_enumeration(class_number, index), index

    @pytest.mark.parametrize("index", WIDE_INDICES)
    def test_table_series_filter_matches_full_scan(self, classified, index):
        # table quintuples are filtered against the table series only; the
        # plain scan checks them against every emitted series
        c = classified(index)
        plain = sorted(
            q for q in set(instantiate(index)[1]) if not any(contains(s, q) for s in c.all_series)
        )
        assert list(c.sporadic) == plain

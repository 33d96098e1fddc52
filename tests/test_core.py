"""Domain type invariants: Quintuple, Series, Classification, TableRow."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpweights.core import (
    Quintuple,
    Series,
    SeriesClass,
    TableRow,
    ceil_div,
    gcd_list,
    lcm_list,
)


class TestHelpers:
    def test_gcd_list(self):
        assert gcd_list([12, 18, 30]) == 6
        assert gcd_list([7]) == 7
        with pytest.raises(ValueError):
            gcd_list([])

    def test_lcm_list(self):
        assert lcm_list([4, 6]) == 12
        with pytest.raises(ValueError):
            lcm_list([0, 3])

    @given(st.integers(-1000, 1000), st.integers(1, 50))
    def test_ceil_div_matches_float_ceiling(self, a, b):
        assert ceil_div(a, b) == -((-a) // b)
        assert (ceil_div(a, b) - 1) * b < a <= ceil_div(a, b) * b


class TestQuintuple:
    def test_accepts_ordered_positive(self):
        q = Quintuple(1, 2, 3, 5, 10)
        assert q.weights == (1, 2, 3, 5)
        assert q.index == 1
        assert q.astuple() == (1, 2, 3, 5, 10)
        assert str(q) == "(1,2,3,5,10)"

    @pytest.mark.parametrize(
        "bad",
        [
            (2, 1, 3, 5, 10),   # unordered
            (0, 1, 2, 3, 5),    # non-positive weight
            (1, 2, 3, 5, 5),    # degree not above top weight
            (1, 2, 3, 5, 11),   # index would be zero
            (1, 2, 3, 5, 13),   # index would be negative
            (True, 1, 1, 1, 3),  # bool is an int subclass, not a weight
            (1, 1, 1, 1, True),
            (1.0, 1, 1, 1, 3),   # non-integer entries
            ("1", 1, 1, 1, 3),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            Quintuple(*bad)

    def test_ordering_is_lexicographic(self):
        assert Quintuple(1, 1, 1, 1, 3) < Quintuple(1, 1, 2, 3, 6)

    @given(
        st.lists(st.integers(1, 60), min_size=4, max_size=4),
        st.integers(1, 8),
    )
    def test_index_roundtrip(self, ws, idx):
        w = sorted(ws)
        d = sum(w) - idx
        if d <= w[3]:
            with pytest.raises(ValueError):
                Quintuple(*w, d)
        else:
            assert Quintuple(*w, d).index == idx


class TestSeries:
    def make(self, steps, origin=SeriesClass.TABLE_SERIES):
        return Series(origin, Quintuple(1, 2, 3, 3, 6), steps)

    def test_member_and_modulus(self):
        s = self.make(((0, 0, 2, 0, 2), (0, 0, 0, 2, 2)))
        assert s.modulus == 2
        assert s.member(0, 0) == s.base
        assert s.member(1, 2).astuple() == (1, 2, 5, 7, 12)
        with pytest.raises(ValueError):
            s.member(1)
        with pytest.raises(ValueError):
            s.member(-1, 0)

    def test_step_shape_enforced(self):
        with pytest.raises(ValueError):
            self.make(())
        with pytest.raises(ValueError):
            self.make(((0, 0, 1, 0, 2),))  # degree entry is not the weight sum
        with pytest.raises(ValueError):
            self.make(((0, 0, 0, 0, 0),))  # a step must move something
        with pytest.raises(ValueError):
            self.make(((0, 0, 0, 2, 2), (0, 0, 0, 4, 4)))  # linearly dependent steps

    def test_class_origin_steps_move_by_modulus(self):
        # mixed 2/4 increments are fine for table-origin series
        s = self.make(((0, 0, 2, 4, 6),))
        assert s.modulus == 2
        with pytest.raises(ValueError):
            self.make(((0, 0, 2, 4, 6),), origin=SeriesClass.CLASS1)

    def test_dict_roundtrip(self):
        s = self.make(((0, 0, 2, 0, 2), (0, 0, 0, 2, 2)), origin=SeriesClass.CLASS1)
        assert Series.from_dict(s.to_dict()) == s
        assert s.to_dict()["class"] == "class1"


class TestSeriesClass:
    def test_class_numbers(self):
        assert SeriesClass.from_class_number(3) is SeriesClass.CLASS3
        assert SeriesClass.CLASS3.class_number == 3
        assert SeriesClass.SPORADIC.class_number is None
        with pytest.raises(ValueError):
            SeriesClass.from_class_number(7)


class TestTableRow:
    def test_evaluation(self):
        row = TableRow(
            weight_exprs=((0, 2), (2, 1), (2, 1), (4, 1)),
            degree_expr=(8, 4),
            index_expr=(0, 1),
            source_label="unit",
        )
        assert row.weights_at(1) == (2, 3, 3, 5)
        assert row.degree_at(1) == 12
        assert row.index_at(5) == 1

    def test_degree_identity_enforced(self):
        with pytest.raises(ValueError):
            TableRow(
                weight_exprs=((0, 1), (0, 1), (1, 1), (1, 1)),
                degree_expr=(2, 3),
                index_expr=(0, 2),
                source_label="unit",
            )

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            TableRow(
                weight_exprs=((1, -1), (0, 1), (1, 1), (1, 1)),
                degree_expr=(3, 1),
                index_expr=(0, 1),
                source_label="unit",
            )

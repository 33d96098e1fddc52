"""Domain type invariants: Quintuple and Series."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpweights.core import Quintuple
from dpweights.series import Series


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
    def make(self, steps, origin="tableSeries"):
        return Series(origin, Quintuple(1, 2, 3, 3, 6), steps)

    def test_member_and_modulus(self):
        s = self.make(((0, 0, 2, 0, 2), (0, 0, 0, 2, 2)))
        assert s.steps == ((0, 0, 2, 0, 2), (0, 0, 0, 2, 2))
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
        # a class-tagged series carries exactly its class's steps
        for steps, origin in [
            (((0, 0, 2, 0, 2),), "class2"),  # class 2 moves a3
            (((0, 0, 2, 0, 2), (0, 0, 0, 2, 2)), "class2"),  # the class-1 steps
            (((0, 0, 0, 2, 2),), "class1"),  # class 1 has two steps
            (((0, 0, 0, 2, 2),), "class2"),  # the base lies in class 1
            (((0, 0, 4, 0, 4), (0, 0, 0, 4, 4)), "class1"),  # modulus 4, not lcm(1, 2)
        ]:
            with pytest.raises(ValueError):
                self.make(steps, origin)
        # the base of a class series is a solid member of its class
        for base, steps in [
            (Quintuple(1, 1, 2, 2, 5), ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1))),  # neither in class 1 nor well formed
            (Quintuple(1, 2, 2, 4, 6), ((0, 0, 2, 0, 2), (0, 0, 0, 2, 2))),  # in class 1, not well formed
        ]:
            with pytest.raises(ValueError):
                Series("class1", base, steps)
        # the tag is one of the wire strings
        for origin in ["class7", "class0", "sporadic", 1, None]:
            with pytest.raises(ValueError):
                self.make(((0, 0, 0, 2, 2),), origin)
        # in either order
        s = self.make(((0, 0, 0, 2, 2), (0, 0, 2, 0, 2)), "class1")
        assert s.steps == ((0, 0, 0, 2, 2), (0, 0, 2, 0, 2))

    def test_class_origin_steps_move_by_modulus(self):
        # mixed 2/4 increments are fine for table-origin series
        s = self.make(((0, 0, 2, 4, 6),))
        assert s.steps == ((0, 0, 2, 4, 6),)
        with pytest.raises(ValueError):
            self.make(((0, 0, 2, 4, 6),), origin="class1")

    def test_rejects_non_int_step_entries(self):
        # bool is an int subclass, but to_dict would write it as JSON true or
        # false, which from_dict rejects
        for steps in [((0, 0, True, 0, True),), ((0, 0, 1.0, 0, 1),)]:
            with pytest.raises(ValueError):
                Series("tableSeries", Quintuple(1, 2, 3, 5, 8), steps)
        with pytest.raises(ValueError):
            Series(
                "class1",
                Quintuple(1, 1, 1, 1, 2),
                ((False, False, True, False, True), (False, False, False, True, True)),
            )
        assert Series("class1", Quintuple(1, 1, 1, 1, 2), ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1)))

    def test_dict_roundtrip(self):
        s = self.make(((0, 0, 2, 0, 2), (0, 0, 0, 2, 2)), origin="class1")
        assert Series.from_dict(s.to_dict()) == s
        assert s.to_dict()["class"] == "class1"

"""Domain type invariants: Quintuple and Series, and the repr, immutability
and hashing of every record."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpweights.conditions import quasismooth_divisibility
from dpweights.core import Classification, Quintuple
from dpweights.obstructions import obstruction_report
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

    def test_record_contract(self):
        q = Quintuple(1, 2, 3, 5, 10)
        assert repr(q) == "Quintuple(a0=1, a1=2, a2=3, a3=5, d=10)"
        with pytest.raises(AttributeError):
            q.a0 = 2
        assert q == Quintuple(1, 2, 3, 5, 10) and hash(q) == hash(Quintuple(1, 2, 3, 5, 10))

    def test_replace_applies_the_checks(self):
        # _replace builds through _make, which must not skip the checks
        q = Quintuple(1, 2, 3, 5, 10)
        assert q._replace(d=9) == Quintuple(1, 2, 3, 5, 9)
        with pytest.raises(ValueError):
            q._replace(a0=0)
        with pytest.raises(ValueError):
            Quintuple._make((2, 1, 3, 5, 10))

    def test_report_records(self):
        report = quasismooth_divisibility(Quintuple(1, 2, 3, 5, 10))
        assert repr(report) == (
            "ConditionReport(quintuple=Quintuple(a0=1, a1=2, a2=3, a3=5, d=10), accepted=True, waived_pair=None)"
        )
        obstruction = obstruction_report(Quintuple(1, 2, 3, 5, 10))
        assert repr(obstruction) == "ObstructionReport(k_squared=Fraction(1, 3), group_order=3, gmsy=False, spotti=False)"
        c = Classification(1, (), (), (Quintuple(1, 1, 1, 1, 3),))
        assert repr(c) == (
            "Classification(index=1, two_param=(), one_param=(), "
            "sporadic=(Quintuple(a0=1, a1=1, a2=1, a3=1, d=3),))"
        )
        for record, field in [(report, "accepted"), (obstruction, "gmsy"), (c, "index")]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        # the detail is cached on first read and the report stays hashable
        assert report.wf_pairs is report.wf_pairs
        assert hash(report) == hash(quasismooth_divisibility(Quintuple(1, 2, 3, 5, 10)))
        assert hash(obstruction) == hash(obstruction_report(Quintuple(1, 2, 3, 5, 10)))
        assert hash(c) == hash(Classification(1, (), (), (Quintuple(1, 1, 1, 1, 3),)))

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

    def test_record_contract(self):
        s = self.make(((0, 0, 2, 0, 2),))
        assert repr(s) == (
            "Series(origin='tableSeries', base=Quintuple(a0=1, a1=2, a2=3, a3=3, d=6), steps=((0, 0, 2, 0, 2),))"
        )
        with pytest.raises(AttributeError):
            s.origin = "class1"
        assert s == self.make(((0, 0, 2, 0, 2),)) and hash(s) == hash(self.make(((0, 0, 2, 0, 2),)))

    def test_make_applies_the_checks(self):
        # _make, and _replace through it, apply the constructor's checks
        s = self.make(((0, 0, 2, 0, 2),))
        assert Series._make(tuple(s)) == s
        for fields in [("class7", s.base, s.steps), ("tableSeries", s.base, ((0, 0, 1, 0, 2),))]:
            with pytest.raises(ValueError):
                Series._make(fields)
        with pytest.raises(ValueError):
            s._replace(origin="class1")

    def test_dict_roundtrip(self):
        s = self.make(((0, 0, 2, 0, 2), (0, 0, 0, 2, 2)), origin="class1")
        assert Series.from_dict(s.to_dict()) == s
        assert s.to_dict()["class"] == "class1"

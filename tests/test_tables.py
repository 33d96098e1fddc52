"""Embedded table data: row counts, integrity, per-index instantiation."""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import permutations

from golden_tables import GOLDEN

from dpweights.conditions import detect_types, quasismooth_divisibility
from dpweights.core import Quintuple
from dpweights.tables import SERIES_ROWS, SPORADIC_ROWS, instantiate


class TestRowData:
    def test_counts(self):
        assert len(SERIES_ROWS) == 35
        assert len(SPORADIC_ROWS) == 63

    def test_series_rows_positive_for_every_n(self):
        # four weights positive at every n >= 1, and an index that never shrinks
        for weight_exprs, (index_slope, index_intercept), label in SERIES_ROWS:
            assert len(weight_exprs) == 4, label
            assert all(slope >= 0 and slope + intercept >= 1 for slope, intercept in weight_exprs), label
            assert index_slope >= 0 and index_slope + index_intercept >= 1, label

    def test_constant_index_rows_ordered_by_n2(self):
        # instantiate walks n up to the first ordered weights of such a row
        for weight_exprs, (index_slope, _), label in SERIES_ROWS:
            if index_slope == 0:
                w = [slope * 2 + intercept for slope, intercept in weight_exprs]
                assert w == sorted(w), label

    def test_sporadic_rows_are_quintuples(self):
        # ordered positive weights, an index in 1..7, and degree above a3
        for weights, index, label in SPORADIC_ROWS:
            assert len(weights) == 4 and weights[0] >= 1, label
            assert list(weights) == sorted(weights), label
            assert 1 <= index <= 7, label
            assert sum(weights) - index > weights[3], label

    def test_sporadic_per_index_counts(self):
        counts = Counter(index for _, index, _ in SPORADIC_ROWS)
        assert dict(counts) == {1: 17, 2: 25, 3: 7, 4: 8, 5: 3, 6: 2, 7: 1}

    def test_sporadic_rows_pass_condition_suite(self):
        for weights, index, label in SPORADIC_ROWS:
            q = Quintuple(*weights, sum(weights) - index)
            assert quasismooth_divisibility(q).accepted, label

    def test_series_rows_early_members_pass_condition_suite(self):
        # rows are stored in catalogue presentation order, not sorted order
        for weight_exprs, (index_slope, index_intercept), label in SERIES_ROWS:
            for n in (1, 2, 3):
                w = sorted(slope * n + intercept for slope, intercept in weight_exprs)
                q = Quintuple(*w, sum(w) - (index_slope * n + index_intercept))
                assert quasismooth_divisibility(q).accepted, (label, n)

    def test_labels_present(self):
        assert all(label for *_, label in SERIES_ROWS)
        assert all(label for *_, label in SPORADIC_ROWS)


class TestInstantiate:
    def test_index1(self):
        series, sporadic = instantiate(1)
        assert len(series) == 1
        expected = {(2, 2 * m + 1, 2 * m + 1, 4 * m + 1, 8 * m + 4) for m in range(1, 11)}
        got = set()
        s = series[0]
        vals = s.base.astuple()
        for k in range(10):
            got.add(tuple(v + k * st for v, st in zip(vals, s.steps[0])))
        assert got == expected
        assert {q.astuple() for q in sporadic} == set(GOLDEN[1]["sporadic"])

    def test_index5_contains_covered_edge_quintuple(self):
        series, sporadic = instantiate(5)
        assert Quintuple(6, 7, 9, 10, 27) in sporadic

    def test_members_carry_requested_index(self):
        for index in range(1, 8):
            series, sporadic = instantiate(index)
            for s in series:
                assert s.base.index == index
            for q in sporadic:
                assert q.index == index

    def test_no_duplicates(self):
        for index in range(1, 8):
            _, sporadic = instantiate(index)
            assert len(sporadic) == len(set(sporadic))

    def test_matches_digest(self):
        # index-growing rows reach every index, past the classify goldens
        h = hashlib.sha256()
        for index in range(1, 81):
            series, sporadic = instantiate(index)
            payload = {"series": [s.to_dict() for s in series], "sporadic": [q.astuple() for q in sporadic]}
            h.update(json.dumps(payload).encode())
        assert h.hexdigest() == "ee07760366b7d8305d0e0af6bde135aefe7a2f068a673324bc8e9987261e3675"


def type_relations(row):
    """Each type relation of a row's weights at parameter n, as the linear
    equations (coefficient of n, constant) that must all vanish, for every
    assignment of the row's weight expressions to sorted positions."""
    w, (p, q), _ = row

    def eq(k, *terms):  # sum(c * a_i) - k * I
        return (sum(c * w[i][0] for c, i in terms) - k * p, sum(c * w[i][1] for c, i in terms) - k * q)

    for i, j, l, m in permutations(range(4)):
        yield (eq(1, (1, i), (1, j)),)  # I: a_i + a_j = I
        yield (eq(2, (2, i), (1, j)),)  # II: 2a_i + a_j = 2I
        yield (eq(2, (1, i), (1, j)), eq(1, (1, i), (1, m), (-1, l)))  # III: a0 + a1 = 2I, a0 + a3 - a2 = I


class TestUntyped:
    # classify filters table quintuples against the table series only, since
    # class series hold only quintuples of their class's type
    def test_instantiated_quintuples_have_no_type(self):
        for index in range(1, 61):
            for q in instantiate(index)[1]:
                assert not detect_types(q), (index, q)

    def test_index_growing_rows_untyped_past_index_6(self):
        # each relation pins n to at most one root, which lies at an index
        # the check above covers
        for row in SERIES_ROWS:
            p, q = row[1]
            if p == 0:
                continue
            for eqs in type_relations(row):
                live = [e for e in eqs if e != (0, 0)]
                assert live, (row, eqs)
                roots = {Fraction(-c, s) if s else None for s, c in live}
                if len(roots) == 1 and None not in roots:
                    (n,) = roots
                    assert n < 1 or p * n + q <= 6, (row, eqs)

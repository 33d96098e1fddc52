"""Metric obstruction arithmetic: exact rationals, group orders, flags."""
from __future__ import annotations

from fractions import Fraction

import pytest

from dpweights.core import Quintuple
from dpweights.obstructions import k_squared, max_group_order, obstruction_report

# (quintuple, K^2, N, gmsy fires, spotti fires)
EXAMPLES = [
    ((1, 3, 4, 8, 12), Fraction(2), 8, True, True),
    ((1, 3, 7, 8, 15), Fraction(10, 7), 8, True, False),
    ((2, 2, 3, 7, 10), Fraction(40, 21), 7, False, True),
    ((2, 2, 3, 3, 6), Fraction(8, 3), 3, False, False),
]


class TestExamples:
    @pytest.mark.parametrize("t,k2,n,gmsy,spotti", EXAMPLES)
    def test_reports(self, t, k2, n, gmsy, spotti):
        q = Quintuple(*t)
        r = obstruction_report(q)
        assert r.k_squared == k2
        assert r.group_order == n
        assert r.k_squared * r.group_order == k2 * n
        assert r.gmsy is gmsy
        assert r.spotti is spotti

    def test_k_squared_products(self):
        # the four bullet values: 16, 80/7, 40/3, 8
        values = [
            obstruction_report(Quintuple(*t)).k_squared * obstruction_report(Quintuple(*t)).group_order
            for t, *_ in EXAMPLES
        ]
        assert values == [Fraction(16), Fraction(80, 7), Fraction(40, 3), Fraction(8)]


class TestPieces:
    def test_k_squared_formula(self):
        # I^2 d / (a0 a1 a2 a3), exact
        assert k_squared(Quintuple(1, 1, 1, 1, 3)) == Fraction(3)
        assert k_squared(Quintuple(1, 2, 3, 5, 10)) == Fraction(1, 3)
        assert k_squared(Quintuple(2, 3, 3, 5, 12)) == Fraction(1 * 1 * 12, 2 * 3 * 3 * 5)

    def test_max_group_order_vertices(self):
        # weights dividing the degree sit off the surface and do not count
        assert max_group_order(Quintuple(1, 2, 3, 5, 10)) == 3
        assert max_group_order(Quintuple(1, 1, 1, 1, 3)) == 1
        assert max_group_order(Quintuple(1, 7, 9, 13, 27)) == 13

    def test_max_group_order_sees_edges(self):
        # gcd(3,3) = 3 exceeds no vertex here, but gcd matters when it does
        assert max_group_order(Quintuple(2, 2, 3, 3, 6)) == 3
        assert max_group_order(Quintuple(1, 3, 4, 8, 12)) == 8

    def test_smooth_cubic_unobstructed(self):
        r = obstruction_report(Quintuple(1, 1, 1, 1, 3))
        assert not r.gmsy and not r.spotti

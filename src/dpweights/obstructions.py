"""Kähler-Einstein obstruction bookkeeping for classified quintuples.

Two cheap necessary criteria are evaluated exactly:

* the index bound: no Kähler-Einstein metric when the index exceeds three
  times the smallest weight;
* the volume bound: none when (K^2) * N >= 12, where K^2 is the degree of
  the anticanonical square and N the largest order of a quotient
  singularity the member can carry.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .conditions import PAIRS
from .core import Quintuple


class ObstructionReport(namedtuple("ObstructionReport", "k_squared group_order gmsy spotti")):
    """K^2 as a Fraction, the largest quotient order, and the two verdicts."""

    __slots__ = ()


def k_squared(q: Quintuple) -> Fraction:
    """Exact rational self-intersection I^2 d / (a0 a1 a2 a3)."""
    return Fraction(q.index * q.index * q.d, q.a0 * q.a1 * q.a2 * q.a3)


def max_group_order(q: Quintuple) -> int:
    """Largest cyclic quotient order on the hypersurface.

    Weights not dividing the degree survive as vertex singularities; shared
    factors of weight pairs act along edges; 1 covers the smooth case.
    """
    orders = {1}
    for a in q.weights:
        if q.d % a:
            orders.add(a)
    w = q.weights
    for i, j in PAIRS:
        g = gcd(w[i], w[j])
        if g > 1:
            orders.add(g)
    return max(orders)


def obstruction_report(q: Quintuple) -> ObstructionReport:
    k2 = k_squared(q)
    n = max_group_order(q)
    return ObstructionReport(
        k_squared=k2,
        group_order=n,
        gmsy=q.index > 3 * q.a0,
        spotti=k2 * n >= 12,
    )

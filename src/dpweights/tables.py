"""Embedded quintuple tables and their per-index instantiation.

The tables are plain data and cover the quintuples that no series class
produces.  No row stores a degree: it is always the weight sum minus the
index.

* ``SERIES_ROWS``: one-parameter families ``(weight_exprs, index_expr,
  label)``, each expression a ``(slope, intercept)`` pair linear in n >= 1.
  Rows with a constant index are genuine series at that index; rows whose
  index grows with n contribute a single quintuple per index.
* ``SPORADIC_ROWS``: isolated quintuples ``(weights, index, label)`` at
  indices 1 through 7.
"""
from __future__ import annotations

from .core import Quintuple
from .series import Series

Expr = tuple[int, int]  # (slope, intercept): the value slope * n + intercept

SERIES_ROWS: tuple[tuple[tuple[Expr, Expr, Expr, Expr], Expr, str], ...] = (
    (((0, 1), (3, -2), (4, -3), (6, -5)), (1, 0), "VII.2(3)"),
    (((0, 1), (3, -2), (4, -3), (6, -4)), (1, 0), "II.2(2)"),
    (((0, 1), (4, -3), (6, -5), (9, -7)), (1, 0), "VII.3(1)"),
    (((0, 1), (6, -5), (10, -8), (15, -12)), (1, 0), "III.1(4)"),
    (((0, 1), (6, -4), (10, -7), (15, -10)), (1, 0), "III.2(2)"),
    (((0, 1), (6, -3), (10, -5), (15, -8)), (1, 0), "III.2(4)"),
    (((0, 1), (8, -2), (12, -3), (18, -5)), (2, 0), "IV.3(3)"),
    (((0, 2), (6, -3), (8, -4), (12, -7)), (2, 0), "II.2(4)"),
    (((0, 2), (6, 1), (8, 2), (12, 3)), (2, 2), "II.2(1)"),
    (((0, 3), (6, 1), (6, 2), (9, 3)), (3, 3), "II.2(1)"),
    (((0, 7), (28, -22), (42, -33), (63, -53)), (7, -2), "XI.3(14)"),
    (((0, 7), (28, -18), (42, -27), (63, -44)), (7, -1), "XI.3(14)"),
    (((0, 7), (28, -17), (42, -29), (63, -40)), (7, 1), "X.3(1)"),
    (((0, 7), (28, -13), (42, -23), (63, -31)), (7, 2), "X.3(1)"),
    (((0, 7), (28, -10), (42, -15), (63, -26)), (7, 1), "XI.3(14)"),
    (((0, 7), (28, -9), (42, -17), (63, -22)), (7, 3), "X.3(1)"),
    (((0, 7), (28, -6), (42, -9), (63, -17)), (7, 2), "XI.3(14)"),
    (((0, 7), (28, -5), (42, -11), (63, -13)), (7, 4), "X.3(1)"),
    (((0, 7), (28, -2), (42, -3), (63, -8)), (7, 3), "XI.3(14)"),
    (((0, 7), (28, -1), (42, -5), (63, -4)), (7, 5), "X.3(1)"),
    (((0, 7), (28, 2), (42, 3), (63, 1)), (7, 4), "XI.3(14)"),
    (((0, 7), (28, 3), (42, 1), (63, 5)), (7, 6), "X.3(1)"),
    (((0, 2), (2, 1), (2, 1), (4, 1)), (0, 1), "II.3(4)"),
    (((0, 3), (3, 0), (3, 1), (3, 1)), (0, 2), "III.5(1)"),
    (((0, 3), (3, 1), (3, 2), (3, 2)), (0, 2), "II.5(1)"),
    (((0, 3), (3, 1), (3, 2), (6, 1)), (0, 2), "XVIII.2(2)"),
    (((0, 3), (3, 1), (6, 1), (9, 0)), (0, 2), "VII.3(2)"),
    (((0, 3), (3, 1), (6, 1), (9, 3)), (0, 2), "II.2(2)"),
    (((0, 4), (2, 1), (2, 1), (4, 0)), (0, 2), "V.3(4)"),
    (((0, 4), (2, 3), (4, 6), (6, 7)), (0, 2), "XII.3(17)"),
    (((0, 6), (6, -1), (12, -4), (18, -9)), (0, 4), "VII.3(2)"),
    (((0, 6), (6, -1), (12, -4), (18, -3)), (0, 4), "IV.3(1)"),
    (((0, 6), (6, 3), (6, 5), (6, 5)), (0, 4), "III.5(1)"),
    (((0, 8), (4, 5), (4, 7), (4, 9)), (0, 6), "XIX.2(2)"),
    (((0, 9), (3, 5), (3, 8), (6, 7)), (0, 6), "XIX.2(2)"),
)

SPORADIC_ROWS: tuple[tuple[tuple[int, int, int, int], int, str], ...] = (
    ((1, 3, 5, 8), 1, "VIII.3(5)"),
    ((2, 3, 5, 9), 1, "II.2(3)"),
    ((3, 3, 5, 5), 1, "I.19"),
    ((3, 5, 7, 11), 1, "X.2(3)"),
    ((3, 5, 7, 14), 1, "VII.4(4)"),
    ((3, 5, 11, 18), 1, "VII.3(1)"),
    ((5, 14, 17, 21), 1, "XI.3(8)"),
    ((5, 19, 27, 31), 1, "X.3(3)"),
    ((5, 19, 27, 50), 1, "VII.3(3)"),
    ((7, 11, 27, 37), 1, "X.3(4)"),
    ((7, 11, 27, 44), 1, "VII.3(5)"),
    ((9, 15, 17, 20), 1, "VII.6(3)"),
    ((9, 15, 23, 23), 1, "III.5(1)"),
    ((11, 29, 39, 49), 1, "XIX.2(2)"),
    ((11, 49, 69, 128), 1, "X.3(1)"),
    ((13, 23, 35, 57), 1, "XIX.2(2)"),
    ((13, 35, 81, 128), 1, "X.3(2)"),
    ((1, 3, 4, 6), 2, "I.3"),
    ((1, 4, 6, 9), 2, "IV.3(3)"),
    ((1, 6, 10, 15), 2, "I.4"),
    ((2, 3, 4, 7), 2, "IX.3(1)"),
    ((3, 4, 5, 10), 2, "II.3(2)"),
    ((3, 4, 6, 7), 2, "VII.3(10)"),
    ((3, 4, 10, 15), 2, "II.2(3)"),
    ((5, 13, 19, 22), 2, "X.3(3)"),
    ((5, 13, 19, 35), 2, "VII.3(3)"),
    ((6, 9, 10, 13), 2, "VII.3(8)"),
    ((7, 8, 19, 25), 2, "X.3(4)"),
    ((7, 8, 19, 32), 2, "VII.3(3)"),
    ((9, 12, 13, 16), 2, "VII.6(2)"),
    ((9, 12, 19, 19), 2, "III.5(1)"),
    ((9, 19, 24, 31), 2, "XI.3(20)"),
    ((10, 19, 35, 43), 2, "XI.3(18)"),
    ((11, 21, 28, 47), 2, "XI.3(16)"),
    ((11, 25, 32, 41), 2, "XIX.3(1)"),
    ((11, 25, 34, 43), 2, "XIX.2(2)"),
    ((11, 43, 61, 113), 2, "X.3(1)"),
    ((13, 18, 45, 61), 2, "XI.3(14)"),
    ((13, 20, 29, 47), 2, "XIX.3(1)"),
    ((13, 20, 31, 49), 2, "XIX.2(2)"),
    ((13, 31, 71, 113), 2, "X.3(2)"),
    ((14, 17, 29, 41), 2, "XIX.2(3)"),
    ((5, 7, 11, 13), 3, "X.3(3)"),
    ((5, 7, 11, 20), 3, "VII.3(3)"),
    ((11, 21, 29, 37), 3, "XIX.2(2)"),
    ((11, 37, 53, 98), 3, "X.3(1)"),
    ((13, 17, 27, 41), 3, "XIX.2(2)"),
    ((13, 27, 61, 98), 3, "X.3(2)"),
    ((15, 19, 43, 74), 3, "X.3(1)"),
    ((9, 11, 12, 17), 4, "XI.3(20)"),
    ((10, 13, 25, 31), 4, "XI.3(14)"),
    ((11, 17, 20, 27), 4, "XIX.3(1)"),
    ((11, 17, 24, 31), 4, "XIX.2(2)"),
    ((11, 31, 45, 83), 4, "X.3(1)"),
    ((13, 14, 19, 29), 4, "XIX.3(1)"),
    ((13, 14, 23, 33), 4, "XIX.2(2)"),
    ((13, 23, 51, 83), 4, "X.3(2)"),
    ((11, 13, 19, 25), 5, "XIX.2(2)"),
    ((11, 25, 37, 68), 5, "X.3(1)"),
    ((13, 19, 41, 68), 5, "X.3(2)"),
    ((11, 19, 29, 53), 6, "X.3(1)"),
    ((13, 15, 31, 53), 6, "X.3(2)"),
    ((11, 13, 21, 38), 7, "X.3(1)"),
)


def _series_from_row(weight_exprs: tuple[Expr, ...], index: int) -> tuple[Series, list[Quintuple]]:
    """Series for a constant-index row, plus sorted early members.

    The base sits at the first n whose weights are ordered as printed; the
    finitely many earlier instantiations are returned as plain quintuples.
    """
    early: list[Quintuple] = []
    n = 1
    while True:
        w = [slope * n + intercept for slope, intercept in weight_exprs]
        if w == sorted(w):
            step = tuple(slope for slope, _ in weight_exprs)
            return Series("tableSeries", Quintuple(*w, sum(w) - index), ((*step, sum(step)),)), early
        w.sort()
        early.append(Quintuple(*w, sum(w) - index))
        n += 1


def instantiate(index: int) -> tuple[list[Series], list[Quintuple]]:
    """Table contribution at one index: series and sporadic quintuples.

    A constant-index row is a series; an index-growing row gives its sorted
    instance at the n for this index, and a sporadic row its quintuple.
    """
    if index < 1:
        raise ValueError(f"index must be positive, got {index}")
    series_out: list[Series] = []
    sporadic: list[Quintuple] = []
    for weight_exprs, (slope, intercept), _ in SERIES_ROWS:
        if slope == 0:
            if intercept == index:
                ser, early = _series_from_row(weight_exprs, index)
                series_out.append(ser)
                sporadic.extend(early)
            continue
        n, rest = divmod(index - intercept, slope)
        if rest == 0 and n >= 1:
            ws = sorted(s * n + c for s, c in weight_exprs)
            sporadic.append(Quintuple(*ws, sum(ws) - index))
    sporadic.extend(Quintuple(*ws, sum(ws) - index) for ws, row_index, _ in SPORADIC_ROWS if row_index == index)
    return series_out, sorted(set(sporadic))

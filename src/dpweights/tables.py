"""Embedded quintuple tables and their per-index instantiation.

Every catalogue entry is a ``TableRow``: weights, degree and index linear in
n >= 1, with the label it was filed under.  The rows cover the quintuples
that no series class produces:

* ``SERIES_ROWS``: one-parameter families.  Rows with a constant index are
  genuine series at that index; rows whose index grows with n contribute a
  single quintuple per index.
* ``SPORADIC_ROWS``: isolated quintuples at indices 1 through 7, rows whose
  slopes are all zero.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Quintuple
from .series import Series, SeriesClass


@dataclass(frozen=True)
class TableRow:
    """A one-parameter table datum: weights, degree and index linear in n >= 1."""

    weight_exprs: tuple[tuple[int, int], ...]  # four (slope, intercept) pairs
    degree_expr: tuple[int, int]
    index_expr: tuple[int, int]
    source_label: str

    def __post_init__(self) -> None:
        if len(self.weight_exprs) != 4:
            raise ValueError("a table row carries exactly four weight expressions")
        # degree = sum(weights) - index must hold identically in n
        ws, wi = (sum(e[0] for e in self.weight_exprs), sum(e[1] for e in self.weight_exprs))
        if self.degree_expr != (ws - self.index_expr[0], wi - self.index_expr[1]):
            raise ValueError(f"degree expression inconsistent with weights/index: {self}")
        # positive for every n >= 1: non-negative slope and positive value at n=1
        for slope, intercept in self.weight_exprs:
            if slope < 0 or slope + intercept < 1:
                raise ValueError(f"weight expression ({slope},{intercept}) not positive for n >= 1")

    def weights_at(self, n: int) -> tuple[int, int, int, int]:
        return tuple(slope * n + intercept for slope, intercept in self.weight_exprs)  # type: ignore[return-value]

    def degree_at(self, n: int) -> int:
        return self.degree_expr[0] * n + self.degree_expr[1]

    def index_at(self, n: int) -> int:
        return self.index_expr[0] * n + self.index_expr[1]


_R = TableRow

SERIES_ROWS: tuple[TableRow, ...] = (
    _R(((0, 1), (3, -2), (4, -3), (6, -5)), (12, -9), (1, 0), "VII.2(3)"),
    _R(((0, 1), (3, -2), (4, -3), (6, -4)), (12, -8), (1, 0), "II.2(2)"),
    _R(((0, 1), (4, -3), (6, -5), (9, -7)), (18, -14), (1, 0), "VII.3(1)"),
    _R(((0, 1), (6, -5), (10, -8), (15, -12)), (30, -24), (1, 0), "III.1(4)"),
    _R(((0, 1), (6, -4), (10, -7), (15, -10)), (30, -20), (1, 0), "III.2(2)"),
    _R(((0, 1), (6, -3), (10, -5), (15, -8)), (30, -15), (1, 0), "III.2(4)"),
    _R(((0, 1), (8, -2), (12, -3), (18, -5)), (36, -9), (2, 0), "IV.3(3)"),
    _R(((0, 2), (6, -3), (8, -4), (12, -7)), (24, -12), (2, 0), "II.2(4)"),
    _R(((0, 2), (6, 1), (8, 2), (12, 3)), (24, 6), (2, 2), "II.2(1)"),
    _R(((0, 3), (6, 1), (6, 2), (9, 3)), (18, 6), (3, 3), "II.2(1)"),
    _R(((0, 7), (28, -22), (42, -33), (63, -53)), (126, -99), (7, -2), "XI.3(14)"),
    _R(((0, 7), (28, -18), (42, -27), (63, -44)), (126, -81), (7, -1), "XI.3(14)"),
    _R(((0, 7), (28, -17), (42, -29), (63, -40)), (126, -80), (7, 1), "X.3(1)"),
    _R(((0, 7), (28, -13), (42, -23), (63, -31)), (126, -62), (7, 2), "X.3(1)"),
    _R(((0, 7), (28, -10), (42, -15), (63, -26)), (126, -45), (7, 1), "XI.3(14)"),
    _R(((0, 7), (28, -9), (42, -17), (63, -22)), (126, -44), (7, 3), "X.3(1)"),
    _R(((0, 7), (28, -6), (42, -9), (63, -17)), (126, -27), (7, 2), "XI.3(14)"),
    _R(((0, 7), (28, -5), (42, -11), (63, -13)), (126, -26), (7, 4), "X.3(1)"),
    _R(((0, 7), (28, -2), (42, -3), (63, -8)), (126, -9), (7, 3), "XI.3(14)"),
    _R(((0, 7), (28, -1), (42, -5), (63, -4)), (126, -8), (7, 5), "X.3(1)"),
    _R(((0, 7), (28, 2), (42, 3), (63, 1)), (126, 9), (7, 4), "XI.3(14)"),
    _R(((0, 7), (28, 3), (42, 1), (63, 5)), (126, 10), (7, 6), "X.3(1)"),
    _R(((0, 2), (2, 1), (2, 1), (4, 1)), (8, 4), (0, 1), "II.3(4)"),
    _R(((0, 3), (3, 0), (3, 1), (3, 1)), (9, 3), (0, 2), "III.5(1)"),
    _R(((0, 3), (3, 1), (3, 2), (3, 2)), (9, 6), (0, 2), "II.5(1)"),
    _R(((0, 3), (3, 1), (3, 2), (6, 1)), (12, 5), (0, 2), "XVIII.2(2)"),
    _R(((0, 3), (3, 1), (6, 1), (9, 0)), (18, 3), (0, 2), "VII.3(2)"),
    _R(((0, 3), (3, 1), (6, 1), (9, 3)), (18, 6), (0, 2), "II.2(2)"),
    _R(((0, 4), (2, 1), (2, 1), (4, 0)), (8, 4), (0, 2), "V.3(4)"),
    _R(((0, 4), (2, 3), (4, 6), (6, 7)), (12, 18), (0, 2), "XII.3(17)"),
    _R(((0, 6), (6, -1), (12, -4), (18, -9)), (36, -12), (0, 4), "VII.3(2)"),
    _R(((0, 6), (6, -1), (12, -4), (18, -3)), (36, -6), (0, 4), "IV.3(1)"),
    _R(((0, 6), (6, 3), (6, 5), (6, 5)), (18, 15), (0, 4), "III.5(1)"),
    _R(((0, 8), (4, 5), (4, 7), (4, 9)), (12, 23), (0, 6), "XIX.2(2)"),
    _R(((0, 9), (3, 5), (3, 8), (6, 7)), (12, 23), (0, 6), "XIX.2(2)"),
)


def _S(weights: tuple[int, int, int, int], degree: int, index: int, label: str) -> TableRow:
    """A sporadic entry: the row whose slopes are all zero."""
    return TableRow(tuple((0, w) for w in weights), (0, degree), (0, index), label)


SPORADIC_ROWS: tuple[TableRow, ...] = (
    _S((1, 3, 5, 8), 16, 1, "VIII.3(5)"),
    _S((2, 3, 5, 9), 18, 1, "II.2(3)"),
    _S((3, 3, 5, 5), 15, 1, "I.19"),
    _S((3, 5, 7, 11), 25, 1, "X.2(3)"),
    _S((3, 5, 7, 14), 28, 1, "VII.4(4)"),
    _S((3, 5, 11, 18), 36, 1, "VII.3(1)"),
    _S((5, 14, 17, 21), 56, 1, "XI.3(8)"),
    _S((5, 19, 27, 31), 81, 1, "X.3(3)"),
    _S((5, 19, 27, 50), 100, 1, "VII.3(3)"),
    _S((7, 11, 27, 37), 81, 1, "X.3(4)"),
    _S((7, 11, 27, 44), 88, 1, "VII.3(5)"),
    _S((9, 15, 17, 20), 60, 1, "VII.6(3)"),
    _S((9, 15, 23, 23), 69, 1, "III.5(1)"),
    _S((11, 29, 39, 49), 127, 1, "XIX.2(2)"),
    _S((11, 49, 69, 128), 256, 1, "X.3(1)"),
    _S((13, 23, 35, 57), 127, 1, "XIX.2(2)"),
    _S((13, 35, 81, 128), 256, 1, "X.3(2)"),
    _S((1, 3, 4, 6), 12, 2, "I.3"),
    _S((1, 4, 6, 9), 18, 2, "IV.3(3)"),
    _S((1, 6, 10, 15), 30, 2, "I.4"),
    _S((2, 3, 4, 7), 14, 2, "IX.3(1)"),
    _S((3, 4, 5, 10), 20, 2, "II.3(2)"),
    _S((3, 4, 6, 7), 18, 2, "VII.3(10)"),
    _S((3, 4, 10, 15), 30, 2, "II.2(3)"),
    _S((5, 13, 19, 22), 57, 2, "X.3(3)"),
    _S((5, 13, 19, 35), 70, 2, "VII.3(3)"),
    _S((6, 9, 10, 13), 36, 2, "VII.3(8)"),
    _S((7, 8, 19, 25), 57, 2, "X.3(4)"),
    _S((7, 8, 19, 32), 64, 2, "VII.3(3)"),
    _S((9, 12, 13, 16), 48, 2, "VII.6(2)"),
    _S((9, 12, 19, 19), 57, 2, "III.5(1)"),
    _S((9, 19, 24, 31), 81, 2, "XI.3(20)"),
    _S((10, 19, 35, 43), 105, 2, "XI.3(18)"),
    _S((11, 21, 28, 47), 105, 2, "XI.3(16)"),
    _S((11, 25, 32, 41), 107, 2, "XIX.3(1)"),
    _S((11, 25, 34, 43), 111, 2, "XIX.2(2)"),
    _S((11, 43, 61, 113), 226, 2, "X.3(1)"),
    _S((13, 18, 45, 61), 135, 2, "XI.3(14)"),
    _S((13, 20, 29, 47), 107, 2, "XIX.3(1)"),
    _S((13, 20, 31, 49), 111, 2, "XIX.2(2)"),
    _S((13, 31, 71, 113), 226, 2, "X.3(2)"),
    _S((14, 17, 29, 41), 99, 2, "XIX.2(3)"),
    _S((5, 7, 11, 13), 33, 3, "X.3(3)"),
    _S((5, 7, 11, 20), 40, 3, "VII.3(3)"),
    _S((11, 21, 29, 37), 95, 3, "XIX.2(2)"),
    _S((11, 37, 53, 98), 196, 3, "X.3(1)"),
    _S((13, 17, 27, 41), 95, 3, "XIX.2(2)"),
    _S((13, 27, 61, 98), 196, 3, "X.3(2)"),
    _S((15, 19, 43, 74), 148, 3, "X.3(1)"),
    _S((9, 11, 12, 17), 45, 4, "XI.3(20)"),
    _S((10, 13, 25, 31), 75, 4, "XI.3(14)"),
    _S((11, 17, 20, 27), 71, 4, "XIX.3(1)"),
    _S((11, 17, 24, 31), 79, 4, "XIX.2(2)"),
    _S((11, 31, 45, 83), 166, 4, "X.3(1)"),
    _S((13, 14, 19, 29), 71, 4, "XIX.3(1)"),
    _S((13, 14, 23, 33), 79, 4, "XIX.2(2)"),
    _S((13, 23, 51, 83), 166, 4, "X.3(2)"),
    _S((11, 13, 19, 25), 63, 5, "XIX.2(2)"),
    _S((11, 25, 37, 68), 136, 5, "X.3(1)"),
    _S((13, 19, 41, 68), 136, 5, "X.3(2)"),
    _S((11, 19, 29, 53), 106, 6, "X.3(1)"),
    _S((13, 15, 31, 53), 106, 6, "X.3(2)"),
    _S((11, 13, 21, 38), 76, 7, "X.3(1)"),
)

# defensive cap: every constant-index row is position-ordered by n=2 already
_MAX_BASE_SEARCH = 64


def _series_from_row(row: TableRow, index: int) -> tuple[Series, list[Quintuple]]:
    """Series for a constant-index row, plus sorted early members.

    The base sits at the first n whose weights are ordered as printed; the
    finitely many earlier instantiations are returned as plain quintuples.
    """
    early: list[Quintuple] = []
    for n in range(1, _MAX_BASE_SEARCH + 1):
        w = row.weights_at(n)
        if w[0] <= w[1] <= w[2] <= w[3]:
            base = Quintuple(*w, row.degree_at(n))
            step = tuple(e[0] for e in row.weight_exprs) + (row.degree_expr[0],)
            return Series(SeriesClass.TABLE_SERIES, base, (step,)), early
        ws = sorted(w)
        early.append(Quintuple(*ws, sum(ws) - index))
    raise RuntimeError(f"table row {row} never becomes ordered")


def instantiate(index: int) -> tuple[list[Series], list[Quintuple]]:
    """Table contribution at one index: series and sporadic quintuples.

    A constant-index row whose weights move is a series; every other row
    gives its sorted instance at the n for this index.
    """
    if index < 1:
        raise ValueError(f"index must be positive, got {index}")
    series_out: list[Series] = []
    sporadic: list[Quintuple] = []
    for row in SERIES_ROWS + SPORADIC_ROWS:
        slope, intercept = row.index_expr
        # a constant-index row has its index at every n, so take n = 1
        n, rest = divmod(index - intercept, slope) if slope else (1, index - intercept)
        if rest or n < 1:
            continue
        if slope == 0 and any(e[0] for e in row.weight_exprs):
            ser, early = _series_from_row(row, index)
            series_out.append(ser)
            sporadic.extend(early)
        else:
            ws = sorted(row.weights_at(n))
            sporadic.append(Quintuple(*ws, sum(ws) - index))
    return series_out, sorted(set(sporadic))

"""The records every module shares: a weight quintuple and the answer for one index.

Every record of the package is a ``namedtuple`` subclass, so it is a tuple
of its fields: it compares, hashes and orders as that tuple.  Unlike
``dataclasses``, which loads ``inspect`` and ``ast``, ``collections`` costs
the import nothing, since ``argparse`` loads it anyway.  A record that checks
its fields does so in ``__new__`` and routes ``_make`` (and so ``_replace``)
through it.
"""
from __future__ import annotations

from collections import namedtuple


class Quintuple(namedtuple("Quintuple", "a0 a1 a2 a3 d")):
    """An ordered weight system (a0 <= a1 <= a2 <= a3) together with a degree d.

    The index a0+a1+a2+a3-d is always derived, never stored.  Construction
    enforces ordering, d > a3 and a positive index, so every Quintuple in the
    system is a genuine candidate weight system.
    """

    __slots__ = ()

    def __new__(cls, a0: int, a1: int, a2: int, a3: int, d: int) -> Quintuple:
        w = (a0, a1, a2, a3)
        # exact type test: it also rejects bool, a subclass of int
        if not (type(a0) is type(a1) is type(a2) is type(a3) is type(d) is int):
            raise ValueError(f"weights and degree must be integers: {w} d={d}")
        if a0 < 1 or a1 < 1 or a2 < 1 or a3 < 1:
            raise ValueError(f"weights must be positive: {w}")
        if not (a0 <= a1 <= a2 <= a3):
            raise ValueError(f"weights must be ordered: {w}")
        if d <= a3:
            raise ValueError(f"degree must exceed the top weight: d={d} a3={a3}")
        if a0 + a1 + a2 + a3 - d < 1:
            raise ValueError(f"index must be positive: {w} d={d}")
        return tuple.__new__(cls, (a0, a1, a2, a3, d))

    @classmethod
    def _make(cls, iterable) -> Quintuple:
        # namedtuple's own _make, which _replace calls, would skip the checks
        return cls(*iterable)

    @property
    def weights(self) -> tuple[int, int, int, int]:
        return self[:4]

    @property
    def index(self) -> int:
        return self.a0 + self.a1 + self.a2 + self.a3 - self.d

    def astuple(self) -> tuple[int, int, int, int, int]:
        return tuple(self)

    def __str__(self) -> str:
        return f"({self.a0},{self.a1},{self.a2},{self.a3},{self.d})"


class Classification(namedtuple("Classification", "index two_param one_param sporadic")):
    """The complete answer for one index: series families plus sporadic cases.

    ``two_param`` and ``one_param`` are tuples of ``Series``, ``sporadic`` a
    tuple of ``Quintuple``.
    """

    __slots__ = ()

    @property
    def all_series(self) -> tuple:
        return self.two_param + self.one_param

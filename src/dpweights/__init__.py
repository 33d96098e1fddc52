"""Classification of quasi-smooth well-formed del Pezzo hypersurfaces in
weighted projective 3-space, organised by Fano index.

For any index the engine emits the complete answer as two-parameter series,
one-parameter series and sporadic weight quintuples, together with a
brute-force oracle and Kähler-Einstein obstruction reports.

The package root exports the documented API; every other name imports from
its own module.
"""
from .classify import classify_index, enumerate_class, expand_classification
from .conditions import (
    ConditionReport,
    cond_iv,
    detect_class,
    detect_types,
    is_solid,
    quasismooth_divisibility,
    quasismooth_monomial,
    well_formed,
)
from .core import Classification, Quintuple
from .obstructions import obstruction_report
from .oracle import brute_force
from .series import Series, contains, expand, make_series

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ConditionReport",
    "Quintuple",
    "Series",
    "brute_force",
    "classify_index",
    "cond_iv",
    "contains",
    "detect_class",
    "detect_types",
    "enumerate_class",
    "expand",
    "expand_classification",
    "is_solid",
    "make_series",
    "obstruction_report",
    "quasismooth_divisibility",
    "quasismooth_monomial",
    "well_formed",
]

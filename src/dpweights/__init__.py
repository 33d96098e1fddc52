"""Classification of quasi-smooth well-formed del Pezzo hypersurfaces in
weighted projective 3-space, organised by Fano index.

For any index the engine emits the complete answer as two-parameter series,
one-parameter series and sporadic weight quintuples, together with a
brute-force oracle and Kähler-Einstein obstruction reports.
"""
from .classify import classify_index, enumerate_class, expand_classification
from .conditions import (
    ConditionReport,
    cond_iv,
    covered_edge_pair,
    detect_class,
    detect_types,
    is_solid,
    is_valid,
    quasismooth_divisibility,
    quasismooth_monomial,
    well_formed,
)
from .core import (
    Classification,
    Quintuple,
    Series,
    SeriesClass,
    TableRow,
    ceil_div,
    gcd_list,
    lcm_list,
)
from .obstructions import ObstructionReport, k_squared, max_group_order, obstruction_report
from .oracle import brute_force
from .series import canonical_key, contains, expand, make_series
from .tables import SERIES_ROWS, SPORADIC_ROWS, SporadicRow, instantiate

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ConditionReport",
    "ObstructionReport",
    "Quintuple",
    "Series",
    "SeriesClass",
    "SporadicRow",
    "TableRow",
    "SERIES_ROWS",
    "SPORADIC_ROWS",
    "brute_force",
    "canonical_key",
    "ceil_div",
    "classify_index",
    "cond_iv",
    "contains",
    "covered_edge_pair",
    "detect_class",
    "detect_types",
    "enumerate_class",
    "expand",
    "expand_classification",
    "gcd_list",
    "instantiate",
    "is_solid",
    "is_valid",
    "k_squared",
    "lcm_list",
    "make_series",
    "max_group_order",
    "obstruction_report",
    "quasismooth_divisibility",
    "quasismooth_monomial",
    "well_formed",
]

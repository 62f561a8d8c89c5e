"""Exact valuations on function fields over F_p and Frobenius
classification of their valuation rings."""

from .classifier import (
    ClassificationReport,
    TriVerdict,
    classify,
    in_Q,
    least_pure_exponent,
)
from .function_field import (
    FieldSpec,
    Polynomial,
    PowerSeries,
    RationalFunction,
    parse_poly,
    parse_ratfun,
)
from .ordered_groups import OrderedGroup
from .valuations import (
    Divisorial,
    Monomial,
    SeriesRestriction,
    Valuation,
)

__all__ = [
    "ClassificationReport",
    "TriVerdict",
    "classify",
    "in_Q",
    "least_pure_exponent",
    "FieldSpec",
    "Polynomial",
    "PowerSeries",
    "RationalFunction",
    "parse_poly",
    "parse_ratfun",
    "OrderedGroup",
    "Divisorial",
    "Monomial",
    "SeriesRestriction",
    "Valuation",
]

"""Exact valuations on function fields over F_p and Frobenius
classification of their valuation rings."""

from .classifier import (
    ClassificationReport,
    TriVerdict,
    abhyankar,
    classify,
    dim_V_mod_mp,
    field_p_degree,
    in_Q,
    in_mp_e,
    is_divisorial,
    is_F_pure_along,
    least_pure_exponent,
    ramification_index,
    residue_degree,
)
from .exact_arith import Rational
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
    "abhyankar",
    "classify",
    "dim_V_mod_mp",
    "field_p_degree",
    "in_Q",
    "in_mp_e",
    "is_divisorial",
    "is_F_pure_along",
    "least_pure_exponent",
    "ramification_index",
    "residue_degree",
    "Rational",
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

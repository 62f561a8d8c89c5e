"""Ready-made valuations used by the test suite and the demo scripts."""

from __future__ import annotations

from .function_field import FieldSpec, PowerSeries, parse_poly
from .valuations import (
    Divisorial,
    Monomial,
    SeriesRestriction,
    Valuation,
)


def irrational_monomial(p: int, d: int = 2) -> Valuation:
    """w(x) = 1, w(y) = sqrt(d) on F_p(x, y): dense rank-2 value group."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(spec, Monomial({"x": (1, 0), "y": (0, 1)}, d))


def lex_monomial(p: int, n: int = 2) -> Valuation:
    """Standard lex valuation on F_p(x1..xn) with value group lex Z^n."""
    names = tuple(f"x{i+1}" for i in range(n))
    spec = FieldSpec(p, (), names)
    return Valuation(spec, Monomial.standard_lex(names))


def divisorial(p: int, g_text: str = "x") -> Valuation:
    """Order of vanishing along g on F_p(x, y)."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(spec, Divisorial(parse_poly(g_text, spec)))


def series_factorial_gap(p: int) -> Valuation:
    """Restriction of the t-adic valuation along x -> t, y -> sum of t^(n!)."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(spec, SeriesRestriction({
        "x": PowerSeries.variable(p),
        "y": PowerSeries.factorial_gap(p),
    }))


def series_algebraic_control(p: int) -> Valuation:
    """Control assignment y -> t^2 + t^3, checkable by direct substitution."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(spec, SeriesRestriction({
        "x": PowerSeries.variable(p),
        "y": PowerSeries.from_polynomial_coeffs(p, {2: 1, 3: 1}, name="t^2+t^3"),
    }))


def gauss_valuation(p: int) -> Valuation:
    """w(x) = w(y) = 1: rank 1, residue field of transcendence degree 1."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(spec, Monomial({"x": (1, 0), "y": (1, 0)}, 2))

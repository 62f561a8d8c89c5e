"""Shared test helpers: the acceptance-criterion scoreboard, ready-made
valuations and random generators, the report invariants, and the mutant
valuations that prove the axiom audit has teeth."""

import random
import re
from fractions import Fraction
from functools import reduce

import pytest

from frobval.exact_arith import QuadraticReal
from frobval.function_field import FieldSpec, PowerSeries, parse_poly
from frobval.oracle import _value_less
from frobval.ordered_groups import OrderedGroup
from frobval.valuations import Divisorial, Monomial, SeriesRestriction, Valuation


_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")
_criterion_results = {}


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if m and report.when == "call":
        number, slug = int(m.group(1)), m.group(2).replace("_", " ")
        _criterion_results[number] = (slug, report.passed)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail scoreboard line per acceptance criterion."""
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_results):
        slug, passed = _criterion_results[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number} ({slug}): {verdict}")


def series_t(p):
    """The series t itself, of order 1."""
    return PowerSeries.from_polynomial_coeffs(p, {1: 1}, name="t")


# Ready-made valuations


def irrational_monomial(p: int, d: int = 2) -> Valuation:
    """w(x) = 1, w(y) = sqrt(d) on F_p(x, y): dense rank-2 value group."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(Monomial(spec, {"x": (1, 0), "y": (0, 1)}, d))


def lex_monomial(p: int, n: int = 2) -> Valuation:
    """Standard lex valuation on F_p(x1..xn) with value group lex Z^n."""
    names = tuple(f"x{i+1}" for i in range(n))
    spec = FieldSpec(p, (), names)
    return Valuation(Monomial.standard_lex(spec, names))


def divisorial(p: int, g_text: str = "x") -> Valuation:
    """Order of vanishing along g on F_p(x, y)."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(Divisorial(parse_poly(g_text, spec)))


def series_factorial_gap(p: int) -> Valuation:
    """Restriction of the t-adic valuation along x -> t, y -> sum of t^(n!)."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(SeriesRestriction(spec, {
        "x": series_t(p),
        "y": PowerSeries.factorial_gap(p),
    }))


def series_algebraic_control(p: int) -> Valuation:
    """Control assignment y -> t^2 + t^3, checkable by direct substitution."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(SeriesRestriction(spec, {
        "x": series_t(p),
        "y": PowerSeries.from_polynomial_coeffs(p, {2: 1, 3: 1}, name="t^2+t^3"),
    }))


def gauss_valuation(p: int) -> Valuation:
    """w(x) = w(y) = 1: rank 1, residue field of transcendence degree 1."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(Monomial(spec, {"x": (1, 0), "y": (1, 0)}, 2))


@pytest.fixture
def spec_p5():
    return FieldSpec(5, (), ("x", "y"))


@pytest.fixture
def spec_p2():
    return FieldSpec(2, (), ("x", "y"))


def random_lattice(rng, rank_cap=3):
    """A random nontrivial lex lattice of ambient dimension <= rank_cap."""
    r = rng.randint(1, rank_cap)
    while True:
        gens = [
            tuple(rng.randint(-4, 4) for _ in range(r))
            for _ in range(rng.randint(1, r + 1))
        ]
        if any(any(g) for g in gens):
            return OrderedGroup.from_generators(gens)


def random_arch_weights(rng, d=2):
    """Two positive weights in Q(sqrt(d)), suitable for a monomial valuation."""
    weights = {}
    for name in ("x", "y"):
        while True:
            w = QuadraticReal(
                Fraction(rng.randint(0, 3), rng.randint(1, 3)),
                Fraction(rng.randint(0, 2), rng.randint(1, 2)),
                d,
            )
            if w.sign() > 0:
                weights[name] = w
                break
    return weights


def random_lex_weights(rng, r=2):
    weights = {}
    for name in ("x", "y"):
        while True:
            w = tuple(rng.randint(0, 3) for _ in range(r))
            if any(w) and next(x for x in w if x) > 0:
                weights[name] = w
                break
    return weights


def mixed_sign_monomial(p):
    """monomial { x: 1, y: sqrt(2) - 1 }: lex order on the coordinates (a, b)
    of a + b*sqrt(2) disagrees with the real order, e.g. x < y^3."""
    spec = FieldSpec(p, (), ("x", "y"))
    return Valuation(Monomial.real(spec, {
        "x": QuadraticReal(Fraction(1), Fraction(0), 2),
        "y": QuadraticReal(Fraction(-1), Fraction(1), 2),
    }))


def random_monomial_valuation(rng, p=3):
    spec = FieldSpec(p, (), ("x", "y"))
    if rng.random() < 0.5:
        return Valuation(Monomial.real(spec, random_arch_weights(rng)))
    return Valuation(Monomial(spec, random_lex_weights(rng)))


def assert_report_invariants(report):
    """The classifier implication lattice, checked on every produced report."""
    assert report.e * report.f_deg <= report.K_Kp
    assert report.abhyankar_geometric == report.abhyankar_numeric
    assert (report.f_pure_regular.value == "YES") == report.noetherian
    if report.split_f_regular.value == "YES":
        assert report.frobenius_split.value == "YES"
        assert report.f_pure_regular.value == "YES"
    if report.f_finite.value == "YES":
        assert report.frobenius_split.value == "YES"
        assert report.divisorial
        assert report.s == 1
        assert report.dim_V_mod_mp == report.K_Kp
    assert report.f_pure.value == "YES"
    assert report.Q.is_zero == report.noetherian
    assert report.Q.V_mod_Q_is_DVR == report.m_principal


# Mutants, used by tests to prove the audit catches real breakage


class BrokenMinValuation:
    """Monomial valuation with max in place of min: not a valuation."""

    def __init__(self, inner: Valuation):
        self.inner = inner
        self.spec = inner.spec
        self.value_group = inner.value_group

    def value_of_poly(self, f):
        d = self.value_group().d
        return reduce(lambda a, b: b if _value_less(a, b, d) else a,
                      self.inner.kind._term_values(f))


class TupleMinValuation(BrokenMinValuation):
    """Monomial valuation whose min compares real-embedded values (a, b) in
    tuple order: not the valuation of the real weights."""

    def value_of_poly(self, f):
        return min(self.inner.kind._term_values(f))


class ReversedLexMinValuation(BrokenMinValuation):
    """Lex monomial valuation whose min compares from the last coordinate:
    not the valuation of the lex weights."""

    def value_of_poly(self, f):
        return min(self.inner.kind._term_values(f), key=lambda v: v[::-1])

import random
import re
from fractions import Fraction

import pytest

from frobval.exact_arith import QuadraticReal
from frobval.function_field import FieldSpec
from frobval.ordered_groups import OrderedGroup
from frobval.valuations import Monomial, Valuation


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
    return Valuation(spec, Monomial.real({
        "x": QuadraticReal(Fraction(1), Fraction(0), 2),
        "y": QuadraticReal(Fraction(-1), Fraction(1), 2),
    }))


def random_monomial_valuation(rng, p=3):
    spec = FieldSpec(p, (), ("x", "y"))
    if rng.random() < 0.5:
        return Valuation(spec, Monomial.real(random_arch_weights(rng)))
    return Valuation(spec, Monomial(random_lex_weights(rng)))


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

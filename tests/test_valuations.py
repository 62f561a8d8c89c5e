import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from frobval.classifier import classify
from frobval.errors import FrobvalError
from frobval.exact_arith import QuadraticReal
from frobval.function_field import (
    FieldSpec,
    Polynomial,
    PowerSeries,
    parse_poly,
    parse_ratfun,
)
from frobval.oracle import (
    _value_less,
    axiom_audit,
    frobenius_restriction,
    representative_independence_audit,
    series_recheck,
)
from frobval.valuations import (
    Divisorial,
    Monomial,
    SeriesRestriction,
    Valuation,
)

from conftest import (
    divisorial,
    gauss_valuation,
    irrational_monomial,
    lex_monomial,
    mixed_sign_monomial,
    random_monomial_valuation,
    series_algebraic_control,
    series_factorial_gap,
    series_t,
)


def qr(a, b, d=2):
    return QuadraticReal(Fraction(a), Fraction(b), d)


class TestMonomialArchValues:
    # values are the coordinates (a, b) of a + b*sqrt(2)
    def test_weighted_degree(self):
        v = irrational_monomial(5)
        f = parse_poly("x^2*y^3", v.spec)
        assert v.value_of_poly(f) == (2, 3)
        assert v.format_value(v.value_of_poly(f)) == "2 + 3*sqrt(2)"

    def test_min_over_terms(self):
        for make, text, expected in [
            # v(x^2) = 2 < v(y^2) = 2*sqrt(2), integer oracle: 4 < 8
            (irrational_monomial, "x^2 + y^2", (2, 0)),
            # v(x) = 1 < v(y^3) = 3*sqrt(2) - 3, integer oracle: 16 < 18;
            # as tuples (-3, 3) < (1, 0), the wrong way round
            (mixed_sign_monomial, "x + y^3", (1, 0)),
        ]:
            v = make(5)
            assert v.value_of_poly(parse_poly(text, v.spec)) == expected

    def test_constants_have_value_zero(self):
        v = irrational_monomial(3)
        assert v.value_of_poly(parse_poly("2", v.spec)) == (0, 0)

    def test_zero_rejected(self):
        v = irrational_monomial(3)
        with pytest.raises(FrobvalError) as exc:
            v.value_of_poly(Polynomial(v.spec, {}))
        assert exc.value.code == "ZERO_ARGUMENT"

    def test_rational_function(self):
        v = irrational_monomial(5)
        r = parse_ratfun("x/y", v.spec)
        assert v.value_of(r) == (1, -1)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            Monomial.real({"x": qr(1, 0), "y": qr(1, -1)})
        assert exc.value.code == "NEGATIVE_WEIGHT"

    def test_radicand_checked_on_integer_weights(self):
        # sqrt(4) = 2 would make (a, b) -> a + b*sqrt(4) neither injective
        # nor the order the exact sign test assumes
        with pytest.raises(FrobvalError) as exc:
            Monomial({"x": (1, 0), "y": (0, 1)}, d=4)
        assert exc.value.code == "BAD_RADICAND"


class TestMonomialLexValues:
    def test_weighted_degree(self):
        v = lex_monomial(3)
        f = parse_poly("x1^2*x2^3", v.spec)
        assert v.value_of_poly(f) == (2, 3)

    def test_lex_min(self):
        v = lex_monomial(3)
        # (0, 5) < (1, 0) in lex order, so x2^5 wins
        f = parse_poly("x1 + x2^5", v.spec)
        assert v.value_of_poly(f) == (0, 5)

    def test_tuple_comparison_is_lex(self):
        assert (0, 5) < (1, 0)


class TestMonomialValuesOverGroundMonomials:
    """A ground variable has weight 0, so the terms of f that share a main
    monomial share one value: ``_term_values`` yields it once."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("weights, d", [
        ({"x": (1, 0), "y": (2, 1)}, None),
        ({"x": (0, 1), "y": (1, 0)}, None),
        ({"x": (1, 0), "y": (0, 1)}, 2),
        # 3 - sqrt(3) > 0: tuple order and the real order disagree here
        ({"x": (2, 1), "y": (3, -1)}, 3),
    ])
    def test_least_over_distinct_main_exponents(self, weights, d, m):
        spec = FieldSpec(5, ("u", "w")[:m], ("x", "y"))
        v = Valuation(spec, Monomial(weights, d))
        rng = random.Random(f"{weights}{m}")
        mains = {(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(6)}
        grounds = list(itertools.product(range(4), repeat=m))
        f = Polynomial(spec, {g + e: rng.randint(1, 4) for e in mains for g in grounds})
        assert len(f.terms) == len(mains) * len(grounds)

        def value(e):
            return tuple(weights["x"][i] * e[0] + weights["y"][i] * e[1] for i in range(2))

        per_term = [value(e[m:]) for e in f.terms]
        least = reduce(lambda a, b: b if _value_less(b, a, d) else a, per_term)
        assert v.value_of_poly(f) == least
        assert sorted(v.kind._term_values(f)) == sorted(value(e) for e in mains)


class TestDivisorialValues:
    def test_order_along_x(self):
        v = divisorial(5, "x")
        assert v.value_of_poly(parse_poly("x^3*y + x^4", v.spec)) == (3,)

    def test_unit(self):
        v = divisorial(5, "x")
        assert v.value_of_poly(parse_poly("1 + x", v.spec)) == (0,)

    def test_order_along_x_plus_y(self):
        v = divisorial(3, "x+y")
        f = parse_poly("(x+y)^2 * (x - y)", v.spec)
        assert v.value_of_poly(f) == (2,)

    def test_rational_function_negative_value(self):
        v = divisorial(5, "x")
        assert v.value_of(parse_ratfun("y/(x^2)", v.spec)) == (-2,)

    def test_caveat_flag(self):
        assert "IRREDUCIBILITY_ASSUMED" in divisorial(5).caveats


class TestSeriesValues:
    @pytest.mark.parametrize("p", [2, 3])
    def test_witness_values(self, p):
        v = series_factorial_gap(p)
        spec = v.spec
        assert v.value_of_poly(parse_poly("x", spec)) == (1,)
        assert v.value_of_poly(parse_poly("y", spec)) == (1,)
        assert v.value_of_poly(parse_poly("y - x", spec)) == (2,)
        assert v.value_of_poly(parse_poly("y - x - x^2", spec)) == (6,)

    def test_oracle_recheck(self):
        v = series_factorial_gap(2)
        for text in ("x", "y", "y - x", "y - x - x^2", "x*y + y^2"):
            assert series_recheck(v, parse_poly(text, v.spec)) == v.value_of_poly(
                parse_poly(text, v.spec)
            )

    def test_algebraic_control_agrees_with_substitution(self):
        v = series_algebraic_control(5)
        rng = random.Random(31)
        t = series_t(5)
        y_series = PowerSeries.from_polynomial_coeffs(5, {2: 1, 3: 1})
        from frobval.function_field import eval_poly_as_series
        from frobval.oracle import random_polynomial

        for _ in range(50):
            f = random_polynomial(v.spec, rng, max_terms=2, max_deg=3)
            # direct substitution oracle at a fixed large precision
            coeffs = eval_poly_as_series(f, {"x": t, "y": y_series}, 64)
            direct = min(coeffs, default=None)
            if direct is None:
                continue
            assert v.value_of_poly(f) == (direct,)

    def test_algebraic_relation_hits_cap(self):
        # y assigned x's own series: y - x vanishes identically
        spec = FieldSpec(2, (), ("x", "y"))
        v = Valuation(spec, SeriesRestriction({
            "x": series_t(2),
            "y": series_t(2),
        }, cap=64))
        with pytest.raises(FrobvalError) as exc:
            v.value_of_poly(parse_poly("y - x", spec))
        assert exc.value.code == "ORD_UNDETERMINED"

    def test_no_ord1_witness_rejected(self):
        spec = FieldSpec(2, (), ("x", "y"))
        t2 = PowerSeries.from_polynomial_coeffs(2, {2: 1})
        with pytest.raises(FrobvalError) as exc:
            Valuation(spec, SeriesRestriction({"x": t2, "y": t2}))
        assert exc.value.code == "NO_ORD1_WITNESS"

    def test_order_zero_rejected(self):
        spec = FieldSpec(2, (), ("x", "y"))
        unit = PowerSeries.from_polynomial_coeffs(2, {0: 1, 1: 1})
        with pytest.raises(FrobvalError) as exc:
            Valuation(spec, SeriesRestriction({
                "x": series_t(2), "y": unit,
            }))
        assert exc.value.code == "NO_ORD1_WITNESS"

    def test_caveat_flag(self):
        assert "TRANSCENDENCE_ASSUMED" in series_factorial_gap(2).caveats


class TestValueGroups:
    def test_irrational_monomial_rank2(self):
        g = irrational_monomial(5).value_group()
        assert g.rank == 2
        assert g.least_positive() is None

    def test_lex_rank2(self):
        g = lex_monomial(3).value_group()
        assert g.rank == 2
        assert g.least_positive() == (0, 1)

    def test_z_valued_kinds(self):
        for v in (divisorial(5), series_factorial_gap(2)):
            g = v.value_group()
            assert g.rank == 1
            assert g.least_positive() == (1,)
            # values are elements of the group, printed as integers
            value = v.value_of(parse_ratfun("x^3", v.spec))
            assert value == (3,) and v.format_value(value) == "3"


class TestResidueInvariants:
    # (s, t, f) with s the rational rank and f = [kappa:kappa^p] = p^(t+m)
    def test_irrational_monomial(self):
        r = classify(irrational_monomial(5))
        assert (r.s, r.t, r.f_deg) == (2, 0, 5**0)

    def test_gauss(self):
        v = gauss_valuation(5)
        r = classify(v)
        assert (r.s, r.t, r.f_deg) == (1, 1, 5**1)
        # the weight-zero kernel is generated by x*y^-1 (up to sign)
        ri = v.residue_invariants()
        assert "x" in ri.description and "y" in ri.description

    def test_lex(self):
        r = classify(lex_monomial(3))
        assert (r.s, r.t, r.f_deg) == (2, 0, 3**0)

    def test_divisorial(self):
        r = classify(divisorial(5))
        assert (r.s, r.t, r.f_deg) == (1, 1, 5**1)

    def test_series(self):
        r = classify(series_factorial_gap(2))
        assert (r.s, r.t, r.f_deg) == (1, 0, 2**0)

    def test_kernel_complements_rank_random(self):
        rng = random.Random(37)
        for _ in range(30):
            v = random_monomial_valuation(rng)
            ri = v.residue_invariants()
            assert v.value_group().rank + ri.t == v.spec.n


class TestFrobeniusRestriction:
    def test_arch_weights_scale(self):
        v = irrational_monomial(5)
        vp = frobenius_restriction(v)
        assert vp.kind.weights["x"] == (5, 0)
        assert vp.kind.weights["y"] == (0, 5)

    def test_lex_weights_scale(self):
        v = lex_monomial(3)
        vp = frobenius_restriction(v)
        assert vp.kind.weights["x1"] == (3, 0)
        assert vp.kind.weights["x2"] == (0, 3)

    def test_values_scale_by_p(self):
        rng = random.Random(41)
        from frobval.oracle import random_polynomial

        for i in range(31):
            v = mixed_sign_monomial(3) if i == 30 else random_monomial_valuation(rng, p=3)
            vp = frobenius_restriction(v)
            f = random_polynomial(v.spec, rng)
            a, b = v.value_of_poly(f), vp.value_of_poly(f)
            assert b == tuple(3 * x for x in a)

    def test_unsupported_kinds(self):
        with pytest.raises(FrobvalError) as exc:
            frobenius_restriction(divisorial(5))
        assert exc.value.code == "UNSUPPORTED_KIND"


class TestAxiomAudits:
    @pytest.mark.parametrize("make", [
        lambda: irrational_monomial(5),
        lambda: lex_monomial(3),
        lambda: gauss_valuation(2),
        lambda: divisorial(3, "x+y"),
        lambda: mixed_sign_monomial(5),
    ])
    def test_exact_kinds(self, make):
        report = axiom_audit(make(), seed=1, trials=200)
        assert report.passed, report.failures

    def test_series_kind(self):
        report = axiom_audit(
            series_factorial_gap(2), seed=1, trials=60, max_deg=2, max_terms=2
        )
        assert report.passed, report.failures

    def test_representative_independence(self):
        for v in (irrational_monomial(5), lex_monomial(3), divisorial(3)):
            report = representative_independence_audit(v, seed=2, trials=100)
            assert report.passed, report.failures

    def test_ground_triviality(self):
        spec = FieldSpec(3, ("u",), ("x", "y"))
        v = Valuation(spec, Monomial({"x": (1, 0), "y": (0, 1)}))
        report = axiom_audit(v, seed=3, trials=100)
        assert report.passed, report.failures


class TestConstruction:
    def test_weights_must_cover_main_vars(self):
        spec = FieldSpec(5, (), ("x", "y"))
        with pytest.raises(FrobvalError) as exc:
            Valuation(spec, Monomial.real({"x": qr(1, 0)}))
        assert exc.value.code == "WEIGHT_VARS_MISMATCH"

    def test_divisorial_requires_main_var(self):
        spec = FieldSpec(5, ("u",), ("x",))
        with pytest.raises(FrobvalError) as exc:
            Divisorial(parse_poly("u", spec))
        assert exc.value.code == "GROUND_DIVISOR"
        # a main variable of the valuation's own field, not of another one
        other = FieldSpec(5, (), ("x",))
        with pytest.raises(FrobvalError) as exc:
            Valuation(spec, Divisorial(parse_poly("x", other)))
        assert exc.value.code == "SPEC_MISMATCH"

    @pytest.mark.parametrize("p,g", [
        (5, "x^3"),             # v(x) = 0 yet v(x^3) = 1
        (5, "x*y"),
        (3, "x^3 + y^3"),       # (x + y)^3
        (2, "x^2 + u^2*y^2 + 1"),
        (5, "x*y + x"),
        (5, "u*x*y"),           # u times x*y: the content goes first
        (5, "(x + 1)^2"),       # gcd(g, g') = x + 1
        (7, "(y^2 + 1)^2*(y + 3)"),
        (3, "(x + 1)^3*(x + 2)"),  # (x + 1)^3 = x^3 + 1 has derivative 0
        (5, "u*(x + 2)^2"),
    ])
    def test_reducible_divisor_rejected(self, p, g):
        spec = FieldSpec(p, ("u",), ("x", "y"))
        with pytest.raises(FrobvalError) as exc:
            Divisorial(parse_poly(g, spec))
        assert exc.value.code == "REDUCIBLE_DIVISOR"

    @pytest.mark.parametrize("p,g,factor", [
        (5, "(x + 1)^2", "x + 1"),
        (5, "(y + 1)^3*(y + 2)", "y^2 + 2*y + 1"),
        (3, "(x + 1)^3*(x + 2)", "x^3 + 1"),
    ])
    def test_repeated_factor_is_named(self, p, g, factor):
        # the factor named is gcd(g, g'), monic
        spec = FieldSpec(p, (), ("x", "y"))
        with pytest.raises(FrobvalError) as exc:
            Divisorial(parse_poly(g, spec))
        assert exc.value.message.endswith(f"it shares the factor {factor} with its derivative")

    def test_repeated_factor_search_is_bounded_in_degree(self):
        # Euclid on dense lists is quadratic: above the degree limit a
        # repeated factor is not looked for, and the caveat stays
        from frobval.function_field import CONTENT_DEGREE_LIMIT

        spec = FieldSpec(5, (), ("x", "y"))
        g = "(x + 1)^2*(x^{} + 2)"
        with pytest.raises(FrobvalError) as exc:
            Divisorial(parse_poly(g.format(CONTENT_DEGREE_LIMIT - 2), spec))
        assert exc.value.code == "REDUCIBLE_DIVISOR"
        v = Valuation(spec, Divisorial(parse_poly(g.format(CONTENT_DEGREE_LIMIT - 1), spec)))
        assert "IRREDUCIBILITY_ASSUMED" in v.caveats

    # x^2 + 1 = (x + 2)(x - 2) is squarefree, and (x + y)^2 and (x + u)^2
    # are not polynomials in one main variable over F_p: none is refuted yet
    @pytest.mark.parametrize("g", ["x", "2*y", "x + u*y", "x + 3*y^2", "x + 1", "x^5 + y",
                                   "u*x", "x^2 + 1", "(x + y)^2", "(x + u)^2"])
    def test_unrefuted_divisor_keeps_caveat(self, g):
        spec = FieldSpec(5, ("u",), ("x", "y"))
        v = Valuation(spec, Divisorial(parse_poly(g, spec)))
        assert "IRREDUCIBILITY_ASSUMED" in v.caveats

    @pytest.mark.parametrize("make", [lex_monomial, divisorial, series_factorial_gap])
    @pytest.mark.parametrize("foreign,text", [
        (FieldSpec(5, ("u",), ("x", "y")), "u*x"),
        (FieldSpec(7, (), ("x", "y")), "x*y + 1"),
    ])
    def test_foreign_polynomial_refused(self, make, foreign, text):
        # every kind refuses a polynomial over another field, rather than
        # reading its exponents against its own variables or its own p
        v = make(5)
        for evaluate, arg in ((v.value_of_poly, parse_poly(text, foreign)),
                              (v.value_of, parse_ratfun(f"1/({text})", foreign))):
            with pytest.raises(FrobvalError) as exc:
                evaluate(arg)
            assert exc.value.code == "SPEC_MISMATCH"

    def test_series_forbids_ground_vars(self):
        spec = FieldSpec(2, ("u",), ("x",))
        with pytest.raises(FrobvalError) as exc:
            Valuation(spec, SeriesRestriction({"x": series_t(2)}))
        assert exc.value.code == "GROUND_VAR_IN_SERIES_CONTEXT"

    def test_unknown_kind_refused(self):
        spec = FieldSpec(5, (), ("x", "y"))
        with pytest.raises(FrobvalError) as exc:
            Valuation(spec, object())
        assert exc.value.code == "UNSUPPORTED_KIND"


class TestSharedKind:
    """One kind object backs a valuation over vars(x,y) and one over
    vars(y,x); each answers as a valuation built from a fresh kind, so what
    one reads in its own variable order never reaches the other."""

    KINDS = {
        "lex": lambda: Monomial({"x": (1,), "y": (3,)}),
        "real": lambda: Monomial({"x": (1, 0), "y": (2, 1)}, 2),
        "series": lambda: SeriesRestriction({
            "x": PowerSeries.from_polynomial_coeffs(5, {1: 2, 3: 1}),
            "y": PowerSeries.from_polynomial_coeffs(5, {2: 3, 4: 1}),
        }),
    }
    TEXTS = ("x", "y", "x*y^2", "x^2 + 4*y", "y^3 + x^5 + x*y", "x^2*y - 2*y^2")

    @staticmethod
    def answers(v):
        values = [v.value_of_poly(parse_poly(t, v.spec)) for t in TestSharedKind.TEXTS]
        return (values, [v.format_value(x) for x in values], v.kind.describe(),
                v.value_group(), v.residue_invariants())

    @pytest.mark.parametrize("make", KINDS.values(), ids=KINDS)
    def test_each_valuation_answers_as_with_a_fresh_kind(self, make):
        specs = (FieldSpec(5, (), ("x", "y")), FieldSpec(5, (), ("y", "x")))
        kind = make()
        shared = [Valuation(spec, kind) for spec in specs]
        for spec, v in zip(specs, shared):
            assert self.answers(v) == self.answers(Valuation(spec, make()))
        # in the other order too, after both have answered once
        for spec, v in reversed(list(zip(specs, shared))):
            assert self.answers(v) == self.answers(Valuation(spec, make()))

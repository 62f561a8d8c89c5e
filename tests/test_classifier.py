import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from frobval.classifier import (
    NO,
    UNKNOWN,
    YES,
    classify,
    in_Q,
    least_pure_exponent,
)
from frobval.function_field import FieldSpec, Polynomial, RationalFunction, parse_ratfun
from frobval.oracle import (
    frobenius_restriction,
    in_mp_e,
    least_pure_exponent_by_loop,
    report_json_obj,
)
from frobval.ordered_groups import order_sign
from frobval.valuations import Monomial, Valuation

from conftest import (
    assert_report_invariants,
    divisorial,
    gauss_valuation,
    irrational_monomial,
    lex_monomial,
    random_monomial_valuation,
    series_factorial_gap,
)


def rf(text, v):
    return parse_ratfun(text, v.spec)


class TestNumericInvariants:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_irrational_monomial(self, p):
        r = classify(irrational_monomial(p))
        assert (r.e, r.f_deg, r.K_Kp) == (p**2, 1, p**2)

    def test_gauss(self):
        r = classify(gauss_valuation(5))
        assert (r.e, r.f_deg) == (5, 5)

    def test_lex(self):
        r = classify(lex_monomial(3, n=3))
        assert (r.e, r.f_deg) == (27, 1)

    def test_divisorial_and_series(self):
        r = classify(divisorial(5))
        assert (r.e, r.f_deg) == (5, 5)
        r = classify(series_factorial_gap(2))
        assert (r.e, r.f_deg) == (2, 1)


class TestAbhyankar:
    def test_both_routes_agree_on_fixtures(self):
        for v in (
            irrational_monomial(5),
            gauss_valuation(3),
            lex_monomial(2),
            divisorial(5),
            series_factorial_gap(2),
        ):
            r = classify(v)
            assert r.abhyankar_geometric == r.abhyankar_numeric

    def test_routes_agree_random(self):
        rng = random.Random(43)
        for _ in range(50):
            r = classify(random_monomial_valuation(rng))
            assert r.abhyankar_geometric == r.abhyankar_numeric

    def test_series_not_abhyankar(self):
        r = classify(series_factorial_gap(2))
        assert not r.abhyankar_geometric and not r.abhyankar_numeric

    def test_monomial_always_abhyankar(self):
        assert classify(irrational_monomial(3)).abhyankar_geometric
        assert classify(lex_monomial(3)).abhyankar_geometric


class TestClassifyIrrationalMonomial:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_decision_table(self, p):
        r = classify(irrational_monomial(p))
        assert r.e == p**2 and r.f_deg == 1 and r.K_Kp == p**2
        assert r.abhyankar_geometric and r.abhyankar_numeric
        assert not r.divisorial and not r.noetherian and not r.m_principal
        assert r.f_pure.value == YES
        assert r.f_finite.value == NO
        assert r.frobenius_split.value == UNKNOWN
        assert r.f_pure_regular.value == NO
        assert r.split_f_regular.value == NO
        assert r.excellent.value == NO
        assert r.Q.equals_m and not r.Q.is_zero and not r.Q.V_mod_Q_is_DVR
        assert r.dim_V_mod_mp == 1
        assert_report_invariants(r)

    def test_index_obstruction_cited(self):
        r = classify(irrational_monomial(3))
        assert any("Erratum-Remark" in c for c in r.f_finite.reasons)


class TestClassifyLex:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_decision_table(self, p, n):
        r = classify(lex_monomial(p, n))
        assert r.e == p**n and r.f_deg == 1 and r.K_Kp == p**n
        assert not r.divisorial and not r.noetherian
        assert r.m_principal
        assert r.f_finite.value == NO
        assert any("[Gamma:pGamma] > p" in c for c in r.f_finite.reasons)
        assert r.frobenius_split.value == UNKNOWN
        assert not r.Q.equals_m and r.Q.V_mod_Q_is_DVR
        assert r.dim_V_mod_mp == p
        assert_report_invariants(r)


class TestClassifyDivisorial:
    @pytest.mark.parametrize("g", ["x", "x+y"])
    @pytest.mark.parametrize("p", [2, 5])
    def test_all_five_yes(self, p, g):
        r = classify(divisorial(p, g))
        assert r.divisorial and r.noetherian and r.m_principal
        for verdict in (r.f_pure, r.f_finite, r.frobenius_split,
                        r.f_pure_regular, r.split_f_regular, r.excellent):
            assert verdict.value == YES
        assert r.dim_V_mod_mp == p**2 == r.K_Kp
        assert r.Q.is_zero and r.Q.V_mod_Q_is_DVR
        assert "IRREDUCIBILITY_ASSUMED" in r.caveats
        assert_report_invariants(r)


class TestClassifySeries:
    @pytest.mark.parametrize("p", [2, 3])
    def test_decision_table(self, p):
        r = classify(series_factorial_gap(p))
        assert r.e == p and r.f_deg == 1 and r.K_Kp == p**2
        assert not r.abhyankar_geometric and not r.abhyankar_numeric
        assert not r.divisorial and r.noetherian and r.m_principal
        assert r.f_finite.value == NO
        assert r.frobenius_split.value == NO
        assert r.excellent.value == NO
        assert r.split_f_regular.value == NO
        assert r.f_pure_regular.value == YES
        assert r.Q.is_zero
        assert "TRANSCENDENCE_ASSUMED" in r.caveats
        assert_report_invariants(r)


class TestSplittingPrime:
    def test_dense_arch_Q_is_m(self):
        v = irrational_monomial(5)
        assert in_Q(v, rf("x", v))
        assert in_Q(v, rf("y", v))
        assert not in_Q(v, rf("1 + x", v))

    def test_lex_membership(self):
        v = lex_monomial(3)
        assert in_Q(v, rf("x1", v))
        assert not in_Q(v, rf("x2", v))
        assert least_pure_exponent(v, rf("x2", v)) == 1
        assert least_pure_exponent(v, rf("x1", v)) is None
        # F-pure along c exactly when some least pure exponent exists
        assert least_pure_exponent(v, rf("x2", v)) is not None
        assert least_pure_exponent(v, rf("x1", v)) is None

    def test_dvr_Q_is_zero(self):
        v = divisorial(5)
        assert not in_Q(v, rf("x", v))
        assert not in_Q(v, rf("x^100", v))
        assert least_pure_exponent(v, rf("x^7", v)) == 2
        # oracle: x^7 is in m^[p^e] iff 7 >= 5^e
        assert 7 >= 5**1 and 7 < 5**2

    def test_in_mp_e_examples(self):
        v = divisorial(5)
        assert in_mp_e(v, rf("x^5", v), 1)
        assert not in_mp_e(v, rf("x^4", v), 1)
        assert in_mp_e(v, rf("x^25", v), 2)
        assert not in_mp_e(v, rf("x^24", v), 2)

    def test_in_mp_e_antitone_in_e(self):
        rng = random.Random(47)
        from frobval.oracle import random_polynomial
        from frobval.function_field import RationalFunction

        for _ in range(50):
            v = random_monomial_valuation(rng, p=3)
            num = random_polynomial(v.spec, rng)
            den = random_polynomial(v.spec, rng)
            c = RationalFunction(num, den)
            members = [in_mp_e(v, c, e) for e in range(1, 5)]
            # once outside, stays outside
            for a, b in zip(members, members[1:]):
                assert a or not b
            if in_Q(v, c):
                assert all(members)

    def test_Q_complement_multiplicative(self):
        # the complement of a prime ideal is closed under multiplication
        rng = random.Random(53)
        from frobval.oracle import random_polynomial
        from frobval.function_field import RationalFunction

        for _ in range(200):
            v = random_monomial_valuation(rng, p=3)
            a = RationalFunction(
                random_polynomial(v.spec, rng),
                random_polynomial(v.spec, rng),
            )
            b = RationalFunction(
                random_polynomial(v.spec, rng),
                random_polynomial(v.spec, rng),
            )
            if not in_Q(v, a) and not in_Q(v, b):
                assert not in_Q(v, a * b)


@st.composite
def valuations_by_group(draw):
    """A valuation on F_p(x, y) whose value group is lex, real of rank 1,
    dense in R, or Z."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["lex", "real rank 1", "dense", "Z"]))
    spec = FieldSpec(p, (), ("x", "y"))
    if kind == "Z":
        return draw(st.sampled_from([divisorial, series_factorial_gap]))(p)
    if kind == "lex":
        dim = draw(st.integers(1, 3))
        column = st.tuples(*[st.integers(-3, 3)] * dim).filter(lambda w: order_sign(w) > 0)
        return Valuation(Monomial(spec, {"x": draw(column), "y": draw(column)}))
    column = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(
        lambda w: order_sign(w, 2) > 0
    )
    wx = draw(column)
    if kind == "real rank 1":
        # positive integer multiples of one positive weight
        q = draw(st.integers(1, 6))
        wy = tuple(q * a for a in wx)
        scale = draw(st.integers(1, 6))
        wx = tuple(scale * a for a in wx)
    else:
        wy = draw(column.filter(lambda w: w[0] * wx[1] != w[1] * wx[0]))
    return Valuation(Monomial(spec, {"x": wx, "y": wy}, 2))


class TestClosedFormAgainstLoop:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(valuations_by_group(), st.lists(st.integers(0, 10), min_size=4, max_size=4))
    def test_least_pure_exponent_matches_oracle(self, v, exps):
        a, b, a2, b2 = exps
        spec = v.spec
        c = RationalFunction(
            Polynomial(spec, {(a, b): 1}), Polynomial(spec, {(a2, b2): 1})
        )
        # every sampled value is below p^16 times the least positive element
        assert least_pure_exponent(v, c) == least_pure_exponent_by_loop(v, c, 16)


class TestDimVModMp:
    def test_matches_erratum_lemma(self):
        # m principal: p * [kappa:kappa^p]; otherwise [kappa:kappa^p]
        assert classify(irrational_monomial(5)).dim_V_mod_mp == 1
        assert classify(lex_monomial(3)).dim_V_mod_mp == 3
        assert classify(divisorial(5)).dim_V_mod_mp == 25
        assert classify(gauss_valuation(2)).dim_V_mod_mp == 4
        assert classify(series_factorial_gap(3)).dim_V_mod_mp == 3

    def test_erratum_lemma_dense_sampling(self):
        rng = random.Random(59)
        for _ in range(200):
            v = random_monomial_valuation(rng, p=3)
            r = classify(v)
            f = r.f_deg
            expected = 3 * f if v.kind.value_group().least_positive() is not None else f
            assert r.dim_V_mod_mp == expected


class TestReportInvariants:
    def test_random_reports(self):
        rng = random.Random(61)
        for _ in range(100):
            assert_report_invariants(classify(random_monomial_valuation(rng)))

    def test_frobenius_pair_invariance(self):
        # v and its Frobenius restriction v^p have order-isomorphic value
        # groups and the same residue field, so every structural field of
        # the report agrees; only the descriptive kind string differs
        rng = random.Random(67)
        for _ in range(30):
            v = random_monomial_valuation(rng)
            a = classify(v)
            b = classify(frobenius_restriction(v))
            assert a._replace(kind="") == b._replace(kind="")

    def test_verdict_checks_hold_under_optimization(self):
        # the value and the citations of a verdict, the series cross-check
        # and the kernel rank are checked by raises, not asserts, so
        # `python -O` keeps every check
        tests = pathlib.Path(__file__).resolve().parent
        path = os.pathsep.join(map(str, (tests.parent / "src", tests)))
        probe = (
            "from frobval.classifier import YES, TriVerdict\n"
            "for args in (('MAYBE', ('rule',)), (YES, ())):\n"
            "    try:\n"
            "        TriVerdict(*args)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
            "TriVerdict(YES, ('rule',))\n"
            "from frobval import oracle, valuations\n"
            "from conftest import gauss_valuation, series_factorial_gap\n"
            "from frobval.function_field import parse_poly\n"
            "v = series_factorial_gap(2)\n"
            "x = parse_poly('x', v.spec)\n"
            "oracle.series_recheck(v, x)\n"
            "oracle.dense_series_expansion = lambda f, a, n: [0, 0, 1] + [0] * (n - 2)\n"
            "hnf = valuations.hnf_rows\n"
            "valuations.hnf_rows = lambda rows: (hnf(rows)[0], [])\n"
            "for check in (lambda: oracle.series_recheck(v, x),\n"
            "              gauss_valuation(3).residue_invariants):\n"
            "    try:\n"
            "        check()\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
        )
        done = subprocess.run([sys.executable, "-O", "-c", probe],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == [
            "a verdict is YES, NO or UNKNOWN, not 'MAYBE'",
            "every verdict must cite at least one rule",
            "series order unstable under precision boost: (1,) vs 2",
            "kernel rank must complement the value-group rank",
        ]

    def test_json_shape(self):
        obj = report_json_obj(classify(irrational_monomial(5)))
        assert obj["schema"] == 1
        assert obj["f_finite"]["value"] == NO
        assert obj["f_finite"]["citations"] == sorted(obj["f_finite"]["citations"])
        assert obj["abhyankar"] == {"geometric": True, "numeric": True}


class TestErratumRegression:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_abhyankar_does_not_imply_f_finite(self, p):
        # the retracted implication fails on the irrational monomial example
        r = classify(irrational_monomial(p))
        assert r.abhyankar_geometric
        assert r.f_finite.value == NO

    def test_corrected_product_formula_direction(self):
        # e*f = [K:K^p] holds here yet the ring is not F-finite: the
        # converse of the corrected product formula fails without Noetherian
        r = classify(irrational_monomial(5))
        assert r.e * r.f_deg == r.K_Kp
        assert r.f_finite.value == NO

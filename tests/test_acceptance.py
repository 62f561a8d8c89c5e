"""Acceptance gate: the eight release criteria, one test each.

Each test is named test_criterion_<n>_<slug>; a terminal-summary hook in
conftest prints one pass/fail scoreboard line per criterion after the run.
"""

import json
import random

from frobval.classifier import classify, in_Q, least_pure_exponent
from frobval.cli import FIXTURE_SCRIPTS, run_script
from frobval.function_field import (
    PowerSeries,
    RationalFunction,
    eval_poly_as_series,
    parse_poly,
    parse_ratfun,
)
from frobval.oracle import (
    axiom_audit,
    coset_count_bruteforce,
    frobenius_restriction,
    in_mp_e,
    random_polynomial,
    series_recheck,
    smith_normal_form,
)

from conftest import (
    assert_report_invariants,
    divisorial,
    gauss_valuation,
    irrational_monomial,
    lex_monomial,
    random_lattice,
    random_monomial_valuation,
    series_algebraic_control,
    series_factorial_gap,
    series_t,
)


def test_criterion_1_irrational_monomial():
    for p in (2, 3, 5):
        r = classify(irrational_monomial(p))
        assert r.e == p**2
        assert r.f_deg == 1
        assert r.e * r.f_deg == r.K_Kp == p**2
        assert r.abhyankar_geometric and r.abhyankar_numeric
        assert r.f_finite.value == "NO"
        assert r.f_pure.value == "YES"
        assert r.f_pure_regular.value == "NO"
        assert r.frobenius_split.value == "UNKNOWN"
        assert r.excellent.value == "NO"
        assert r.Q.equals_m and not r.Q.is_zero
        assert r.dim_V_mod_mp == 1


def test_criterion_2_lex():
    for n in (2, 3):
        for p in (2, 3):
            v = lex_monomial(p, n)
            r = classify(v)
            assert r.e == p**n
            assert r.f_finite.value == "NO"
            assert any("[Gamma:pGamma] > p" in c for c in r.f_finite.reasons)
            assert r.m_principal
            first = parse_ratfun("x1", v.spec)
            last = parse_ratfun(f"x{n}", v.spec)
            assert in_Q(v, first)
            assert not in_Q(v, last)
            assert least_pure_exponent(v, last) == 1
            assert r.Q.V_mod_Q_is_DVR


def test_criterion_3_series():
    for p in (2, 3):
        v = series_factorial_gap(p)
        spec = v.spec
        assert v.value_of_poly(parse_poly("x", spec)) == (1,)
        assert v.value_of_poly(parse_poly("y", spec)) == (1,)
        assert v.value_of_poly(parse_poly("y - x", spec)) == (2,)
        assert v.value_of_poly(parse_poly("y - x - x^2", spec)) == (6,)
        r = classify(v)
        assert r.e == p and r.f_deg == 1
        assert r.e * r.f_deg == p != p**2 == r.K_Kp
        assert not r.abhyankar_geometric and not r.abhyankar_numeric
        assert r.f_finite.value == "NO"
        assert r.frobenius_split.value == "NO"
        assert r.excellent.value == "NO"
        assert r.split_f_regular.value == "NO"
        assert r.f_pure_regular.value == "YES"
        assert "TRANSCENDENCE_ASSUMED" in r.caveats


def test_criterion_4_divisorial():
    for p in (2, 3, 5):
        for g in ("x", "x+y"):
            v = divisorial(p, g)
            r = classify(v)
            assert v.kind.value_group().rank == 1
            assert v.kind.value_group().least_positive() == (1,)
            assert r.t == 1
            for name in ("f_finite", "frobenius_split", "excellent",
                         "f_pure_regular", "split_f_regular"):
                assert getattr(r, name).value == "YES"
            assert r.dim_V_mod_mp == p**2 == r.K_Kp


def test_criterion_5_property_suites():
    exact_kinds = [
        lambda p: irrational_monomial(p),
        lambda p: gauss_valuation(p),
        lambda p: lex_monomial(p),
        lambda p: divisorial(p, "x+y"),
    ]
    for seed in range(1, 6):
        for make in exact_kinds:
            report = axiom_audit(make(3), seed=seed, trials=200)
            assert report.passed, report.failures
        # the lazy-series kind samples smaller inputs: precision escalation
        # makes full-size trials disproportionately slow
        report = axiom_audit(
            series_factorial_gap(2), seed=seed, trials=25, max_deg=2, max_terms=2
        )
        assert report.passed, report.failures

    rng = random.Random(85)
    for i in range(1000):
        v = random_monomial_valuation(rng, p=3)
        r = classify(v)
        assert r.e * r.f_deg <= v.spec.field_p_degree()
        assert r.e <= 3**r.s
        assert r.f_deg <= 3**r.t * 3**v.spec.m
        if i < 50:
            assert r.abhyankar_geometric == r.abhyankar_numeric
        if i < 100:
            assert_report_invariants(r)

    # dense maximal ideal: every sampled element of m lies in m^[p]
    v = irrational_monomial(3)
    for _ in range(200):
        num = random_polynomial(v.spec, rng)
        c = RationalFunction(num, parse_poly("1", v.spec))
        val = v.value_of(c)
        if v.kind.value_group().sign(val) > 0:
            assert in_mp_e(v, c, 1)

    # the complement of Q is multiplicatively closed
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

    # classify is invariant under the Frobenius restriction
    for make in (lambda: irrational_monomial(3), lambda: gauss_valuation(3),
                 lambda: lex_monomial(3)):
        v = make()
        a = classify(v)
        b = classify(frobenius_restriction(v))
        assert a._replace(kind="") == b._replace(kind="")


def test_criterion_6_oracle_agreement():
    fixtures = [
        irrational_monomial(5), gauss_valuation(3), lex_monomial(3),
        divisorial(5), series_factorial_gap(2),
    ]
    for v in fixtures:
        g = v.kind.value_group()
        for p in (2, 3, 5):
            assert g.index_p(p) == coset_count_bruteforce(g, p)
    rng = random.Random(89)
    for _ in range(100):
        g = random_lattice(rng)
        p = rng.choice([2, 3])
        assert g.index_p(p) == coset_count_bruteforce(g, p)

    for _ in range(50):
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        inv = smith_normal_form(m)
        prod = 1
        for x in inv:
            prod *= x
        if det:
            assert prod == abs(det)

    v = series_factorial_gap(2)
    for text in ("x", "y", "y - x", "y - x - x^2"):
        f = parse_poly(text, v.spec)
        assert series_recheck(v, f) == v.value_of_poly(f)

    # control assignment with a closed form, checked by direct substitution
    v = series_algebraic_control(5)
    t = series_t(5)
    y_series = PowerSeries.from_polynomial_coeffs(5, {2: 1, 3: 1})
    for _ in range(30):
        f = random_polynomial(v.spec, rng, max_terms=2, max_deg=3)
        coeffs = eval_poly_as_series(f, {"x": t, "y": y_series}, 64)
        direct = min(coeffs, default=None)
        if direct is not None:
            assert v.value_of_poly(f) == (direct,)


def test_criterion_7_erratum_regression():
    # the retracted implication "Abhyankar implies F-finite" must fail on
    # the irrational monomial fixture; the suite asserts that failure
    for p in (2, 3, 5):
        r = classify(irrational_monomial(p))
        assert r.abhyankar_geometric and r.abhyankar_numeric
        retracted_claim_holds = r.f_finite.value == "YES"
        assert not retracted_claim_holds
        assert r.f_finite.value == "NO"


def test_criterion_8_cli():
    expectations = {
        "irrational-monomial": lambda objs: (
            objs[0]["value"] == "2 + 3*sqrt(2)"
            and objs[1]["e"] == 25
            and objs[1]["f_finite"]["value"] == "NO"
            and objs[1]["frobenius_split"]["value"] == "UNKNOWN"
        ),
        "lex": lambda objs: (
            objs[0]["e"] == 9
            and objs[1]["in_Q"] is True
            and objs[2]["in_Q"] is False
            and objs[3]["least_pure_exponent"] == 1
        ),
        "series-restriction": lambda objs: (
            [o["value"] for o in objs[:4]] == ["1", "1", "2", "6"]
            and objs[4]["f_pure_regular"]["value"] == "YES"
            and "TRANSCENDENCE_ASSUMED" in objs[4]["caveats"]
        ),
    }
    for name, script in FIXTURE_SCRIPTS.items():
        code1, out1 = run_script(script, fmt="json")
        code2, out2 = run_script(script, fmt="json")
        assert code1 == code2 == 0
        assert "\n".join(out1).encode() == "\n".join(out2).encode()
        objs = [json.loads(line) for line in out1]
        assert all(o["schema"] == 1 for o in objs)
        assert expectations[name](objs)

    rng = random.Random(97)
    tokens = [
        "field", "p=3", "vars(x,y)", "valuation", "v", "=", "monomial",
        "lex", "series", "divisorial", "{", "}", "x:", "1", "sqrt(2)",
        "->", "t", ",", "eval", "classify", "inQ", "report", "x^2", "@",
        # declarations that constructors reject
        "field p=4 vars(x)", "field p=3 vars(x,x)", "-1", "sqrt(4)", "(0,0)",
    ]
    domain_errors = set()
    for _ in range(1000):
        text = "\n".join(
            " ".join(rng.choices(tokens, k=rng.randint(1, 8)))
            for _ in range(rng.randint(1, 3))
        )
        fmt = rng.choice(["text", "json"])
        code, out = run_script(text, fmt=fmt)
        assert code in (0, 1, 2)
        assert isinstance(out, list)
        if code == 1:
            last = out[-1]
            domain_errors.add(
                json.loads(last)["error"] if fmt == "json"
                else last[last.index("[") + 1:last.index("]")]
            )
    assert domain_errors & {"P_NOT_PRIME", "DUPLICATE_VARIABLE"}

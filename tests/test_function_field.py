import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from frobval.errors import FrobvalError, ParseError
from frobval.function_field import (
    CONTENT_DEGREE_LIMIT,
    FieldSpec,
    Polynomial,
    PowerSeries,
    RationalFunction,
    _read_flat,
    _read_tokens,
    eval_poly_as_series,
    exact_divide,
    multiplicity,
    parse_poly,
    parse_ratfun,
    primitive_part,
    reducible_because,
)
from frobval.oracle import (
    power_by_squaring,
    prefix,
    random_ground_polynomial,
    random_polynomial,
)

from conftest import series_t


@pytest.fixture
def spec():
    return FieldSpec(5, (), ("x", "y"))


# what parse_poly reads over F_5(x, y): the terms, or the error's
# (code, message, details); a unary minus binds to its atom, so a '^'
# chain raises the sign too
READER_EDGE_CASES = [
    ("x*-y^3", {(1, 3): 4}),
    ("--x^3", {(3, 0): 1}),
    ("-3^2*x", {(1, 0): 1}),
    ("x*-(y+1)^2", {(1, 2): 1, (1, 1): 2, (1, 0): 1}),
    ("(x)^2^3", {(6, 0): 1}),
    ("(-x)^3", {(3, 0): 4}),
    ("(x-x)^0", {(0, 0): 1}),
    ("0^0", {(0, 0): 1}),
    ("(2*x*y)^5", {(5, 5): 2}),
    ("(2*x*y)^3", {(3, 3): 3}),
    ("x^", ("PARSE_ERROR", "expected integer, got end of input",
            {"position": 2, "expected": "integer"})),
    ("x*", ("PARSE_ERROR", "expected identifier or integer or '(', got end of input",
            {"position": 2, "expected": "identifier, integer, '('"})),
    ("(x", ("PARSE_ERROR", "expected ')', got end of input",
            {"position": 2, "expected": "')'"})),
    ("x)", ("PARSE_ERROR", "expected end of input, got ')'",
            {"position": 1, "expected": "end of input"})),
    ("-@", ("PARSE_ERROR", "expected identifier or integer or '(', got '@'",
            {"position": 1, "expected": "identifier, integer, '('"})),
    ("x*-", ("PARSE_ERROR", "expected identifier or integer or '(', got end of input",
            {"position": 3, "expected": "identifier, integer, '('"})),
    ("z^2", ("UNKNOWN_VARIABLE", "unknown variable 'z'", {})),
    ("(" * 100 + "x" + ")" * 100, {(1, 0): 1}),
    ("(" * 101 + "x" + ")" * 101,
     ("NESTING_TOO_DEEP", "brackets nested more than 100 deep (the nesting limit)", {})),
]

# over F_5(u)(x, y, z): texts that parse_ratfun reads without tokens (two of
# them to a zero denominator), and texts it hands to the token reader
FLAT_TEXTS = [
    "+x", "-x - y", "x ^ 2", "3^2*x", "0^0*x", "x^02", "x/-y", "x+y/z", "x/0", "0/0",
    "5*x + 10*u*y - 15", "u\t-\x1fx\u00a0*\u00a0y^3 / 7*u^0*z", "x*x^2*2*x*7 - 4*x^4",
    "+".join(["x"] * 501),
]
HANDOVER_TEXTS = [
    "(x + y)^2", "x/(y)", "2 3", "x y", "x^2 3", "1" * 1001, "x^" + "1" * 1001,
    "x/y/x", "x*-y", "--x", "x - -y", "x**2", "x+", "/x", "x/", "", "x^2^3", "x^",
    "x^-1", "x^²", "x^٣", "x²", "٣", "w", "xy", "x)", "x->y", "x@y",
]
# pieces of the texts of the seeded differential test
TEXT_PIECES = ["x", "y", "z", "u", "w", "xy", "0", "2", "5", "07", "+", "-", "*", "^", "/",
               "(", ")", " ", "\t", "\x1f", "\u00a0", "\n", "²", "٣"]


def read_outcome(read, text):
    """What `read` gives on `text` over F_5(u)(x, y, z): None, the terms of
    the numerator and the denominator in order, or the error's (code,
    message, details)."""
    try:
        r = read(text, FieldSpec(5, ("u",), ("x", "y", "z")))
    except FrobvalError as exc:
        return exc.code, exc.message, exc.details
    return r and (list(r.num.terms.items()), list(r.den.terms.items()))


def text_id(text):
    return text if len(text) < 24 else f"{text[:4]}... ({len(text)} chars)"


class TestFlatReader:
    """parse_ratfun, which reads flat texts without tokens, against the token
    reader called directly."""

    @pytest.mark.parametrize("text", FLAT_TEXTS + HANDOVER_TEXTS, ids=text_id)
    def test_same_fraction_or_error(self, text):
        assert read_outcome(parse_ratfun, text) == read_outcome(_read_tokens, text)

    @pytest.mark.parametrize("text", FLAT_TEXTS, ids=text_id)
    def test_reads_flat_texts_itself(self, text):
        assert read_outcome(_read_flat, text) == read_outcome(_read_tokens, text)

    @pytest.mark.parametrize("text", HANDOVER_TEXTS, ids=text_id)
    def test_hands_over(self, text):
        assert read_outcome(_read_flat, text) is None

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(TEXT_PIECES), max_size=12).map("".join))
    def test_seeded_texts(self, text):
        assert read_outcome(parse_ratfun, text) == read_outcome(_read_tokens, text)


class TestFieldSpec:
    def test_degrees(self):
        s = FieldSpec(5, (), ("x", "y"))
        assert s.field_p_degree() == 25
        assert s.p**s.m == 1
        s2 = FieldSpec(2, ("u",), ("x",))
        assert s2.field_p_degree() == 4
        assert s2.p**s2.m == 2

    def test_no_main_vars_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            FieldSpec(5, ("u",), ())
        assert exc.value.code == "NO_MAIN_VARIABLE"

    def test_nonprime_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            FieldSpec(6, (), ("x",))
        assert exc.value.code == "P_NOT_PRIME"

    def test_duplicate_names_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            FieldSpec(5, ("x",), ("x", "y"))
        assert exc.value.code == "DUPLICATE_VARIABLE"


class TestParser:
    def test_direct_translation(self, spec):
        f = parse_poly("x^2*y + 3", spec)
        assert f.terms == {(2, 1): 1, (0, 0): 3}

    def test_freshman_dream(self):
        spec = FieldSpec(2, (), ("x", "y"))
        f = parse_poly("(x+y)^2", spec)
        # expansion oracle: binomial coefficients mod 2
        expected = {}
        for k in range(3):
            c = comb(2, k) % 2
            if c:
                expected[(2 - k, k)] = c
        assert f.terms == expected == {(2, 0): 1, (0, 2): 1}

    def test_zero_denominator(self, spec):
        with pytest.raises(FrobvalError) as exc:
            parse_ratfun("1/0", spec)
        assert exc.value.code == "ZERO_DENOMINATOR"

    def test_unknown_variable(self, spec):
        with pytest.raises(FrobvalError) as exc:
            parse_poly("x + z", spec)
        assert exc.value.code == "UNKNOWN_VARIABLE"

    def test_parse_error_has_position(self, spec):
        with pytest.raises(ParseError) as exc:
            parse_poly("x + + @", spec)
        assert exc.value.details["position"] is not None

    def test_top_level_division(self, spec):
        r = parse_ratfun("(x+y)^3/(x)", spec)
        assert r.den == parse_poly("x", spec)

    def test_parse_print_round_trip(self, spec):
        rng = random.Random(3)
        for _ in range(50):
            f = random_polynomial(spec, rng)
            assert parse_poly(str(f), spec) == f

    @pytest.mark.parametrize("text,expected", READER_EDGE_CASES,
                             ids=[t if len(t) < 20 else f"{len(t)} chars" for t, _ in READER_EDGE_CASES])
    def test_reader_edge_case(self, spec, text, expected):
        try:
            got = parse_poly(text, spec).terms
        except FrobvalError as exc:
            got = (exc.code, exc.message, exc.details)
        assert got == expected


class TestRingArithmetic:
    def test_difference_of_squares(self, spec):
        x, y = parse_poly("x", spec), parse_poly("y", spec)
        assert (x + y) * (x - y) == parse_poly("x^2 - y^2", spec)

    def test_additive_identity(self, spec):
        f = parse_poly("x^2*y + 3", spec)
        assert f + Polynomial(spec, {}) == f

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_on_sums(self, p):
        spec = FieldSpec(p, (), ("x", "y"))
        f = parse_poly(f"(x+y)^{p}", spec)
        # expansion oracle: comb(p, k) = 0 mod p for 0 < k < p
        assert all(comb(p, k) % p == 0 for k in range(1, p))
        assert f == parse_poly(f"x^{p} + y^{p}", spec)

    def test_spec_mismatch(self, spec):
        other = FieldSpec(3, (), ("x", "y"))
        with pytest.raises(FrobvalError) as exc:
            parse_poly("x", spec) + parse_poly("x", other)
        assert exc.value.code == "SPEC_MISMATCH"

    def test_ring_axioms_random(self, spec):
        rng = random.Random(5)
        for _ in range(500):
            # each operand is zero one time in four
            f, g, h = (
                random_polynomial(spec, rng) if rng.randint(0, 3) else Polynomial(spec, {})
                for _ in range(3)
            )
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)
            p_times = Polynomial(spec, {})
            for _ in range(spec.p):
                p_times = p_times + f
            assert p_times.is_zero()


class TestExactDivide:
    def test_monomial_divisor(self, spec):
        f = parse_poly("x^2*y + x^3", spec)
        q = exact_divide(f, parse_poly("x", spec))
        assert q == parse_poly("x*y + x^2", spec)

    def test_non_divisible(self, spec):
        assert exact_divide(parse_poly("x+y", spec), parse_poly("x", spec)) is None

    def test_power_of_binomial(self, spec):
        f = parse_poly("(x+y)^3", spec)
        q = exact_divide(f, parse_poly("x+y", spec))
        # re-expansion oracle
        assert q * parse_poly("x+y", spec) == f
        assert q == parse_poly("(x+y)^2", spec)

    def test_zero_divisor_rejected(self, spec):
        with pytest.raises(FrobvalError) as exc:
            exact_divide(parse_poly("x", spec), Polynomial(spec, {}))
        assert exc.value.code == "DIVISION_BY_ZERO"

    def test_product_round_trip_random(self, spec):
        rng = random.Random(9)
        for _ in range(200):
            f = random_polynomial(spec, rng)
            g = random_polynomial(spec, rng)
            assert exact_divide(f * g, g) == f


class TestRationalFunction:
    def test_cross_multiplication_equality(self, spec):
        a = parse_ratfun("x/y", spec)
        b = parse_ratfun("(x*y)/(y^2)", spec)
        assert a == b

    def test_zero_denominator(self, spec):
        with pytest.raises(FrobvalError) as exc:
            RationalFunction(parse_poly("x", spec), Polynomial(spec, {}))
        assert exc.value.code == "ZERO_DENOMINATOR"


class TestPowerSeries:
    def test_ord_of_polynomial_series(self):
        s = PowerSeries.from_polynomial_coeffs(5, {3: 1, 5: 1})
        assert s.order == 3

    def test_zero_rule_undetermined(self):
        assert PowerSeries(5, lambda: iter(())).order is None

    def test_factorial_gap_minus_t(self):
        # 1!, 2!, 3! = 1, 2, 6, so the gap series minus t starts at t^2
        p = 2
        fg = PowerSeries.factorial_gap(p)

        def minus_t():
            for i, c in fg.terms():
                if c := (c - (i == 1)) % p:
                    yield i, c

        s = PowerSeries(p, minus_t)
        assert s.order == 2
        assert prefix(fg, 8) == [0, 1, 1, 0, 0, 0, 1, 0]

    def test_factorial_gap_prefix_reads_its_terms(self):
        # 1!, ..., 7! = 5040 lie below 8192, and 8! = 40320 does not
        fg = PowerSeries.factorial_gap(3)
        sparse = fg.sparse_prefix(8192)
        assert sparse == dict.fromkeys([1, 2, 6, 24, 120, 720, 5040], 1)
        assert prefix(fg, 8192) == [sparse.get(i, 0) for i in range(8192)]

    def test_memo_stability(self):
        # evaluation reads the memoized powers and never changes them; the
        # one-term t answers every power in closed form and memoizes none
        spec = FieldSpec(3, (), ("x", "y"))
        assign = {"x": series_t(3), "y": PowerSeries.factorial_gap(3)}
        texts = ("y - x", "y^2 - x^2 - x*y", "x^3*y^4 + y^5", "y^10 - x^2")
        for text in texts:
            eval_poly_as_series(parse_poly(text, spec), assign, 40)
        memos = {name: {key: dict(power) for key, power in s._power_memo.items()}
                 for name, s in assign.items()}
        assert memos["y"]
        for n in (40, 12, 80):
            for text in texts:
                eval_poly_as_series(parse_poly(text, spec), assign, n)
        for name, memo in memos.items():
            kept = assign[name]._power_memo
            assert {key: kept[key] for key in memo} == memo
        t = assign["x"]
        assert t.monomial == (1, 1) and t._power_memo == {}
        assert [t.power(k, 12) for k in range(14)] == [{k: 1} for k in range(12)] + [{}, {}]

    @pytest.mark.parametrize("s, fields", [
        (PowerSeries(5, lambda: iter(())), (None, None, None)),
        (PowerSeries(5, lambda: iter([(3, 2)])), (3, 2, (3, 2))),
        (PowerSeries.from_polynomial_coeffs(5, {1: 1, 3: 2}), (1, 1, None)),
        (PowerSeries.factorial_gap(5), (1, 1, None)),
    ], ids=["zero", "one-term", "two-term", "factorial_gap"])
    def test_first_terms_are_read_when_built(self, s, fields):
        assert (s.order, s.lead, s.monomial) == fields

    def test_hand_built_one_term_series_is_raised_in_closed_form(self):
        s = PowerSeries(5, lambda: iter([(3, 2)]))
        poly = PowerSeries.from_polynomial_coeffs(5, {3: 2})
        for k in range(16):
            for n in (3 * k - 1, 3 * k, 3 * k + 1):
                assert s.power(k, n) == poly.power(k, n)
        assert s._power_memo == {}

    @staticmethod
    def count_prefix_reads(monkeypatch):
        reads = []
        read = PowerSeries.sparse_prefix

        def counted(self, n):
            reads.append(n)
            return read(self, n)

        monkeypatch.setattr(PowerSeries, "sparse_prefix", counted)
        return reads

    @pytest.mark.parametrize("s", [PowerSeries.from_polynomial_coeffs(5, {2: 1, 3: 2}),
                                   PowerSeries.factorial_gap(5)], ids=["t^2 + 2t^3", "gap"])
    def test_power_beyond_the_truncation_reads_nothing(self, s, monkeypatch):
        reads = self.count_prefix_reads(monkeypatch)
        for k in (1, 2, 4, 5, 7, 26):
            for n in (k * s.order, k * s.order - 1, 0):
                assert s.power(k, n) == {}
        assert reads == [] and s._power_memo == {}

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_powers_below_p_read_only_their_first_power(self, p, monkeypatch):
        reads = self.count_prefix_reads(monkeypatch)
        for k in range(2, p):
            for n in (k + 1, 40, 200):
                s = PowerSeries.factorial_gap(p)
                reads.clear()
                s.power(k, n)
                assert reads == [n] and (1, n) in s._power_memo


class TestEvalAsSeries:
    def test_factorial_gap_difference(self):
        spec = FieldSpec(2, (), ("x", "y"))
        f = parse_poly("y - x", spec)
        assign = {"x": series_t(2), "y": PowerSeries.factorial_gap(2)}
        coeffs = eval_poly_as_series(f, assign, 8)
        assert coeffs == {2: 1, 6: 1}

    def test_identity_assignment(self):
        spec = FieldSpec(3, (), ("x",))
        coeffs = eval_poly_as_series(
            parse_poly("x", spec), {"x": series_t(3)}, 4
        )
        assert coeffs == {1: 1}

    def test_square_by_oracle(self):
        spec = FieldSpec(5, (), ("y",))
        s = PowerSeries.from_polynomial_coeffs(5, {1: 1, 2: 1})  # t + t^2
        coeffs = eval_poly_as_series(parse_poly("y^2", spec), {"y": s}, 5)
        # squaring oracle: (t + t^2)^2 = t^2 + 2t^3 + t^4
        assert coeffs == {2: 1, 3: 2, 4: 1}

    def test_multiplicativity_up_to_truncation(self):
        spec = FieldSpec(3, (), ("x", "y"))
        assign = {"x": series_t(3), "y": PowerSeries.factorial_gap(3)}
        rng = random.Random(21)
        n = 12
        for _ in range(200):
            f = random_polynomial(spec, rng, max_terms=2, max_deg=2)
            g = random_polynomial(spec, rng, max_terms=2, max_deg=2)
            cf = eval_poly_as_series(f, assign, n)
            cg = eval_poly_as_series(g, assign, n)
            cfg = eval_poly_as_series(f * g, assign, n)
            conv = {}
            for i, a in cf.items():
                for j, b in cg.items():
                    if i + j <= n:
                        conv[i + j] = (conv.get(i + j, 0) + a * b) % 3
            assert cfg == {k: c for k, c in conv.items() if c}

    def test_prefix_consistency(self):
        spec = FieldSpec(2, (), ("x", "y"))
        assign = {"x": series_t(2), "y": PowerSeries.factorial_gap(2)}
        f = parse_poly("y^2 - x^2 - x*y", spec)
        long = eval_poly_as_series(f, assign, 32)
        short = eval_poly_as_series(f, assign, 8)
        assert {i: c for i, c in long.items() if i <= 8} == short


class TestFrobeniusDigits:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_is_power(self, p):
        spec = FieldSpec(p, ("u",), ("x", "y"))
        g = parse_poly("x + 2*u*y^2 + 1", spec)
        for q in (1, p, p * p):
            assert g.frobenius(q) == g**q

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.data())
    def test_one_term_power_against_squaring(self, data):
        # c*m raised in closed form: c^k mod p, and m with its exponents
        # times k, with or without ground variables
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
        ground = ("u", "w")[: data.draw(st.integers(0, 2))]
        spec = FieldSpec(p, ground, ("x", "y"))
        e = tuple(data.draw(st.integers(0, 3)) for _ in range(spec.nvars))
        f = Polynomial(spec, {e: data.draw(st.integers(1, p - 1))})
        k = data.draw(st.sampled_from([0, 1, p - 1, p, p + 1]) | st.integers(2, 10**40))
        assert f**k == power_by_squaring(f, k)

    @pytest.mark.parametrize("text", ["x + y", "3*x", "0", "1"])
    def test_negative_power_is_refused(self, spec, text):
        with pytest.raises(ValueError):
            parse_poly(text, spec) ** -1

    def test_exact_divide_zero_dividend(self, spec):
        assert exact_divide(Polynomial(spec, {}), parse_poly("x+y", spec)).is_zero()

    def test_multiplicity_digits(self, spec):
        g = parse_poly("x + 2*y^3", spec)
        for k in (0, 1, 4, 5, 24, 25, 26, 130):
            assert multiplicity(g**k * parse_poly("x - y", spec), g) == k

    def test_multiplicity_divides_once_when_g_does_not_divide(self, spec, monkeypatch):
        import frobval.function_field as ff

        calls = []
        divide = ff._divide_packed
        monkeypatch.setattr(ff, "_divide_packed", lambda *a: calls.append(a) or divide(*a))
        assert multiplicity(parse_poly("(x + y)^30 + x", spec), parse_poly("x + y", spec)) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_primitive_part_divides_out_the_ground_content(self, p):
        # g has the constant coefficient 1 at x^9*y^9, so it is primitive,
        # and the primitive part of h*g for h in F_p[u] is g up to a constant
        spec = FieldSpec(p, ("u",), ("x", "y"))
        rng = random.Random(p)
        top = Polynomial(spec, {(0, 9, 9): 1})
        for _ in range(30):
            g = random_polynomial(spec, rng) + top
            h = random_ground_polynomial(spec, rng, max_deg=3)
            q = primitive_part(h * g)
            assert any(q == g * Polynomial.constant(spec, c) for c in range(1, p))
        # no constant coefficient: the content (u + 1) comes from Euclid
        f = parse_poly("(u+1)^2*x + u*(u+1)", spec)
        assert primitive_part(f) == parse_poly("(u+1)*x + u", spec)

    def test_multiplicity_needs_nonconstant_g(self, spec):
        with pytest.raises(ValueError):
            multiplicity(parse_poly("x", spec), Polynomial.constant(spec, 3))

    @pytest.mark.parametrize("coeffs", [{0: 1, 1: 1}, {1: 2}], ids=["1 + t", "2*t"])
    def test_negative_series_power_is_refused(self, coeffs):
        # 1 + t used to recurse without end, and the one-term 2*t to answer
        # the term 3*t^-1
        with pytest.raises(ValueError):
            PowerSeries.from_polynomial_coeffs(5, coeffs).power(-1, 10)

    def test_power_beyond_precision_is_constant_term(self):
        # digits with p^j >= n contribute only the constant term
        s = PowerSeries.from_polynomial_coeffs(3, {0: 2, 1: 1})  # 2 + t
        assert s.power(3**5, 4) == {0: 2}  # 2 + t^243
        assert s.power(3**5 + 1, 4) == {0: 1, 1: 2}  # (2 + t^243)(2 + t)


class TestReducibleBecause:
    @pytest.mark.parametrize("p,text,why", [
        (5, "x^5 + y^5", "is a p-th power"),
        (5, "x*y + x", "is reducible: x divides every term"),
        (5, "(x + 1)^2", "is reducible: it shares the factor x + 1 with its derivative"),
    ])
    def test_one_case_per_reason(self, p, text, why):
        assert reducible_because(parse_poly(text, FieldSpec(p, ("u",), ("x", "y")))) == why

    @pytest.mark.parametrize("text", [
        "x + u*y",
        "x^2 + 1",     # (x + 2)(x + 3) at p = 5, squarefree, so not refuted
        "(x + y)^2",   # two main variables: no gcd is taken
    ])
    def test_no_reason(self, text):
        assert reducible_because(parse_poly(text, FieldSpec(5, ("u",), ("x", "y")))) is None

    def test_degree_limit(self):
        # Euclid on dense lists is quadratic: above the limit a repeated
        # factor is not looked for
        spec = FieldSpec(5, (), ("x",))
        g = "(x + 1)^2*(x^{} + 2)"
        at = reducible_because(parse_poly(g.format(CONTENT_DEGREE_LIMIT - 2), spec))
        assert at.startswith("is reducible: it shares the factor")
        assert reducible_because(parse_poly(g.format(CONTENT_DEGREE_LIMIT - 1), spec)) is None

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_square_factor_is_always_refuted(self, p):
        # g = h1*h2^2 in one variable: h2 divides gcd(g, g') unless g' = 0,
        # when g is a p-th power; a named factor is that gcd.  Each h has a
        # constant term, so x divides no term of g and Euclid decides
        spec = FieldSpec(p, (), ("x",))
        rng = random.Random(p)
        for _ in range(100):
            h1, h2 = (Polynomial(spec, {**random_polynomial(spec, rng, max_deg=4).terms,
                                        (0,): rng.randint(1, p - 1), (rng.randint(1, 4),): 1})
                      for _ in range(2))
            why = reducible_because(h1 * h2**2)
            assert why is not None
            if why.startswith(shares := "is reducible: it shares the factor "):
                factor = parse_poly(why[len(shares):].removesuffix(" with its derivative"), spec)
                assert exact_divide(factor, h2) is not None

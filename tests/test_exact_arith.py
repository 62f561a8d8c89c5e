from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from frobval.errors import FrobvalError, ParseError
from frobval.exact_arith import (
    TRIAL_DIVISION_LIMIT,
    QuadraticReal,
    format_quadratic,
    is_prime,
    is_square_free,
    parse_quadratic,
    quadratic_sign,
)
from frobval.function_field import FieldSpec
from frobval.oracle import approx
from frobval.valuations import Monomial


def qr(a, b, d=2):
    return QuadraticReal(Fraction(a), Fraction(b), d)


def compare(x, y):
    """-1, 0 or 1 as x <, = or > y: the sign of x - y, as the real-embedding
    order decides it on value vectors."""
    assert x.d == y.d
    return quadratic_sign(x.a - y.a, x.b - y.b, x.d)


class TestSign:
    def test_zero(self):
        assert qr(0, 0).sign() == 0

    def test_positive_by_integer_comparison(self):
        # 3 - 2*sqrt(2): 9 > 8
        assert 3**2 > 2**2 * 2
        assert qr(3, -2).sign() == 1

    def test_negative_by_integer_comparison(self):
        # 1 - sqrt(2): 1 < 2
        assert 1 < 2
        assert qr(1, -1).sign() == -1

    def test_both_nonnegative(self):
        assert qr(1, 1).sign() == 1
        assert qr(0, 3).sign() == 1

    def test_both_nonpositive(self):
        assert qr(-1, -1).sign() == -1

    def test_negation_flips_sign(self):
        for x in [qr(3, -2), qr(1, -1), qr(0, 1), qr(-5, 7)]:
            assert x.sign() == -qr(-x.a, -x.b).sign()


class TestCompare:
    def test_one_below_sqrt2(self):
        assert 1**2 < 2
        assert compare(qr(1, 0), qr(0, 1)) < 0

    def test_reflexive(self):
        x = qr(3, 5)
        assert compare(x, x) == 0

    def test_two_sqrt2_above_two(self):
        assert 2**2 * 2 > 2**2
        assert compare(qr(0, 2), qr(2, 0)) > 0

    def test_mixed_radicand_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            parse_quadratic("1 + sqrt(2) - 1 - sqrt(3)")
        assert exc.value.code == "MIXED_RADICAND"


class TestArithmetic:
    """Weights are summed while they are read and scaled to integer vectors
    by Monomial.real, so sums and scalings are checked on those paths."""

    def test_cancellation(self):
        assert parse_quadratic("1 + sqrt(2) + 2 - sqrt(2)") == qr(3, 0)

    def test_scale(self):
        m = Monomial.real(FieldSpec(5, (), ("x",)), {"x": parse_quadratic("1/3 + 1/3*sqrt(2)")})
        assert (m.weights["x"], m.denom) == ((1, 1), 3)

    def test_identity(self):
        assert parse_quadratic("1 + 2*sqrt(2) + 0 + 0*sqrt(2)") == qr(1, 2)

    def test_mixed_radicand_add_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            parse_quadratic("1 + sqrt(2) + 1 + sqrt(3)")
        assert exc.value.code == "MIXED_RADICAND"


def test_square_free_validation():
    with pytest.raises(FrobvalError) as exc:
        parse_quadratic("1 + sqrt(4)")
    assert exc.value.code == "BAD_RADICAND"
    with pytest.raises(FrobvalError) as exc:
        parse_quadratic("1 + sqrt(12)")
    assert exc.value.code == "BAD_RADICAND"
    assert is_square_free(2) and is_square_free(6) and not is_square_free(18)


def test_trial_division_is_bounded():
    # the largest prime below 10^9 is still decided; above the limit each
    # test refuses before dividing at all
    assert is_prime(999999937) and not is_prime(TRIAL_DIVISION_LIMIT)
    assert not is_square_free(TRIAL_DIVISION_LIMIT)
    with pytest.raises(FrobvalError) as exc:
        is_prime(TRIAL_DIVISION_LIMIT + 7)
    assert exc.value.code == "P_TOO_LARGE"
    with pytest.raises(FrobvalError) as exc:
        is_square_free(TRIAL_DIVISION_LIMIT + 7)
    assert exc.value.code == "RADICAND_TOO_LARGE"


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
qr_values = st.builds(lambda a, b: qr(a, b), rationals, rationals)


@given(qr_values, qr_values, qr_values)
def test_total_order(x, y, z):
    cxy, cyx = compare(x, y), compare(y, x)
    assert cxy == -cyx  # antisymmetry
    if cxy <= 0 and compare(y, z) <= 0:
        assert compare(x, z) <= 0  # transitivity


@given(qr_values)
def test_sign_matches_64bit_approximation(x):
    near = approx(x, 64)
    # the approximation is within 2^-60 of the true value at these sizes
    if near > Fraction(1, 2**40):
        assert x.sign() == 1
    elif near < -Fraction(1, 2**40):
        assert x.sign() == -1


@given(qr_values)
def test_integer_sign_after_clearing_denominators(x):
    # the real-embedding order signs integer pairs (a*den, b*den)
    den = lcm(x.a.denominator, x.b.denominator)
    assert quadratic_sign(int(x.a * den), int(x.b * den), x.d) == x.sign()


@given(qr_values, qr_values)
def test_sum_sign_respects_interval_bounds(x, y):
    s = qr(x.a + y.a, x.b + y.b)
    lo = approx(x, 64) + approx(y, 64) - Fraction(1, 2**40)
    hi = approx(x, 64) + approx(y, 64) + Fraction(1, 2**40)
    if lo > 0:
        assert s.sign() == 1
    if hi < 0:
        assert s.sign() == -1


@given(rationals, rationals, rationals, rationals)
def test_rational_canonical_form_stable(a, b, c, d):
    for q in (a + b, a * b, a - c, (a + b) * (c - d)):
        assert q.denominator > 0
        assert gcd(abs(q.numerator), q.denominator) == 1


class TestParsePrint:
    @pytest.mark.parametrize("text,expected", [
        ("3/2", qr(Fraction(3, 2), 0)),
        ("1 + 2*sqrt(2)", qr(1, 2)),
        ("sqrt(2)", qr(0, 1)),
        ("2 - sqrt(2)", qr(2, -1)),
        ("-1/2 + 3/4*sqrt(2)", qr(Fraction(-1, 2), Fraction(3, 4))),
    ])
    def test_examples(self, text, expected):
        assert parse_quadratic(text) == expected

    @given(qr_values)
    def test_round_trip(self, x):
        assert parse_quadratic(format_quadratic(*x)) == x

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_quadratic("1 + & 2")

    def test_mixed_radicand_in_text(self):
        with pytest.raises(FrobvalError) as exc:
            parse_quadratic("sqrt(2) + sqrt(3)")
        assert exc.value.code == "MIXED_RADICAND"

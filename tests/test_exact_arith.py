from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from frobval.errors import (
    BadRadicandError,
    MixedRadicandError,
    ParseError,
    PrimeTooLargeError,
    RadicandTooLargeError,
)
from frobval.exact_arith import (
    TRIAL_DIVISION_LIMIT,
    QuadraticReal,
    is_prime,
    is_square_free,
    parse_quadratic,
    quadratic_sign,
)


def qr(a, b, d=2):
    return QuadraticReal(Fraction(a), Fraction(b), d)


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
            assert x.sign() == -(-x).sign()


class TestCompare:
    def test_one_below_sqrt2(self):
        assert 1**2 < 2
        assert qr(1, 0).compare(qr(0, 1)) < 0

    def test_reflexive(self):
        x = qr(3, 5)
        assert x.compare(x) == 0

    def test_two_sqrt2_above_two(self):
        assert 2**2 * 2 > 2**2
        assert qr(0, 2).compare(qr(2, 0)) > 0

    def test_mixed_radicand_rejected(self):
        with pytest.raises(MixedRadicandError):
            qr(1, 1, 2).compare(qr(1, 1, 3))


class TestArithmetic:
    def test_cancellation(self):
        assert qr(1, 1) + qr(2, -1) == qr(3, 0)

    def test_scale(self):
        assert qr(1, 1).scale(3) == qr(3, 3)

    def test_identity(self):
        assert qr(1, 2) + qr(0, 0) == qr(1, 2)

    def test_mixed_radicand_add_rejected(self):
        with pytest.raises(MixedRadicandError):
            qr(1, 1, 2) + qr(1, 1, 3)


def test_square_free_validation():
    with pytest.raises(BadRadicandError):
        QuadraticReal(Fraction(1), Fraction(1), 4)
    with pytest.raises(BadRadicandError):
        QuadraticReal(Fraction(1), Fraction(1), 12)
    assert is_square_free(2) and is_square_free(6) and not is_square_free(18)


def test_trial_division_is_bounded():
    # the largest prime below 10^9 is still decided; above the limit each
    # test refuses before dividing at all
    assert is_prime(999999937) and not is_prime(TRIAL_DIVISION_LIMIT)
    assert not is_square_free(TRIAL_DIVISION_LIMIT)
    with pytest.raises(PrimeTooLargeError):
        is_prime(TRIAL_DIVISION_LIMIT + 7)
    with pytest.raises(RadicandTooLargeError):
        is_square_free(TRIAL_DIVISION_LIMIT + 7)


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
qr_values = st.builds(lambda a, b: qr(a, b), rationals, rationals)


@given(qr_values, qr_values, qr_values)
def test_total_order(x, y, z):
    cxy, cyx = x.compare(y), y.compare(x)
    assert cxy == -cyx  # antisymmetry
    if cxy <= 0 and y.compare(z) <= 0:
        assert x.compare(z) <= 0  # transitivity


@given(qr_values)
def test_sign_matches_64bit_approximation(x):
    approx = x.approx(64)
    # the approximation is within 2^-60 of the true value at these sizes
    if approx > Fraction(1, 2**40):
        assert x.sign() == 1
    elif approx < -Fraction(1, 2**40):
        assert x.sign() == -1


@given(qr_values)
def test_integer_sign_after_clearing_denominators(x):
    # the real-embedding order signs integer pairs (a*den, b*den)
    den = lcm(x.a.denominator, x.b.denominator)
    assert quadratic_sign(int(x.a * den), int(x.b * den), x.d) == x.sign()


@given(qr_values, qr_values)
def test_sum_sign_respects_interval_bounds(x, y):
    s = x + y
    lo = x.approx(64) + y.approx(64) - Fraction(1, 2**40)
    hi = x.approx(64) + y.approx(64) + Fraction(1, 2**40)
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
        assert parse_quadratic(str(x), d=x.d) == x

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_quadratic("1 + & 2")

    def test_mixed_radicand_in_text(self):
        with pytest.raises(MixedRadicandError):
            parse_quadratic("sqrt(2) + sqrt(3)")

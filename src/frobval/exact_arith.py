"""Exact arithmetic for rationals and real quadratic irrationals.

Rationals are ``fractions.Fraction`` (arbitrary precision, canonical form
with positive denominator maintained by the stdlib).  A ``QuadraticReal``
denotes the real number a + b*sqrt(d) for a fixed square-free radicand
d >= 2; all weights of one valuation share a single d, so comparison stays
closed and exact.

Sign and order are decided by exact integer case analysis, never by
floating point: for mixed signs of a and b the sign of a + b*sqrt(d)
reduces to comparing a^2 against b^2*d by cross multiplication.  The same
test, ``quadratic_sign``, orders the integer value vectors of monomial
valuations under the real embedding; ``QuadraticReal`` itself serves to
parse weights and to print weights and values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadRadicandError,
    MixedRadicandError,
    ParseError,
    PrimeTooLargeError,
    RadicandTooLargeError,
)

Rational = Fraction

# the largest p and radicand decided by trial division (about 31,600
# candidate divisors), so an oversized input fails fast
TRIAL_DIVISION_LIMIT = 10**9


def is_prime(p: int) -> bool:
    if p > TRIAL_DIVISION_LIMIT:
        raise PrimeTooLargeError(f"p must be at most {TRIAL_DIVISION_LIMIT}, got {p}")
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def is_square_free(d: int) -> bool:
    if d > TRIAL_DIVISION_LIMIT:
        raise RadicandTooLargeError(
            f"radicand must be at most {TRIAL_DIVISION_LIMIT}, got {d}"
        )
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def check_radicand(d: int) -> None:
    if d < 2 or not is_square_free(d):
        raise BadRadicandError(f"radicand must be square-free and >= 2, got {d}")


def quadratic_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational (or integer) a, b and square-free
    d >= 2, decided exactly."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    # a and b have strictly opposite signs; compare a^2 with b^2*d, which
    # cannot be equal for square-free d >= 2 unless a = b = 0
    if a * a > b * b * d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


@dataclass(frozen=True)
class QuadraticReal:
    """The real number a + b*sqrt(d), with a, b rational and d square-free >= 2."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        check_radicand(self.d)

    def _check(self, other: "QuadraticReal"):
        if self.d != other.d:
            raise MixedRadicandError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )

    def __add__(self, other: "QuadraticReal") -> "QuadraticReal":
        self._check(other)
        return QuadraticReal(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: "QuadraticReal") -> "QuadraticReal":
        self._check(other)
        return QuadraticReal(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self) -> "QuadraticReal":
        return QuadraticReal(-self.a, -self.b, self.d)

    def scale(self, n) -> "QuadraticReal":
        q = Fraction(n)
        return QuadraticReal(self.a * q, self.b * q, self.d)

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(d), decided exactly."""
        return quadratic_sign(self.a, self.b, self.d)

    def compare(self, other: "QuadraticReal") -> int:
        """-1, 0 or +1 as self <, = or > other in the real embedding."""
        self._check(other)
        return (self - other).sign()

    def approx(self, bits: int = 64) -> Fraction:
        """Rational approximation of sqrt(d) part to ~`bits` bits, for sanity
        checks only; never used in order decisions."""
        scale = 1 << bits
        r = math.isqrt(self.d * scale * scale)
        return self.a + self.b * Fraction(r, scale)

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bpart = f"sqrt({self.d})" if self.b == 1 else f"{self.b}*sqrt({self.d})"
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        babs = f"sqrt({self.d})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.d})"
        return f"{self.a} {sign} {babs}"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<sqrt>sqrt)|(?P<op>[+\-*/()]))"
)


def parse_quadratic(text: str, d: int | None = None) -> QuadraticReal:
    """Parse the DSL textual form of a quadratic real.

    Accepts rationals (``3/2``), ``sqrt(d)`` terms and sums/differences of
    scaled terms (``1 + 2*sqrt(2)``, ``3/2*sqrt(5)``).  If `d` is given, any
    sqrt radicand must match it; a pure rational is tagged with `d` (default
    2) so it stays comparable within one context.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(
                f"unexpected character {text[pos]!r} in weight", position=pos,
                expected=["digit", "sqrt", "+", "-", "*", "/"],
            )
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else (None, None, len(text))

    def take(kind=None, value=None):
        nonlocal i
        t = peek()
        if t[0] is None or (kind and t[0] != kind) or (value and t[1] != value):
            raise ParseError(
                f"unexpected token {t[1]!r} in weight", position=t[2],
                expected=[value or kind or "token"],
            )
        i += 1
        return t

    def parse_rational() -> Fraction:
        t = take("num")
        val = Fraction(int(t[1]))
        if peek()[:2] == ("op", "/"):
            take()
            den = take("num")
            if int(den[1]) == 0:
                raise ParseError("zero denominator in weight", position=den[2])
            val /= int(den[1])
        return val

    def parse_term():
        # rational, sqrt(d), rational*sqrt(d)
        nonlocal i
        if peek()[0] == "sqrt":
            rad = parse_sqrt()
            return Fraction(0), Fraction(1), rad
        coef = parse_rational()
        if peek()[:2] == ("op", "*"):
            take()
            rad = parse_sqrt()
            return Fraction(0), coef, rad
        return coef, Fraction(0), None

    def parse_sqrt() -> int:
        take("sqrt")
        take("op", "(")
        t = take("num")
        take("op", ")")
        return int(t[1])

    a_total = Fraction(0)
    b_total = Fraction(0)
    rad_seen = None
    sign = 1
    if peek()[:2] == ("op", "-"):
        take()
        sign = -1
    elif peek()[:2] == ("op", "+"):
        take()
    while True:
        a, b, rad = parse_term()
        if rad is not None:
            if rad_seen is not None and rad != rad_seen:
                raise MixedRadicandError(
                    f"mixed radicands sqrt({rad_seen}) and sqrt({rad})"
                )
            rad_seen = rad
        a_total += sign * a
        b_total += sign * b
        t = peek()
        if t[:2] == ("op", "+"):
            take()
            sign = 1
        elif t[:2] == ("op", "-"):
            take()
            sign = -1
        else:
            break
    if i < len(tokens):
        t = peek()
        raise ParseError(f"trailing input {t[1]!r} in weight", position=t[2])

    if rad_seen is not None and d is not None and rad_seen != d:
        raise MixedRadicandError(
            f"weight uses sqrt({rad_seen}) but context fixes sqrt({d})"
        )
    use_d = rad_seen if rad_seen is not None else (d if d is not None else 2)
    return QuadraticReal(a_total, b_total, use_d)

"""Exact sign tests and the weight reader for real quadratic irrationals.

Rationals are ``fractions.Fraction`` (arbitrary precision, canonical form
with positive denominator maintained by the stdlib).  A weight of the
``monomial`` form is the real number a + b*sqrt(d), for a square-free
radicand d >= 2; ``QuadraticReal`` is that triple (a, b, d) as read.

Sign is decided by exact integer case analysis, never by floating point:
for mixed signs of a and b the sign of a + b*sqrt(d) reduces to comparing
a^2 against b^2*d by cross multiplication.  The same test,
``quadratic_sign``, orders the integer value vectors of monomial
valuations under the real embedding.  ``read_quadratic`` reads a weight
from the script language's token cursor (``lexer.Cursor``) and checks its
radicand by trial division once, where it reads it; ``format_quadratic``
prints weights and values from their parts, without checking it again.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import FrobvalError, ParseError
from .lexer import Cursor

# the largest p and radicand decided by trial division (about 31,600
# candidate divisors), so an oversized input fails fast
TRIAL_DIVISION_LIMIT = 10**9


def is_prime(p: int) -> bool:
    if p > TRIAL_DIVISION_LIMIT:
        raise FrobvalError("P_TOO_LARGE", f"p must be at most {TRIAL_DIVISION_LIMIT}, got {p}")
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
        raise FrobvalError(
            "RADICAND_TOO_LARGE",
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
        raise FrobvalError("BAD_RADICAND", f"radicand must be square-free and >= 2, got {d}")


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


class QuadraticReal(namedtuple("QuadraticReal", "a b d")):
    """The weight a + b*sqrt(d) as read: a, b rational, d square-free >= 2."""

    __slots__ = ()

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(d), decided exactly."""
        return quadratic_sign(self.a, self.b, self.d)


def format_quadratic(a, b, d: int) -> str:
    """The printed form of a + b*sqrt(d), which parse_quadratic reads back."""
    if b == 0:
        return str(a)
    if a == 0:
        return f"sqrt({d})" if b == 1 else f"{b}*sqrt({d})"
    root = f"sqrt({d})" if abs(b) == 1 else f"{abs(b)}*sqrt({d})"
    return f"{a} {'+' if b > 0 else '-'} {root}"


def read_quadratic(cur: Cursor) -> QuadraticReal:
    """Read a quadratic real from the cursor: ``['+'|'-'] term (('+'|'-')
    term)*`` where a term is a rational ``INT ['/' INT]``, ``sqrt(INT)`` or
    ``rational*sqrt(INT)``.  Every sqrt of one weight shares one radicand,
    checked where it is first read; a pure rational carries d = 2."""
    a = b = Fraction(0)
    rad = None
    sign = -1 if cur.accept("-") else 1
    if sign > 0:
        cur.accept("+")
    while True:
        if cur.peek() == "sqrt":
            coef, root = Fraction(1), True
        else:
            coef = Fraction(cur.take_int("'sqrt'"))
            if cur.accept("/"):
                den = cur.take_int()
                if den == 0:
                    raise ParseError("zero denominator in weight",
                                     position=cur.position(cur.i - 1))
                coef /= den
            root = cur.accept("*")
        if root:
            cur.expect("sqrt")
            cur.expect("(")
            r = cur.take_int()
            cur.expect(")")
            if rad is None:
                check_radicand(r)
                rad = r
            elif r != rad:
                raise FrobvalError("MIXED_RADICAND", f"mixed radicands sqrt({rad}) and sqrt({r})")
            b += sign * coef
        else:
            a += sign * coef
        if cur.accept("+"):
            sign = 1
        elif cur.accept("-"):
            sign = -1
        else:
            break
    return QuadraticReal(a, b, 2 if rad is None else rad)


def parse_quadratic(text: str) -> QuadraticReal:
    """The quadratic real written in `text` (``3/2``, ``1 + 2*sqrt(2)``,
    ``3/2*sqrt(5)``); see ``read_quadratic``."""
    cur = Cursor(text)
    q = read_quadratic(cur)
    cur.expect_end()
    return q

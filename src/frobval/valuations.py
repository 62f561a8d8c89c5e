"""Valuation constructors and evaluation.

A ``Valuation`` is one of three kinds, each built over its field and
trivial on the ground field k: ``Monomial``, ``Divisorial`` or
``SeriesRestriction``.  The kind checks itself against the field when it is
built and gives the values (integer tuples), the value group, residue
invariants, caveats and description.  The Frobenius restriction v^p is built
only in the oracle module (``oracle.frobenius_restriction``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from operator import mul, sub

from .errors import FrobvalError
from .exact_arith import check_radicand, format_quadratic
from .function_field import (
    FieldSpec,
    Polynomial,
    RationalFunction,
    eval_poly_as_series,
    monomial_text,
    multiplicity,
    primitive_part,
    reducible_because,
)
from .ordered_groups import OrderedGroup, hnf_rows, order_min, order_sign

DEFAULT_SERIES_CAP = 65536
SERIES_START_PRECISION = 16

# the transcendence degree t of the residue field over k, and a description
ResidueInvariants = namedtuple("ResidueInvariants", "t description")


class Monomial:
    """v(x^e) = W e for an integer weight matrix W with one positive column
    per main variable of `spec` (`weights`: name -> tuple of ints).  Values
    lie in Z^dim, ordered lexicographically (`d` None, the ``lex`` form) or
    through the real embedding (1, sqrt(d)) (the ``monomial`` form): a real
    weight is (a + b*sqrt(d)) / `denom`, and `denom` is kept only for
    printing.  `radicand_checked` is set by `real`, whose weights come from
    read_quadratic, which checked d.

    The rule v(f) = min over terms of <exponent, weights> is a genuine
    valuation even with ties: the weighted-initial forms of two polynomials
    are nonzero, and their product, a weighted-homogeneous polynomial over a
    domain, is nonzero, so v(fg) = v(f) + v(g) holds unconditionally.  A
    ground variable has weight 0, so the minimum runs over the distinct
    main-variable exponent vectors of f, each valued once."""

    __slots__ = ("weights", "d", "denom", "spec", "_rows", "_kernel", "_group")
    caveats = ()

    def __init__(self, spec: FieldSpec, weights: dict, d: int | None = None, denom: int = 1, *,
                 radicand_checked: bool = False):
        if d is not None and not radicand_checked:
            check_radicand(d)
        lens = {len(w) for w in weights.values()}
        if len(lens) > 1 or (d is not None and lens - {2}):
            raise FrobvalError("WEIGHT_LENGTH_MISMATCH", "monomial weights must share one length")
        for name, w in weights.items():
            sign = order_sign(w, d)
            if sign == 0:
                raise FrobvalError("ZERO_WEIGHT", f"the weight of {name!r} is zero")
            if sign < 0:
                raise FrobvalError("NEGATIVE_WEIGHT", f"the weight of {name!r} is negative")
        if set(weights) != set(spec.main_vars):
            raise FrobvalError(
                "WEIGHT_VARS_MISMATCH",
                "monomial weights must cover exactly the main variables"
            )
        self.spec, self.weights, self.d, self.denom = spec, weights, d, denom
        # the rows of W, one column per main variable
        self._rows = list(zip(*(weights[n] for n in spec.main_vars)))
        self._group = None

    @classmethod
    def real(cls, spec: FieldSpec, weights: dict) -> "Monomial":
        """From weights a + b*sqrt(d) (``QuadraticReal`` values, as
        ``read_quadratic`` reads them with their radicand checked): the
        columns (a, b) scaled to integers by the least common denominator."""
        radicands = [w.d for w in weights.values() if w.b]
        d = radicands[-1] if radicands else 2
        for other in radicands:
            if other != d:
                raise FrobvalError("MIXED_RADICAND", f"weights mix sqrt({other}) with sqrt({d})")
        denom = lcm(*(q.denominator for w in weights.values() for q in (w.a, w.b)))
        columns = {
            name: (int(w.a * denom), int(w.b * denom)) for name, w in weights.items()
        }
        return cls(spec, columns, d, denom, radicand_checked=True)

    @classmethod
    def standard_lex(cls, spec: FieldSpec, names) -> "Monomial":
        """Unit weight vectors: lex order on the variables in the given order."""
        return cls(spec, {name: tuple(int(i == j) for j in range(len(names)))
                          for i, name in enumerate(names)})

    def value_of_poly(self, f: Polynomial):
        return order_min(self._term_values(f), self.d)

    def _term_values(self, f):
        """W e for each distinct main-variable exponent vector e of the terms
        of f: terms that differ only in the ground variables, of weight 0,
        share one value."""
        m = self.spec.m
        rows = self._rows
        for main in {e[m:] for e in f.terms}:
            yield tuple(sum(map(mul, row, main)) for row in rows)

    def format_value(self, value) -> str:
        """A lex vector, or the real number (a + b*sqrt(d)) / denom."""
        if self.d is None:
            return "(" + ", ".join(str(x) for x in value) + ")"
        a, b = (Fraction(x, self.denom) for x in value)
        return format_quadratic(a, b, self.d)

    def value_group(self) -> OrderedGroup:
        if self._group is None:
            # one Hermite form of the weight columns: the basis of the
            # value group, and their relations, the weight-zero kernel
            basis, self._kernel = hnf_rows(self.weights[n] for n in self.spec.main_vars)
            self._group = OrderedGroup(len(self._rows), tuple(basis), self.d)
        return self._group

    def residue_invariants(self) -> ResidueInvariants:
        """The residue field is generated by the weight-zero Laurent
        monomials, read from the Hermite form that ``value_group`` computes;
        s + t = n is checked."""
        rank = self.value_group().rank
        kern = self._kernel
        if rank + len(kern) != self.spec.n:
            raise AssertionError("kernel rank must complement the value-group rank")
        gens = ", ".join(monomial_text(self.spec.main_vars, v) for v in kern) or "none"
        return ResidueInvariants(len(kern), (
            "residue field purely transcendental over k, generated by "
            f"classes of weight-zero Laurent monomials: {gens}"
        ))

    def describe(self) -> str:
        ws = ", ".join(f"{n}: {self.format_value(self.weights[n])}" for n in self.spec.main_vars)
        return f"{'lex' if self.d is None else 'monomial'} {{ {ws} }}"


class _IntegerValued:
    """A Z-valued kind: a value (m,) prints as m, and v is onto Z."""

    __slots__ = ()
    _Z = OrderedGroup(1, ((1,),))

    def format_value(self, value) -> str:
        (m,) = value
        return str(m)

    def value_group(self) -> OrderedGroup:
        return self._Z


class Divisorial(_IntegerValued):
    """Order of vanishing along an irreducible polynomial `g`.  g is first
    divided by its content in F_p[u] (``primitive_part``), since a factor in
    the ground variables is a unit of k; by Gauss's lemma the multiplicities
    of a primitive g in F_p[u][x] are those in k[x].  A g refuted by
    ``reducible_because`` is rejected; else irreducibility is assumed and
    flagged on reports."""

    __slots__ = ("g", "spec")
    caveats = ("IRREDUCIBILITY_ASSUMED",)

    def __init__(self, g: Polynomial):
        if not g.uses_main_var():
            if any(any(e) for e in g.terms):
                raise FrobvalError("GROUND_DIVISOR",
                                   "divisorial polynomial must involve a main variable")
            raise FrobvalError("CONSTANT_DIVISOR", "divisorial polynomial must not be constant")
        self.g = g = primitive_part(g)
        if why := reducible_because(g):
            raise FrobvalError("REDUCIBLE_DIVISOR", f"divisorial polynomial {g} {why}")
        self.spec = g.spec

    def value_of_poly(self, f: Polynomial):
        return (multiplicity(f, self.g),)

    def residue_invariants(self) -> ResidueInvariants:
        n = self.spec.n
        return ResidueInvariants(
            n - 1,
            "residue field of a divisorial valuation: finitely generated "
            f"of transcendence degree {n - 1} over k",
        )

    def describe(self) -> str:
        return f"divisorial ({self.g})"


class SeriesRestriction(_IntegerValued):
    """The pull-back of the t-adic valuation along `assign` (main variable
    name -> PowerSeries in F_p[[t]]): v(f) is read from the initial form of
    f when that is nonzero, else from expansions at doubling precision up to
    `cap`.  An assignment of order exactly 1 makes v onto Z."""

    __slots__ = ("assign", "cap", "spec", "_orders", "_leads")
    caveats = ("TRANSCENDENCE_ASSUMED",)

    def __init__(self, spec: FieldSpec, assign: dict, cap: int = DEFAULT_SERIES_CAP):
        """Check the field and the orders (each >= 1, one of them 1), and keep
        the orders and leading coefficients in main-variable order."""
        if spec.m != 0:
            raise FrobvalError(
                "GROUND_VAR_IN_SERIES_CONTEXT",
                "series valuations require a ground-variable-free field"
            )
        if set(assign) != set(spec.main_vars):
            raise FrobvalError(
                "MISSING_ASSIGNMENT",
                "series assignment must cover exactly the main variables"
            )
        for name, s in assign.items():
            if not s.order:
                raise FrobvalError(
                    "NO_ORD1_WITNESS", f"series for {name!r} must be nonzero of order >= 1"
                )
        self.spec, self.assign, self.cap = spec, assign, cap
        self._orders, self._leads = zip(
            *((assign[n].order, assign[n].lead) for n in spec.main_vars))
        if 1 not in self._orders:
            raise FrobvalError(
                "NO_ORD1_WITNESS",
                "no assignment of order exactly 1: the value group cannot be "
                "certified to be Z"
            )

    def value_of_poly(self, f: Polynomial):
        # v(f) is at least the least order of a term, bound = min over the
        # terms c*x^e of <e, o>, o_v = ord(s_v).  A term maps to
        # c*prod(l_v^e_v)*t^<e, o> plus higher terms, l_v the leading
        # coefficient of s_v, so the coefficient of t^bound in f(s) is the
        # sum of c*prod(l_v^e_v) over the terms of order bound (the initial
        # form of f, evaluated at the l_v; Mac Lane, 1936): if it is nonzero
        # mod p, v(f) is bound, with no expansion; a one-term f always stops
        # here.  Otherwise the initial form cancels.  The monomial content
        # x^c of f, its least exponent per variable, has order shift = <c, o>
        # exactly, since ord is additive on F_p[[t]], so only the cofactor
        # h = f/x^c is expanded: f(s) has a coefficient of index <= n exactly
        # when h(s) has one of index <= n - shift.  The precision n doubles
        # from min(SERIES_START_PRECISION, cap) to the cap, and a round with
        # n < shift is skipped, as f(s) has no coefficient there.
        p, orders, leads, cap = self.spec.p, self._orders, self._leads, self.cap
        bound = lead = None
        for e, c in f.terms.items():
            order = sum(map(mul, e, orders))
            if bound is None or order < bound:
                bound, lead = order, 0
            if order == bound:
                lead += c * prod(map(pow, leads, e, repeat(p)))
        if bound > cap:
            raise FrobvalError("ORD_UNDETERMINED", "series order unresolved below the "
                               f"precision cap ({cap}); every term has order at least {bound}")
        if lead % p:
            return (bound,)
        content = tuple(map(min, zip(*f.terms)))
        shift = sum(map(mul, content, orders))
        h = (Polynomial(f.spec, {tuple(map(sub, e, content)): x for e, x in f.terms.items()})
             if shift else f)
        precision = min(SERIES_START_PRECISION, cap)
        while precision < shift or not (
                coeffs := eval_poly_as_series(h, self.assign, precision - shift)):
            if precision >= cap:
                raise FrobvalError(
                    "ORD_UNDETERMINED",
                    "series order unresolved below the precision cap "
                    f"({cap}); the assignment may satisfy an algebraic relation"
                )
            precision = min(2 * precision, cap)
        return (shift + min(coeffs),)

    def residue_invariants(self) -> ResidueInvariants:
        return ResidueInvariants(
            0,
            "residue field F_p: every unit of the valuation ring is congruent "
            "to its constant term",
        )

    def describe(self) -> str:
        ws = ", ".join(f"{n} -> {self.assign[n].name}" for n in self.spec.main_vars)
        return f"series {{ {ws} }}"


class Valuation:
    """A valuation on K/k: its `kind`, built over the field `spec`."""

    def __init__(self, kind):
        if not isinstance(kind, (Monomial, Divisorial, SeriesRestriction)):
            raise FrobvalError("UNSUPPORTED_KIND", f"unknown valuation kind {kind!r}")
        self.spec = kind.spec
        self.kind = kind
        self.caveats = list(kind.caveats)

    def value_of_poly(self, f: Polynomial):
        if f.spec != self.spec:
            raise FrobvalError("SPEC_MISMATCH", "polynomial over another field than the valuation")
        if f.is_zero():
            raise FrobvalError("ZERO_ARGUMENT", "valuation of the zero polynomial")
        return self.kind.value_of_poly(f)

    def value_of(self, r: RationalFunction):
        """v(num) - v(den), independent of the representative; a den in the
        ground variables alone is a unit of k, of value 0 in every kind."""
        if r.num.is_zero():
            raise FrobvalError("ZERO_ARGUMENT", "valuation of the zero function")
        vn = self.value_of_poly(r.num)
        if not r.den.uses_main_var():
            return vn
        vd = self.value_of_poly(r.den)
        return tuple(a - b for a, b in zip(vn, vd))

    # the kind's answers, under the names that callers and tracers reach
    def format_value(self, value) -> str:
        return self.kind.format_value(value)

    def value_group(self) -> OrderedGroup:
        return self.kind.value_group()

    def residue_invariants(self) -> ResidueInvariants:
        return self.kind.residue_invariants()

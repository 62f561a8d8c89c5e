"""Valuation constructors and evaluation.

Three kinds are supported, each trivial on the ground field k.  A value is
an element of the kind's value group (see ``value_group``): an integer
tuple for every kind, ``(m,)`` for the Z-valued ones.

* monomial: v(x^e) = W e for an integer weight matrix W with one positive
  column per main variable.  Values lie in Z^dim under one of two orders:
  lex (the ``lex`` form), or the real embedding through (1, sqrt(d)) (the
  ``monomial`` form, whose weights in Q(sqrt(d)) give the two rows a and b
  of W after clearing denominators by one ``denom``);
* divisorial: order of vanishing along an irreducible polynomial g.  g is
  first divided by its content in F_p[u] (``primitive_part``), since a
  factor in the ground variables is a unit of k; by Gauss's lemma the
  multiplicities of a primitive g in F_p[u][x] are those in k[x].  Three
  cheap refutations reject g: every exponent divisible by p (then g = h^p,
  since Frobenius fixes F_p), a main variable dividing every term of a g
  that is not a constant times that variable, and, for g in one main
  variable over F_p, a nonconstant gcd(g, g').  Beyond them irreducibility
  is assumed and flagged on reports;
* series restriction: pull back the t-adic valuation along an assignment of
  main variables to power series in F_p[[t]].  v(f) is the least term
  order b = min sum e_v*ord(s_v) when the initial form of f, its terms of
  order b evaluated at the leading coefficients of the s_v, is nonzero mod
  p (Mac Lane's initial forms, 1936).  Otherwise it is the order of the
  monomial content x^c of f, sum c_v*ord(s_v), plus the order of the
  cofactor f/x^c, found at doubling precision up to a cap.

The Frobenius restriction v^p, a cross-check of the classifier, is built
only in the oracle module (``oracle.frobenius_restriction``).

The monomial rule v(f) = min over terms of <exponent, weights> is a genuine
valuation even with ties: the weighted-initial forms of two polynomials are
nonzero, and their product, a weighted-homogeneous polynomial over a domain,
is nonzero, so v(fg) = v(f) + v(g) holds unconditionally.  A ground
variable has weight 0, so the minimum runs over the distinct main-variable
exponent vectors of f, each valued once.
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
    CONTENT_DEGREE_LIMIT,
    FieldSpec,
    Polynomial,
    RationalFunction,
    _gcd_mod_p,
    eval_poly_as_series,
    monomial_text,
    multiplicity,
    primitive_part,
)
from .ordered_groups import OrderedGroup, hnf_rows, order_min, order_sign

DEFAULT_SERIES_CAP = 65536
SERIES_START_PRECISION = 16


class Monomial:
    """One integer weight column per main variable (`weights`: name ->
    tuple of ints), ordered lexicographically (`d` None) or through the real
    embedding (1, sqrt(d)); a real weight is (a + b*sqrt(d)) / `denom`, and
    `denom` is kept only for printing.  `radicand_checked` is set by `real`,
    whose weights come from read_quadratic, which checked d."""

    __slots__ = ("weights", "d", "denom")

    def __init__(self, weights: dict, d: int | None = None, denom: int = 1, *,
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
        self.weights = weights
        self.d = d
        self.denom = denom

    @classmethod
    def real(cls, weights: dict) -> "Monomial":
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
        return cls(columns, d, denom, radicand_checked=True)

    @classmethod
    def standard_lex(cls, names) -> "Monomial":
        """Unit weight vectors: lex order on the variables in the given order."""
        n = len(names)
        return cls({name: tuple(int(i == j) for j in range(n)) for i, name in enumerate(names)})


class Divisorial:
    """Order of vanishing along `g`, nonconstant in a main variable and
    divided by its content (``primitive_part``); irreducibility is assumed."""

    __slots__ = ("g",)

    def __init__(self, g: Polynomial):
        if not g.uses_main_var():
            if any(any(e) for e in g.terms):
                raise FrobvalError(
                    "GROUND_DIVISOR",
                    "divisorial polynomial must involve a main variable"
                )
            raise FrobvalError("CONSTANT_DIVISOR", "divisorial polynomial must not be constant")
        self.g = g = primitive_part(g)
        exps = list(g.terms)
        if all(x % g.spec.p == 0 for e in exps for x in e):
            raise FrobvalError("REDUCIBLE_DIVISOR", f"divisorial polynomial {g} is a p-th power")
        m = g.spec.m
        for i, name in enumerate(g.spec.main_vars, start=m):
            if all(e[i] for e in exps) and (len(exps) > 1 or sum(exps[0]) > 1):
                raise FrobvalError(
                    "REDUCIBLE_DIVISOR",
                    f"divisorial polynomial {g} is reducible: {name} divides every term"
                )
        # g in one main variable over F_p, not a p-th power, so g' != 0: a
        # factor of gcd(g, g') divides g twice.  Euclid on dense lists is
        # quadratic, so above the content's degree limit g keeps its caveat
        used = {i for e in exps for i, x in enumerate(e) if x}
        if (len(used) == 1 and (i := used.pop()) >= m
                and (degree := max(e[i] for e in exps)) <= CONTENT_DEGREE_LIMIT):
            p = g.spec.p
            dense = [0] * (degree + 1)
            for e, c in g.terms.items():
                dense[e[i]] = c
            slope = [k * c % p for k, c in enumerate(dense)][1:]
            while not slope[-1]:
                slope.pop()
            if len(common := _gcd_mod_p(dense, slope, p)) > 1:
                unit = g.spec.unit(g.spec.main_vars[i - m])
                factor = Polynomial(g.spec, {tuple(k * u for u in unit): c
                                             for k, c in enumerate(common)})
                raise FrobvalError(
                    "REDUCIBLE_DIVISOR",
                    f"divisorial polynomial {g} is reducible: it shares the factor "
                    f"{factor} with its derivative"
                )


# the pull-back of the t-adic valuation along `assign` (main variable name ->
# PowerSeries); `cap` bounds the precision of a series order
SeriesRestriction = namedtuple("SeriesRestriction", "assign cap", defaults=(DEFAULT_SERIES_CAP,))

# the transcendence degree t of the residue field over k, and a description
ResidueInvariants = namedtuple("ResidueInvariants", "t description")


class Valuation:
    """A valuation on K/k with one of the supported kinds."""

    def __init__(self, spec: FieldSpec, kind):
        self.spec = spec
        self.kind = kind
        self.caveats = []
        if isinstance(kind, Monomial):
            if set(kind.weights) != set(spec.main_vars):
                raise FrobvalError(
                    "WEIGHT_VARS_MISMATCH",
                    "monomial weights must cover exactly the main variables"
                )
            # the rows of W, one column per main variable
            self._weight_rows = list(zip(*(kind.weights[n] for n in spec.main_vars)))
        elif isinstance(kind, Divisorial):
            if kind.g.spec != spec:
                raise FrobvalError(
                    "SPEC_MISMATCH",
                    "divisorial polynomial must live over the same field"
                )
            self.caveats.append("IRREDUCIBILITY_ASSUMED")
        elif isinstance(kind, SeriesRestriction):
            if spec.m != 0:
                raise FrobvalError(
                    "GROUND_VAR_IN_SERIES_CONTEXT",
                    "series valuations require a ground-variable-free field"
                )
            if set(kind.assign) != set(spec.main_vars):
                raise FrobvalError(
                    "MISSING_ASSIGNMENT",
                    "series assignment must cover exactly the main variables"
                )
            self._validate_series_witness()
            self.caveats.append("TRANSCENDENCE_ASSUMED")
        else:
            raise FrobvalError("UNSUPPORTED_KIND", f"unknown valuation kind {kind!r}")
        self._group = None

    def _validate_series_witness(self):
        """Check that every assignment's order is at least 1 and that one of
        them is 1, and keep the orders and the leading coefficients in
        main-variable order, as each series read them when it was built."""
        assign = self.kind.assign
        for name, s in assign.items():
            if not s.order:
                raise FrobvalError(
                    "NO_ORD1_WITNESS", f"series for {name!r} must be nonzero of order >= 1"
                )
        self._series_orders, self._series_leads = zip(
            *((assign[name].order, assign[name].lead) for name in self.spec.main_vars))
        if 1 not in self._series_orders:
            raise FrobvalError(
                "NO_ORD1_WITNESS",
                "no assignment of order exactly 1: the value group cannot be "
                "certified to be Z"
            )

    # -- evaluation ---------------------------------------------------------

    def value_of_poly(self, f: Polynomial):
        if f.spec != self.spec:
            raise FrobvalError("SPEC_MISMATCH", "polynomial over another field than the valuation")
        if f.is_zero():
            raise FrobvalError("ZERO_ARGUMENT", "valuation of the zero polynomial")
        k = self.kind
        if isinstance(k, Monomial):
            return order_min(self._term_values(f), k.d)
        if isinstance(k, Divisorial):
            return (multiplicity(f, k.g),)
        # series restriction: v(f) is at least the least order of a term,
        # bound = min over the terms c*x^e of <e, o>, o_v = ord(s_v).  A term
        # maps to c*prod(l_v^e_v)*t^<e, o> plus higher terms, l_v the leading
        # coefficient of s_v, so the coefficient of t^bound in f(s) is the
        # sum of c*prod(l_v^e_v) over the terms of order bound (the initial
        # form of f, evaluated at the l_v): if it is nonzero mod p, v(f) is
        # bound, with no expansion; a one-term f always stops here.
        # Otherwise the initial form cancels.  The monomial content x^c of
        # f, its least exponent per variable, has order shift = <c, o>
        # exactly, since ord is additive on F_p[[t]], so only the cofactor
        # h = f/x^c is expanded: f(s) has a coefficient of index <= n exactly
        # when h(s) has one of index <= n - shift.  The precision n doubles
        # from min(SERIES_START_PRECISION, cap) to the cap, and a round with
        # n < shift is skipped, as f(s) has no coefficient there.
        p, orders, leads = self.spec.p, self._series_orders, self._series_leads
        bound = lead = None
        for e, c in f.terms.items():
            order = sum(map(mul, e, orders))
            if bound is None or order < bound:
                bound, lead = order, 0
            if order == bound:
                lead += c * prod(map(pow, leads, e, repeat(p)))
        if bound > k.cap:
            raise FrobvalError("ORD_UNDETERMINED", "series order unresolved below the "
                               f"precision cap ({k.cap}); every term has order at least {bound}")
        if lead % p:
            return (bound,)
        content = tuple(map(min, zip(*f.terms)))
        shift = sum(map(mul, content, orders))
        h = (Polynomial(f.spec, {tuple(map(sub, e, content)): x for e, x in f.terms.items()})
             if shift else f)
        precision = min(SERIES_START_PRECISION, k.cap)
        while precision < shift or not (
                coeffs := eval_poly_as_series(h, k.assign, precision - shift)):
            if precision >= k.cap:
                raise FrobvalError(
                    "ORD_UNDETERMINED",
                    "series order unresolved below the precision cap "
                    f"({k.cap}); the assignment may satisfy an algebraic relation"
                )
            precision = min(2 * precision, k.cap)
        return (shift + min(coeffs),)

    def _term_values(self, f):
        """W e for each distinct main-variable exponent vector e of the terms
        of f: terms that differ only in the ground variables, of weight 0,
        share one value."""
        m = self.spec.m
        rows = self._weight_rows
        for main in {e[m:] for e in f.terms}:
            yield tuple(sum(map(mul, row, main)) for row in rows)

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

    def format_value(self, value) -> str:
        """The printed form of a value: an integer for the Z-valued kinds,
        a lex vector, or the real number (a + b*sqrt(d)) / denom."""
        k = self.kind
        if not isinstance(k, Monomial):
            (m,) = value
            return str(m)
        if k.d is None:
            return "(" + ", ".join(str(x) for x in value) + ")"
        a, b = (Fraction(x, k.denom) for x in value)
        return format_quadratic(a, b, k.d)

    # -- invariants ---------------------------------------------------------

    def value_group(self) -> OrderedGroup:
        if self._group is None:
            k = self.kind
            if isinstance(k, Monomial):
                # one Hermite form of the weight columns: the basis of the
                # value group, and their relations, the weight-zero kernel
                basis, self._kernel = hnf_rows(k.weights[name] for name in self.spec.main_vars)
                self._group = OrderedGroup(len(self._weight_rows), tuple(basis), k.d)
            else:
                # divisorial and series-restriction valuations are Z-valued;
                # the series kind carries an ord-1 witness, so v is onto Z
                self._group = OrderedGroup.from_generators([(1,)])
        return self._group

    def residue_invariants(self) -> ResidueInvariants:
        """t and a description.  A monomial valuation's residue field is
        generated by the weight-zero Laurent monomials, read from the Hermite
        form that ``value_group`` computes; s + t = n is checked."""
        k = self.kind
        n = self.spec.n
        if isinstance(k, Monomial):
            rank = self.value_group().rank
            kern = self._kernel
            t = len(kern)
            if rank + t != n:
                raise AssertionError("kernel rank must complement the value-group rank")
            gens = ", ".join(monomial_text(self.spec.main_vars, v) for v in kern) or "none"
            desc = (
                "residue field purely transcendental over k, generated by "
                f"classes of weight-zero Laurent monomials: {gens}"
            )
            return ResidueInvariants(t, desc)
        if isinstance(k, Divisorial):
            return ResidueInvariants(
                n - 1,
                "residue field of a divisorial valuation: finitely generated "
                f"of transcendence degree {n - 1} over k",
            )
        return ResidueInvariants(
            0,
            "residue field F_p: every unit of the valuation ring is congruent "
            "to its constant term",
        )

    def describe_kind(self) -> str:
        k = self.kind
        if isinstance(k, Monomial):
            ws = ", ".join(f"{n}: {self.format_value(k.weights[n])}" for n in self.spec.main_vars)
            return f"{'lex' if k.d is None else 'monomial'} {{ {ws} }}"
        if isinstance(k, Divisorial):
            return f"divisorial ({k.g})"
        ws = ", ".join(f"{n} -> {k.assign[n].name}" for n in self.spec.main_vars)
        return f"series {{ {ws} }}"

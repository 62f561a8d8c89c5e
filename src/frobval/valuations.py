"""Valuation constructors and evaluation.

Four kinds are supported, each trivial on the ground field k:

* monomial with archimedean weights (positive elements of one Q(sqrt(d))),
* monomial with lexicographic weights (positive vectors in lex Z^r),
* divisorial: order of vanishing along an irreducible polynomial g
  (irreducibility is assumed, not checked, and flagged on reports),
* series restriction: pull back the t-adic valuation along an assignment of
  main variables to power series in F_p[[t]].

The monomial rule v(f) = min over terms of <exponent, weights> is a genuine
valuation even with ties: the weighted-initial forms of two polynomials are
nonzero, and their product, a weighted-homogeneous polynomial over a domain,
is nonzero, so v(fg) = v(f) + v(g) holds unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    GroundVarInSeriesContextError,
    NoOrd1WitnessError,
    OrdUndeterminedError,
    UnsupportedKindError,
    ZeroArgumentError,
)
from .exact_arith import QuadraticReal
from .function_field import (
    FieldSpec,
    Polynomial,
    PowerSeries,
    RationalFunction,
    eval_poly_as_series,
    multiplicity,
    series_ord,
)
from .ordered_groups import OrderedGroup, kernel_basis, lex_positive

DEFAULT_SERIES_CAP = 65536
SERIES_START_PRECISION = 16


@dataclass(frozen=True)
class MonomialArch:
    weights: dict  # main var name -> QuadraticReal, all positive, shared d

    def __post_init__(self):
        ds = {w.d for w in self.weights.values()}
        if len(ds) != 1:
            raise ValueError("archimedean weights must share one radicand")
        if any(w.sign() <= 0 for w in self.weights.values()):
            raise ValueError("monomial weights must be positive")


@dataclass(frozen=True)
class MonomialLex:
    weights: dict  # main var name -> tuple of ints, all lex-positive, same length

    def __post_init__(self):
        lens = {len(w) for w in self.weights.values()}
        if len(lens) != 1:
            raise ValueError("lex weights must share one length")
        if any(not lex_positive(w) for w in self.weights.values()):
            raise ValueError("monomial weights must be positive")


@dataclass(frozen=True)
class Divisorial:
    g: Polynomial  # nonconstant in a main variable; irreducibility assumed

    def __post_init__(self):
        if not self.g.uses_main_var():
            raise ValueError("divisorial polynomial must involve a main variable")


@dataclass(frozen=True)
class SeriesRestriction:
    assign: dict  # main var name -> PowerSeries
    cap: int = DEFAULT_SERIES_CAP


@dataclass(frozen=True)
class ResidueInvariants:
    s: int               # rational rank of the value group
    t: int               # transcendence degree of the residue field over k
    kappa_p_log: int     # [kappa : kappa^p] = p^kappa_p_log
    description: str


class Valuation:
    """A valuation on K/k with one of the four supported kinds."""

    def __init__(self, spec: FieldSpec, kind):
        self.spec = spec
        self.kind = kind
        self.caveats = []
        if isinstance(kind, (MonomialArch, MonomialLex)):
            if set(kind.weights) != set(spec.main_vars):
                raise ValueError("monomial weights must cover exactly the main variables")
        elif isinstance(kind, Divisorial):
            if kind.g.spec != spec:
                raise ValueError("divisorial polynomial must live over the same field")
            self.caveats.append("IRREDUCIBILITY_ASSUMED")
        elif isinstance(kind, SeriesRestriction):
            if spec.m != 0:
                raise GroundVarInSeriesContextError(
                    "series valuations require a ground-variable-free field"
                )
            if set(kind.assign) != set(spec.main_vars):
                raise ValueError("series assignment must cover exactly the main variables")
            self._validate_series_witness()
            self.caveats.append("TRANSCENDENCE_ASSUMED")
        else:
            raise UnsupportedKindError(f"unknown valuation kind {kind!r}")
        self._group = None

    def _validate_series_witness(self):
        witness_cap = 256
        has_ord1 = False
        for name, s in self.kind.assign.items():
            o = series_ord(s, witness_cap)
            if o == 0 or o is None:
                raise NoOrd1WitnessError(
                    f"series for {name!r} must be nonzero of order >= 1 "
                    f"(within {witness_cap} coefficients)"
                )
            if o == 1:
                has_ord1 = True
        if not has_ord1:
            raise NoOrd1WitnessError(
                "no assignment of order exactly 1: the value group cannot be "
                "certified to be Z"
            )

    # -- evaluation ---------------------------------------------------------

    def value_of_poly(self, f: Polynomial):
        if f.is_zero():
            raise ZeroArgumentError("valuation of the zero polynomial")
        k = self.kind
        if isinstance(k, MonomialArch):
            return min(self._arch_term_values(f))
        if isinstance(k, MonomialLex):
            return min(self._lex_term_values(f))
        if isinstance(k, Divisorial):
            return multiplicity(f, k.g)
        # series restriction with precision escalation
        precision = SERIES_START_PRECISION
        while True:
            coeffs = eval_poly_as_series(f, k.assign, precision)
            lead = next(filter(None, coeffs), 0)  # first nonzero coefficient
            if lead:
                return coeffs.index(lead)
            if precision >= k.cap:
                raise OrdUndeterminedError(
                    "series order unresolved below the precision cap "
                    f"({k.cap}); the assignment may satisfy an algebraic relation"
                )
            precision = min(2 * precision, k.cap)

    def _arch_term_values(self, f):
        spec = self.spec
        w = self.kind.weights
        d = next(iter(w.values())).d
        zero = QuadraticReal.rational(0, d)
        for e in f.terms:
            total = zero
            for name in spec.main_vars:
                exp = e[spec.var_index(name)]
                if exp:
                    total = total + w[name].scale(exp)
            yield total

    def _lex_term_values(self, f):
        spec = self.spec
        w = self.kind.weights
        r = len(next(iter(w.values())))
        for e in f.terms:
            total = [0] * r
            for name in spec.main_vars:
                exp = e[spec.var_index(name)]
                if exp:
                    wt = w[name]
                    total = [a + exp * b for a, b in zip(total, wt)]
            yield tuple(total)

    def value_of(self, r: RationalFunction):
        """v(num) - v(den); independent of the chosen representative."""
        if r.num.is_zero():
            raise ZeroArgumentError("valuation of the zero function")
        vn = self.value_of_poly(r.num)
        vd = self.value_of_poly(r.den)
        if isinstance(vn, QuadraticReal):
            return vn - vd
        if isinstance(vn, tuple):
            return tuple(a - b for a, b in zip(vn, vd))
        return vn - vd

    # -- invariants ---------------------------------------------------------

    def value_group(self) -> OrderedGroup:
        if self._group is None:
            k = self.kind
            if isinstance(k, MonomialArch):
                gens = [k.weights[name] for name in self.spec.main_vars]
            elif isinstance(k, MonomialLex):
                gens = [k.weights[name] for name in self.spec.main_vars]
            else:
                # divisorial and series-restriction valuations are Z-valued;
                # the series kind carries an ord-1 witness, so v is onto Z
                gens = [(1,)]
            self._group = OrderedGroup.from_generators(gens)
        return self._group

    def is_z_valued(self) -> bool:
        return isinstance(self.kind, (Divisorial, SeriesRestriction))

    def group_element(self, value):
        """Adapt a raw value to the value-group element representation."""
        if self.is_z_valued() and isinstance(value, int):
            return (value,)
        return value

    def residue_invariants(self) -> ResidueInvariants:
        spec = self.spec
        k = self.kind
        m, n = spec.m, spec.n
        if isinstance(k, (MonomialArch, MonomialLex)):
            s = self.value_group().rank
            kern = self._weight_kernel()
            t = len(kern)
            assert s + t == n, "kernel rank must complement the value-group rank"
            gens = ", ".join(self._laurent_monomial(v) for v in kern) or "none"
            desc = (
                "residue field purely transcendental over k, generated by "
                f"classes of weight-zero Laurent monomials: {gens}"
            )
            return ResidueInvariants(s, t, t + m, desc)
        if isinstance(k, Divisorial):
            return ResidueInvariants(
                1, n - 1, n - 1 + m,
                "residue field of a divisorial valuation: finitely generated "
                f"of transcendence degree {n - 1} over k",
            )
        return ResidueInvariants(
            1, 0, 0,
            "residue field F_p: every unit of the valuation ring is congruent "
            "to its constant term",
        )

    def _weight_kernel(self):
        """Lattice basis of the weight-zero main-variable exponent vectors."""
        spec = self.spec
        k = self.kind
        if isinstance(k, MonomialArch):
            cols = [k.weights[name] for name in spec.main_vars]
            den = lcm(*[q.denominator for w in cols for q in (w.a, w.b)])
            rows = [
                [int(w.a * den) for w in cols],
                [int(w.b * den) for w in cols],
            ]
        else:
            cols = [k.weights[name] for name in spec.main_vars]
            r = len(cols[0])
            rows = [[w[i] for w in cols] for i in range(r)]
        return kernel_basis(rows)

    def _laurent_monomial(self, exps):
        parts = []
        for name, e in zip(self.spec.main_vars, exps):
            if e == 1:
                parts.append(name)
            elif e != 0:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # -- Frobenius restriction ---------------------------------------------

    def frobenius_restriction(self) -> "Valuation":
        """v^p on K^p, presented on K by relabeling p-th powers: weights
        scale by p, giving the order-isomorphic value group p*Gamma."""
        p = self.spec.p
        k = self.kind
        if isinstance(k, MonomialArch):
            return Valuation(
                self.spec,
                MonomialArch({name: w.scale(p) for name, w in k.weights.items()}),
            )
        if isinstance(k, MonomialLex):
            return Valuation(
                self.spec,
                MonomialLex({name: tuple(p * x for x in w) for name, w in k.weights.items()}),
            )
        raise UnsupportedKindError(
            "frobenius_restriction supports monomial kinds only; divisorial "
            "and series restrictions are handled analytically by the classifier"
        )

    def describe_kind(self) -> str:
        k = self.kind
        if isinstance(k, MonomialArch):
            ws = ", ".join(f"{n}: {k.weights[n]}" for n in self.spec.main_vars)
            return f"monomial {{ {ws} }}"
        if isinstance(k, MonomialLex):
            ws = ", ".join(f"{n}: {k.weights[n]}" for n in self.spec.main_vars)
            return f"lex {{ {ws} }}"
        if isinstance(k, Divisorial):
            return f"divisorial ({k.g})"
        ws = ", ".join(f"{n} -> {k.assign[n].name}" for n in self.spec.main_vars)
        return f"series {{ {ws} }}"


def value_of_poly(v: Valuation, f: Polynomial):
    return v.value_of_poly(f)


def value_of(v: Valuation, r: RationalFunction):
    return v.value_of(r)


def value_group(v: Valuation) -> OrderedGroup:
    return v.value_group()


def residue_invariants(v: Valuation) -> ResidueInvariants:
    return v.residue_invariants()


def frobenius_restriction(v: Valuation) -> Valuation:
    return v.frobenius_restriction()

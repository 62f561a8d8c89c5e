"""Independent brute-force cross-checks.

These deliberately avoid the algorithms used on the main path: coset
enumeration with reduction modulo the lattice pG (``reduce_mod_lattice``)
instead of the p^rank formula, Smith normal form instead of Hermite, dense
series expansion from dense prefixes (``prefix``, read straight from a
series' terms) with one product per unit of exponent (re-run at higher
precision) instead of sparse truncations and Frobenius-digit powers,
series orders from rounds that expand the whole polynomial
(``series_value_unsplit``) instead of reading the value off the initial
form, or expanding only the cofactor after the monomial content, whose
order is taken in closed form,
division by g once per unit of multiplicity instead of by g^(p^j),
with each leading term of the remainder found by a scan of the whole
remainder (``divide_by_scan``) instead of taken from a heap of packed
monomials,
a reader that builds one polynomial per atom and powers by binary squaring
instead of monomial terms, flat texts split without tokens and
Frobenius-digit powers, a rational approximation of a weight (``approx``)
against its exact sign, and
randomized axiom auditing, which orders real-embedded values through
floor(|b|*sqrt(d)) = isqrt(b^2*d) instead of the main path's sign case
analysis, and membership of c in m^[p^e] tested one e at a time instead
of the classifier's closed form for the least e with c outside it,
and ``json.dumps`` of ``report_json_obj`` and of each command's object
instead of the CLI's JSON lines, which it joins from pre-encoded parts.
``frobenius_restriction`` builds v^p of a monomial valuation, which the
classifier never builds, so tests can check that v and v^p classify alike.
``ORACLES`` is the table of cross-checks that ``frobval selftest`` runs
(``run_selftest``) and the tests run at more trials: one row per check, each
drawing its cases from a random generator.  The mutants that prove the
checks have teeth live with the tests.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, prod
from operator import mul

from . import classifier, cli
from .errors import FrobvalError
from .exact_arith import QuadraticReal
from .function_field import (
    FieldSpec,
    Polynomial,
    PowerSeries,
    RationalFunction,
    eval_poly_as_series,
    multiplicity,
    parse_poly,
    parse_ratfun,
)
from .lexer import Cursor
from .ordered_groups import OrderedGroup
from .valuations import SERIES_START_PRECISION, Divisorial, Monomial, SeriesRestriction, Valuation


def approx(x: QuadraticReal, bits: int = 64) -> Fraction:
    """A rational approximation of a + b*sqrt(d), with sqrt(d) rounded down
    to a multiple of 2^-bits; for sanity checks of the exact sign test."""
    scale = 1 << bits
    return x.a + x.b * Fraction(isqrt(x.d * scale * scale), scale)


def reduce_mod_lattice(vec, basis):
    """Canonical representative of `vec` modulo the lattice spanned by
    echelon `basis` rows (unique for vectors in the rational row span)."""
    v = list(vec)
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        q = v[j] // row[j]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def coset_count_bruteforce(g: OrderedGroup, p: int) -> int:
    """|G / pG| by enumerating all basis combinations with coefficients in
    {0..p-1} and counting distinct canonical residues modulo pG."""
    rank = g.rank
    if rank > 4:
        raise FrobvalError("RANK_TOO_LARGE", f"coset enumeration capped at rank 4, got {rank}")
    if rank == 0:
        return 1
    basis = [list(row) for row in g.basis_int]
    p_basis = [[p * x for x in row] for row in basis]
    seen = set()
    for coeffs in itertools.product(range(p), repeat=rank):
        vec = [0] * g.dim
        for c, row in zip(coeffs, basis):
            vec = [a + c * b for a, b in zip(vec, row)]
        seen.add(reduce_mod_lattice(vec, p_basis))
    return len(seen)


def smith_normal_form(rows):
    """Invariant factors of an integer matrix (nonzero diagonal of the SNF).

    Textbook elimination with both row and column operations; fine at the
    desk scale the oracles run at.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    invariants = []
    top = 0
    while True:
        # find a nonzero entry at or below/right of (top, top)
        pivot = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        a[top], a[i0] = a[i0], a[top]
        for row in a:
            row[top], row[j0] = row[j0], row[top]
        # clear row and column `top` via Euclid
        while True:
            changed = False
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                    changed = True
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for row in a:
                        row[j] -= q * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                    changed = True
            if not changed:
                break
        piv = abs(a[top][top])
        # enforce divisibility d_i | d_{i+1} by folding any non-divisible
        # later entry into the pivot position
        fixed = False
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % piv:
                    a[top] = [x + y for x, y in zip(a[top], a[i])]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        invariants.append(piv)
        top += 1
        if top >= m or top >= n:
            break
    return invariants


@dataclass
class AuditReport:
    passed: bool = True
    failures: list = field(default_factory=list)

    def record(self, kind, detail):
        self.passed = False
        self.failures.append((kind, detail))


def random_polynomial(spec, rng, max_terms=3, max_deg=3):
    """A nonzero polynomial: at least one term, each with a coefficient in
    1..p-1."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(spec.nvars))
        terms[e] = rng.randint(1, spec.p - 1) if spec.p > 2 else 1
    return Polynomial(spec, terms)


def random_ground_polynomial(spec, rng, max_terms=2, max_deg=2):
    """A nonzero polynomial in the ground variables only (empty product = 1)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(
            rng.randint(0, max_deg) if i < spec.m else 0 for i in range(spec.nvars)
        )
        terms[e] = rng.randint(1, spec.p - 1) if spec.p > 2 else 1
    return Polynomial(spec, terms)


def _value_less(a, b, d=None):
    """a < b for integer vectors in lex order (d None) or in the real
    embedding (x, y) -> x + y*sqrt(d), never in tuple order."""
    if d is None:
        return a < b
    x, y = a[0] - b[0], a[1] - b[1]
    if y == 0:
        return x < 0
    # sqrt(d) is irrational, so |y|*sqrt(d) lies strictly between fl and fl + 1
    fl = isqrt(y * y * d)
    return x < -fl if y > 0 else x <= fl


def _values_equal(a, b, d=None):
    return not _value_less(a, b, d) and not _value_less(b, a, d)


def _value_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def axiom_audit(v: Valuation, seed: int, trials: int, max_deg=3, max_terms=3) -> AuditReport:
    """Randomized check of the valuation axioms.

    Samples pairs of nonzero polynomials and asserts multiplicativity, the
    ultrametric inequality, equality in the strict case, and triviality on
    the ground field, comparing values in the order of v's value group.
    Failures carry the counterexample.
    """
    rng = random.Random(seed)
    report = AuditReport()
    spec = v.spec
    d = v.kind.value_group().d
    for _ in range(trials):
        f = random_polynomial(spec, rng, max_terms, max_deg)
        g = random_polynomial(spec, rng, max_terms, max_deg)
        vf = v.value_of_poly(f)
        vg = v.value_of_poly(g)
        vfg = v.value_of_poly(f * g)
        if not _values_equal(vfg, _value_add(vf, vg), d):
            report.record("multiplicativity", (str(f), str(g), vf, vg, vfg))
        h = f + g
        if not h.is_zero():
            vh = v.value_of_poly(h)
            lo = vg if _value_less(vg, vf, d) else vf
            if _value_less(vh, lo, d):
                report.record("ultrametric", (str(f), str(g), vf, vg, vh))
            if not _values_equal(vf, vg, d) and not _values_equal(vh, lo, d):
                report.record("strict-case-equality", (str(f), str(g), vf, vg, vh))
        if spec.m > 0:
            c = random_ground_polynomial(spec, rng)
            vc = v.value_of_poly(c)
            zero = v.value_of_poly(Polynomial.constant(spec, 1))
            if not _values_equal(vc, zero, d):
                report.record("ground-field-triviality", (str(c), vc))
        if report.failures:
            break
    return report


def representative_independence_audit(v: Valuation, seed: int, trials: int) -> AuditReport:
    """v((a*h)/(b*h)) must equal v(a/b) for any nonzero h."""
    rng = random.Random(seed)
    report = AuditReport()
    spec = v.spec
    d = v.kind.value_group().d
    for _ in range(trials):
        a = random_polynomial(spec, rng)
        b = random_polynomial(spec, rng)
        h = random_polynomial(spec, rng)
        v1 = v.value_of(RationalFunction(a, b))
        v2 = v.value_of(RationalFunction(a * h, b * h))
        if not _values_equal(v1, v2, d):
            report.record("representative-independence", (str(a), str(b), str(h), v1, v2))
            break
    return report


# ---------------------------------------------------------------------------
# Reference expansions for the Frobenius-digit fast paths


def _trunc_mul(a, b, p, n):
    out = [0] * n
    for i, ca in enumerate(a):
        if ca == 0 or i >= n:
            continue
        for j, cb in enumerate(b):
            if i + j >= n:
                break
            if cb:
                out[i + j] = (out[i + j] + ca * cb) % p
    return out


def prefix(s: PowerSeries, n: int):
    """The dense coefficients 0..n-1 of s, read from s.terms()."""
    out = [0] * n
    for i, c in s.terms():
        if i >= n:
            break
        out[i] = c
    return out


def power_prefix(s, k: int, n: int):
    """Coefficients 0..n-1 of s^k, by k dense truncated products."""
    result = [1 % s.p] + [0] * (n - 1)
    base = prefix(s, n)
    for _ in range(k):
        result = _trunc_mul(result, base, s.p, n)
    return result


def dense_series_expansion(f: Polynomial, assign: dict, precision: int):
    """Reference for eval_poly_as_series: the coefficients of orders
    0..precision of f under the assignment, from dense power prefixes."""
    spec = f.spec
    n = precision + 1
    p = spec.p
    out = [0] * n
    for e, c in f.terms.items():
        termc = [1] + [0] * (n - 1)
        for name, k in zip(spec.all_vars(), e):
            if k:
                termc = _trunc_mul(termc, power_prefix(assign[name], k, n), p, n)
        out = [(x + c * y) % p for x, y in zip(out, termc)]
    return out


def divide_by_scan(f: Polynomial, g: Polynomial):
    """Reference for function_field.exact_divide: the quotient q with
    f = q*g, or None, taking each leading term of the remainder by a scan
    of the whole remainder instead of from a heap."""
    if g.is_zero():
        raise FrobvalError("DIVISION_BY_ZERO", "division by the zero polynomial")
    p = f.spec.p

    def graded_lex(term):
        return sum(term[0]), term[0]

    lt_e, lt_c = max(g.terms.items(), key=graded_lex)
    lt_c_inv = pow(lt_c, p - 2, p)
    quot = {}
    rem = dict(f.terms)
    while rem:
        e, c = max(rem.items(), key=graded_lex)
        qe = tuple(a - b for a, b in zip(e, lt_e))
        if any(x < 0 for x in qe):
            return None
        qc = (c * lt_c_inv) % p
        quot[qe] = quot.get(qe, 0) + qc
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(qe, e2))
            val = (rem.get(key, 0) - qc * c2) % p
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return Polynomial(f.spec, quot)


def multiplicity_by_units(f: Polynomial, g: Polynomial) -> int:
    """Reference for function_field.multiplicity: divide by g once per
    unit, with the scanning reference division."""
    count = 0
    while (q := divide_by_scan(f, g)) is not None:
        f = q
        count += 1
    return count


def series_recheck(v: Valuation, c, factor: int = 2):
    """Re-evaluate a series-restriction value by dense expansion of the
    polynomial, or of a quotient's numerator and denominator each, to
    `factor` times past the order the main path gives it (at least 16); any
    disagreement is a bug.  A quotient's value bounds neither order."""
    if factor < 2:
        raise ValueError("factor must be at least 2")

    def ord_at(f):
        precision = factor * max(16, v.value_of_poly(f)[0] + 1)
        coeffs = dense_series_expansion(f, v.kind.assign, precision)
        return next((i for i, x in enumerate(coeffs) if x), None)

    if isinstance(c, RationalFunction):
        first, orders = v.value_of(c), (ord_at(c.num), ord_at(c.den))
        again = None if None in orders else orders[0] - orders[1]
    else:
        first, again = v.value_of_poly(c), ord_at(c)
    if first != (again,):
        raise AssertionError(f"series order unstable under precision boost: {first} vs {again}")
    return first


def series_value_unsplit(v: Valuation, f: Polynomial):
    """Reference for SeriesRestriction.value_of_poly: the same term-order
    bound and rounds of precision, from min(16, cap) doubling to the cap,
    but it never takes the value from the initial form, and each round
    expands the whole of f instead of splitting off its monomial content in
    closed form; the value, or the same error."""
    k = v.kind
    orders = [k.assign[name].order for name in v.spec.main_vars]
    bound = min(sum(map(mul, e, orders)) for e in f.terms)
    if bound > k.cap:
        raise FrobvalError("ORD_UNDETERMINED", "series order unresolved below the "
                           f"precision cap ({k.cap}); every term has order at least {bound}")
    precision = min(SERIES_START_PRECISION, k.cap)
    while not (coeffs := eval_poly_as_series(f, k.assign, precision)):
        if precision >= k.cap:
            raise FrobvalError(
                "ORD_UNDETERMINED",
                "series order unresolved below the precision cap "
                f"({k.cap}); the assignment may satisfy an algebraic relation"
            )
        precision = min(2 * precision, k.cap)
    return (min(coeffs),)


def power_by_squaring(f: Polynomial, k: int) -> Polynomial:
    """Reference for Polynomial.__pow__: f^k by binary squaring."""
    result = Polynomial.constant(f.spec, 1)
    while k:
        if k & 1:
            result = result * f
        f = f * f
        k >>= 1
    return result


def parse_ratfun_by_atoms(text: str, spec) -> RationalFunction:
    """Reference for parse_ratfun: every atom becomes a Polynomial, and every
    sum, product and power is one Polynomial operation."""
    cur = Cursor(text)
    num = _expr_by_atoms(cur, spec)
    den = _expr_by_atoms(cur, spec) if cur.accept("/") else Polynomial.constant(spec, 1)
    cur.expect_end()
    return RationalFunction(num, den)


def _expr_by_atoms(cur, spec):
    if cur.accept("-"):
        result = -_term_by_atoms(cur, spec)
    else:
        cur.accept("+")
        result = _term_by_atoms(cur, spec)
    while True:
        if cur.accept("+"):
            result = result + _term_by_atoms(cur, spec)
        elif cur.accept("-"):
            result = result - _term_by_atoms(cur, spec)
        else:
            return result


def _term_by_atoms(cur, spec):
    result = _factor_by_atoms(cur, spec)
    while cur.accept("*"):
        result = result * _factor_by_atoms(cur, spec)
    return result


def _factor_by_atoms(cur, spec):
    result = _atom_by_atoms(cur, spec)
    while cur.accept("^"):
        result = power_by_squaring(result, cur.take_int())
    return result


def _atom_by_atoms(cur, spec):
    if cur.at_int():
        return Polynomial.constant(spec, cur.take_int())
    if cur.accept("("):
        inner = _expr_by_atoms(cur, spec)
        cur.expect(")")
        return inner
    if cur.accept("-"):
        return -_atom_by_atoms(cur, spec)
    return Polynomial(spec, {spec.unit(cur.take_name("integer", "'('")): 1})


def random_expression(spec, rng) -> str:
    """A random polynomial text over spec's variables: sums, products,
    parentheses nested two deep, runs of unary minus, exponents up to 3p
    (^0 included) and coefficients that may be multiples of p.  Every term
    has total degree at most 3p: the factors of a product share that
    budget, a parenthesized factor is drawn within its share and an
    exponent is cut to fit, which keeps the squaring reference fast."""
    p = spec.p
    names = spec.all_vars()

    # draws of 0 (the least random input) give the simplest text, x
    def factor(d, budget):
        """(text, degree) of a factor of degree at most `budget`."""
        if d and rng.random() > 0.7:
            text, deg = expr(d - 1, budget)
            text = f"({text})"
        elif not budget or rng.random() > 0.6:
            text, deg = str(rng.choice([0, 1, p, 2 * p + 1, rng.randint(0, 3 * p)])), 0
        else:
            text, deg = rng.choice(names), 1
        text = "-" * rng.choice([0, 0, 0, 1, 2, 3]) + text
        while rng.random() > 0.65:
            k = min(rng.randint(0, 3 * p), budget // max(deg, 1))
            text, deg = f"{text}^{k}", deg * k
        return text, deg

    def term(d, budget):
        texts, total = [], 0
        for _ in range(rng.randint(1, 3)):
            text, deg = factor(d, budget - total)
            texts.append(text)
            total += deg
        return "*".join(texts), total

    def expr(d, budget):
        text, deg = term(d, budget)
        text = rng.choice(["", "", "-", "+"]) + text
        for _ in range(rng.randint(0, 3)):
            t, k = term(d, budget)
            text, deg = text + rng.choice([" + ", " - "]) + t, max(deg, k)
        return text, deg

    return expr(2, 3 * p)[0]


def random_flat_text(spec, rng) -> str:
    """A random text with no parentheses: a sum of up to six signed
    products of variables and coefficients (multiples of p among them),
    each maybe raised to one exponent up to 3p, or a quotient of two such
    sums.  One whitespace string, maybe empty, stands around every
    operator."""
    p, ws = spec.p, rng.choice(["", " ", "\t", "\x1f", "\u00a0"])

    def factor():
        c = rng.choice([1, p, 2 * p + 1, rng.randint(0, 3 * p)])
        text = rng.choice([*spec.all_vars(), str(c)])
        return f"{text}{ws}^{ws}{rng.randint(0, 3 * p)}" if rng.random() < 0.4 else text

    def flat_sum():
        text = rng.choice(["", "-", "+"])
        for i in range(rng.randint(1, 6)):
            product = f"{ws}*{ws}".join(factor() for _ in range(rng.randint(1, 3)))
            text += (f"{ws}{rng.choice('+-')}{ws}" if i else ws) + product
        return text

    return flat_sum() + (f"{ws}/{ws}{flat_sum()}" if rng.random() < 0.5 else "")


def reader_agrees(text: str, spec) -> bool:
    """parse_ratfun and parse_ratfun_by_atoms read `text` to the same
    numerator and denominator, or fail with the same error code."""

    def outcome(read):
        try:
            r = read(text, spec)
        except FrobvalError as exc:
            return exc.code
        return r.num, r.den

    return outcome(parse_ratfun) == outcome(parse_ratfun_by_atoms)


# ---------------------------------------------------------------------------
# The Frobenius restriction, and the reference for the closed-form
# splitting-prime test


def frobenius_restriction(v: Valuation) -> Valuation:
    """v^p on K^p, presented on K by relabeling p-th powers: W scales by p
    in the same order, giving the order-isomorphic value group p*Gamma."""
    k = v.kind
    if not isinstance(k, Monomial):
        raise FrobvalError(
            "UNSUPPORTED_KIND",
            "frobenius_restriction supports monomial kinds only; divisorial "
            "and series restrictions are handled analytically by the classifier"
        )
    p = v.spec.p
    weights = {name: tuple(p * x for x in w) for name, w in k.weights.items()}
    return Valuation(Monomial(v.spec, weights, k.d, k.denom))


def in_mp_e(v: Valuation, c: RationalFunction, e: int) -> bool:
    """Membership of c in m^[p^e].

    With a least positive element g the ideal m^[p^e] is generated by values
    >= p^e * g; with a dense value group, m = m^[p] and the condition is
    just v(c) > 0.
    """
    val = v.value_of(c)
    group = v.kind.value_group()
    g = group.least_positive()
    if g is None:
        return group.sign(val) > 0
    return group.sign(tuple(a - v.spec.p**e * x for a, x in zip(val, g))) >= 0


def least_pure_exponent_by_loop(v: Valuation, c: RationalFunction, e_max: int):
    """Reference for classifier.least_pure_exponent: the least e <= e_max
    with c outside m^[p^e], or None when c lies in m^[p^e] for all of them
    (for c in Q; any other c leaves by e_max once p^e_max exceeds the
    multiple of the least positive element that v(c) is)."""
    for e in range(1, e_max + 1):
        if not in_mp_e(v, c, e):
            return e
    return None


# ---------------------------------------------------------------------------
# The reference JSON objects of the CLI's lines


def report_json_obj(report) -> dict:
    """The JSON object of a ClassificationReport, as ``classify`` prints it."""
    return {
        "schema": 1,
        "kind": report.kind,
        "e": report.e,
        "f": report.f_deg,
        "K_Kp": report.K_Kp,
        "s": report.s,
        "t": report.t,
        "abhyankar": {
            "geometric": report.abhyankar_geometric,
            "numeric": report.abhyankar_numeric,
        },
        "divisorial": report.divisorial,
        "noetherian": report.noetherian,
        "m_principal": report.m_principal,
        "dim_V_mod_mp": report.dim_V_mod_mp,
        "Q": report.Q._asdict(),
        "caveats": sorted(report.caveats),
        **{name: {"value": getattr(report, name).value,
                  "citations": sorted(set(getattr(report, name).reasons))}
           for name in classifier.VERDICTS},
    }


# ---------------------------------------------------------------------------
# The oracle table: one row per cross-check of ``frobval selftest``


def det3(m):
    """The determinant of a 3 x 3 integer matrix, by cofactors."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _index_trial(rng):
    r = rng.randint(1, 3)
    gens = [tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(rng.randint(1, 3))]
    if not any(any(g) for g in gens):
        return None
    g = OrderedGroup.from_generators(gens)
    p = rng.choice([2, 3, 5])
    formula, brute = g.index_p(p), coset_count_bruteforce(g, p)
    if formula != brute:
        return f"index_p vs coset enumeration of {gens} at p={p}: {formula} != {brute}"


def _snf_trial(rng):
    # the invariants: a chain d_i | d_(i+1) of product |det|, or fewer than 3 if det = 0
    mat = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
    inv, det = smith_normal_form(mat), det3(mat)
    if any(b % a for a, b in zip(inv, inv[1:])) or (
            prod(inv) != abs(det) if det else len(inv) == 3):
        return f"snf invariants {inv} of {mat} vs det {det}"


def _trial_valuations(rng):
    """One valuation of each kind over F_p(x, y), by its name in a script;
    lex and real of rank 1 or 2, so verdicts cite every rule they can."""
    p, a = rng.choice([2, 3, 5]), rng.randint(0, 2)
    spec = FieldSpec(p, (), ("x", "y"))
    lex = rng.choice([{"x": (1, 0), "y": (a, 1)}, {"x": (1,), "y": (a + 1,)}])
    real = rng.choice([{"x": (1, 0), "y": (0, 1)}, {"x": (2, 0), "y": (2 * a + 1, 0)}])
    return {
        "l": Valuation(Monomial(spec, lex)),
        "m": Valuation(Monomial(spec, real, d=rng.choice([2, 3]))),
        "d": Valuation(Divisorial(parse_poly(rng.choice(["x + y", "x*y + 1"]), spec))),
        "s": Valuation(SeriesRestriction(spec, {
            "x": PowerSeries.from_polynomial_coeffs(p, {1: 1}, name="t"),
            "y": PowerSeries.factorial_gap(p)})),
    }


def _axiom_trial(rng):
    v = rng.choice(list(_trial_valuations(rng).values()))
    audit = axiom_audit(v, seed=rng.getrandbits(32), trials=1)
    return None if audit.passed else f"valuation axiom {audit.failures[0]} of {v.kind.describe()}"


def _reader_trial(rng):
    ground = ("u", "w")[: rng.randint(0, 2)]
    spec = FieldSpec(rng.choice([2, 3, 5, 7]), ground, ("x", "y"))
    # a parenthesized denominator sends a text to the token reader; a flat
    # text is read without tokens
    if rng.random() < 0.5:
        text = f"{random_expression(spec, rng)}/({random_expression(spec, rng)})"
    else:
        text = random_flat_text(spec, rng)
    if not reader_agrees(text, spec):
        return f"reader vs per-atom reference on {text!r} at p={spec.p}"


def _multiplicity_trial(rng):
    # a quarter of the g are a main variable, which a term of f can exceed in
    # degree without being its multiple; another quarter are x*y + c, whose
    # digit powers g^q can have a higher total degree than f = g^k*(x^a + y^a)
    p = rng.choice([2, 3, 5])
    spec = FieldSpec(p, ("u",)[: rng.randint(0, 1)], ("x", "y"))
    x, y = (Polynomial(spec, {spec.unit(name): 1}) for name in "xy")
    g = random_polynomial(spec, rng, max_terms=2, max_deg=2)
    h = random_polynomial(spec, rng, max_deg=2)
    case = rng.randrange(4)
    if case == 0:
        g = rng.choice([x, y])
    elif case == 1:
        a = rng.randint(1, 4)
        g = x * y + Polynomial.constant(spec, rng.randint(1, p - 1))
        h = x**a + y**a
    elif not any(map(any, g.terms)):
        g = g + x
    f = g ** rng.randint(0, 2 * p + 1) * h
    if multiplicity(f, g) != multiplicity_by_units(f, g):
        return f"multiplicity of {g} in {f} at p={p}"


def _series_trial(rng):
    # x is c*t^i or of order 1, in F_p(t), and y is factorial_gap, taken to be
    # transcendental over F_p(t), so every order is finite; for x = c*t^i the
    # factor y^(i*a) - c^-a*x^a cancels its leading term, which needs c^a
    p = rng.choice([2, 3, 5])
    spec, c = FieldSpec(p, (), ("x", "y")), rng.randint(1, p - 1)
    f = random_polynomial(spec, rng)
    if rng.random() < 0.5:
        xs = {1: c, 2: rng.randint(0, p - 1)}
    else:
        i, a = rng.randint(1, 4), rng.randint(1, 3)
        xs = {i: c}
        f = f * Polynomial(spec, {(0, i * a): 1, (a, 0): -pow(c, -a, p)})
    if rng.random() < 0.5:
        # monomial content, whose order the main path takes in closed form
        f = f * Polynomial(spec, {(rng.randint(0, 4), rng.randint(0, 4)): 1})
    assign = {"x": PowerSeries.from_polynomial_coeffs(p, xs),
              "y": PowerSeries.factorial_gap(p)}
    try:
        series_recheck(Valuation(SeriesRestriction(spec, assign)), f)
    except (AssertionError, FrobvalError) as exc:
        return f"series order of {f} under x -> {xs} at p={p}: {exc}"


def _splitting_prime_trial(rng):
    # one valuation of each kind, with h = hn/hd of value the least positive
    # element (None if the group is dense in R) and t of positive value; c is
    # h^k times the unit 1 + t*P of the valuation ring, for k at and next to
    # p^e, or a random quotient
    p, a = rng.choice([2, 3, 5]), rng.randint(0, 2)
    kind = rng.choice(("lex", "real rank 1", "real rank 2", "divisorial", "series"))
    spec = FieldSpec(p, ("u",)[: rng.randint(0, kind != "series")], ("x", "y"))
    h, t = ("y", f"x^{a}"), "x*y"
    if kind == "lex":
        v = Valuation(Monomial(spec, {"x": (1, 0), "y": (a, 1)}))
    elif kind == "real rank 1":
        # v(x) = 2 and v(y) = 2a + 1, so v(y/x^a) = 1
        v = Valuation(Monomial(spec, {"x": (2, 0), "y": (2 * a + 1, 0)}, d=2))
    elif kind == "real rank 2":
        v, h = Valuation(Monomial(spec, {"x": (1, 0), "y": (a, 1)}, d=rng.choice([2, 3]))), None
    elif kind == "divisorial":
        g = rng.choice(["x + y", "x*y + 1", f"x - y^{a + 1}"] + ["x + u*y"] * spec.m)
        v, h, t = Valuation(Divisorial(parse_poly(g, spec))), (g, "1"), g
    else:
        v, h = Valuation(SeriesRestriction(spec, {
            "x": PowerSeries.from_polynomial_coeffs(p, {1: 1}),
            "y": PowerSeries.factorial_gap(p)})), ("x", "1")
    if h is not None and rng.random() < 0.7:
        e = rng.randint(1, 2)
        k = rng.choice([p**e - 1, p**e, p**e + 1, rng.randint(-2, 2)])
        hn, hd = (parse_poly(text, spec) ** abs(k) for text in h)
        unit = parse_poly(t, spec) * random_polynomial(spec, rng) + Polynomial.constant(spec, 1)
        unit = unit * random_ground_polynomial(spec, rng)
        c = RationalFunction(hn * unit, hd) if k >= 0 else RationalFunction(hd * unit, hn)
    else:
        c = RationalFunction(random_polynomial(spec, rng), random_polynomial(spec, rng))
    # every value drawn here is below p^8 times the least positive element
    fast, member = classifier.least_pure_exponent(v, c), classifier.in_Q(v, c)
    slow = least_pure_exponent_by_loop(v, c, 8)
    if fast != slow or member != (slow is None):
        return (f"splitting prime of ({c.num})/({c.den}) under {v.kind.describe()} at p={p}: "
                f"least exponent {fast} (in Q {member}) vs {slow} by the loop")


def _json_trial(rng):
    # one valuation of each kind, built here and declared by its kind text;
    # random quotients, whose least pure exponent is an int or None, spaced
    # by tabs and \x1f, which JSON escapes
    vals = _trial_valuations(rng)
    spec = vals["l"].spec
    decls, cmds, want = [f"field p={spec.p} vars(x,y)"], [], []
    for name, v in vals.items():
        decls.append(f"valuation {name} = {v.kind.describe()}")
        report = classifier.classify(v)
        obj = report_json_obj(report)
        cmds += [f"classify {name}", f"report {name}"]
        want += [obj, {**obj, "op": "report", "valuation": name, "value_group_rank": report.s}]
        for _ in range(2):
            c = RationalFunction(random_polynomial(spec, rng), random_polynomial(spec, rng))
            expr = f"({c.num})/({c.den})".replace(" ", rng.choice([" ", "\t", "\x1f", ""]))
            exp = classifier.least_pure_exponent(v, c)
            head = {"schema": 1, "valuation": name, "expr": expr}
            cmds += [f"{op} {name} {expr}" for op in ("eval", "inQ", "pure-along")]
            want += [{**head, "op": "eval", "value": v.kind.format_value(v.value_of(c))},
                     {**head, "op": "inQ", "in_Q": exp is None},
                     {**head, "op": "pure-along", "f_pure_along": exp is not None,
                      "least_pure_exponent": exp}]
    want = [json.dumps(obj, sort_keys=True, separators=(", ", ": ")) for obj in want]
    code, out = cli.run_script("\n".join(decls + cmds) + "\n", fmt="json")
    if code or out != want:
        i = next(i for i, (a, b) in enumerate(zip(out + [None], want)) if a != b)
        return (f"JSON line of {cmds[i]!r} after {'; '.join(decls)}: "
                f"{out[i:i + 1]} vs json.dumps {want[i]}")


# One row per cross-check: the line printed when every trial agrees, the line
# printed otherwise, the trials per run, and trial(rng), which draws one case
# from rng, checks it and returns None or a text naming what disagreed.
ORACLES = (
    ("index_p vs coset enumeration: ok", "index_p: FAILED", 20, _index_trial),
    ("snf invariant product vs det: ok", "snf: FAILED", 10, _snf_trial),
    ("valuation axiom audit (200 trials): ok", "axiom audit: FAILED", 200, _axiom_trial),
    ("reader vs per-atom reference (40 expressions): ok", "reader: FAILED", 40, _reader_trial),
    ("multiplicities vs unit-by-unit division (60 evaluations): ok",
     "multiplicities: FAILED", 60, _multiplicity_trial),
    ("series orders vs dense re-expansion (60 evaluations): ok",
     "series orders: FAILED", 60, _series_trial),
    ("splitting prime vs m^[p^e] loop (60 elements): ok",
     "splitting prime: FAILED", 60, _splitting_prime_trial),
    ("JSON lines vs json.dumps (20 scripts): ok", "JSON lines: FAILED", 20, _json_trial),
)


def run_selftest(seed=0) -> tuple:
    """The rows of ``ORACLES`` for ``frobval selftest``: a FAIL line per
    disagreement and one summary line per row; returns (ok, lines).  Each row
    draws from its own generator, seeded from `seed` and the row, so no row
    changes another's cases.  It lives here, so only that command loads the
    cross-checks."""
    ok, lines = True, []
    for ok_line, failed_line, trials, trial in ORACLES:
        rng = random.Random(f"{seed}:{ok_line}")
        fails = [f"FAIL {text}" for text in (trial(rng) for _ in range(trials)) if text]
        ok = ok and not fails
        lines += [*fails, failed_line if fails else ok_line]
    return ok, lines

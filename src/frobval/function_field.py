"""The ambient field K = F_p(u_1..u_m, x_1..x_n).

Ground variables u model the imperfection of the coefficient field: the
ground field is k = F_p(u_1..u_m) with [k:k^p] = p^m, and [K:K^p] = p^(m+n).
Coefficients themselves always live in the prime field F_p.

Polynomials are sparse maps from exponent vectors (length m+n) to nonzero
residues mod p.  Rational functions are unreduced num/den pairs; equality is
by cross multiplication, so no multivariate gcd is ever needed.
``parse_ratfun`` reads a flat text, with no parentheses, by splitting it on
its operators (``_read_flat``), and hands every other text to the token
reader, a recursive descent over the script language's token cursor
(``lexer.Cursor``) that keeps the whole grammar and raises every parse
error: ``read_poly`` reads one polynomial from a cursor shared with its
caller, and ``parse_poly`` and ``parse_ratfun`` read a whole text.
A product of constants, variables, unary minus signs and their powers is
read as one monomial term, a coefficient and an exponent list indexed by
variable (``FieldSpec.index``), in one loop over the tokens; only
parentheses recurse.  A sum collects its terms in one dict, so only a
product or power of a parenthesized group multiplies polynomials.  The
power of a one-term group c*m is c^k*m^k at once; any other power is built
from the base-p digits of its exponent, f^k = prod_j (f^(d_j))^(p^j), where
each f^(d_j) is found by binary squaring and each p^j-th power only scales
exponents (below).
Brackets nest at most ``lexer.NESTING_LIMIT`` deep.

Power series, used by series-restriction valuations, are given by their
nonzero terms in ascending index order, read only as far as a precision
needs; the order of a series is the index of its first term.  Truncations
are sparse {index: coeff} maps.  A power s^k is built from the base-p digits
of k, since over F_p s^(p^j) is s with every index times p^j, and a digit
power from its two memoized halves, so it keeps O(log k) truncations.  A
one-term series c*t^i, found from its terms when it is built, is raised in
closed form, to c^k*t^(i*k), before any memo or prefix is read, and a one-term
truncation multiplies as a shift of every index by i.
The same identity turns g^(p^j) into g with its exponents scaled, which the
multiplicity of g in f uses to divide by whole digits of p.  Exact
division runs on packed monomials: an exponent vector packs into one
integer whose top field is the total degree, so integer order is graded-lex
order, a sum of exponents is a sum of integers, and one subtraction against
guard bits tests divisibility.  The remainder is a dict and a heap of those
integers, so a quotient term costs one heap pop and one update per term of
g, not a scan of the whole remainder.  The multiplicity of g in f packs f
and g once, and packing is linear, so g^(p^j) packed is g packed with every
key times p^j.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, mul

from .errors import FrobvalError
from .exact_arith import is_prime
from .lexer import DIGITS, LITERAL_DIGIT_LIMIT, Cursor, literal_int


class FieldSpec:
    """K = F_p(ground_vars + main_vars) with k = F_p(ground_vars).  Specs
    compare by p and the names; the counts `m`, `n` and `nvars` of ground,
    main and all variables and `index` (each variable's position in an
    exponent vector) derive from them."""

    __slots__ = ("p", "ground_vars", "main_vars", "m", "n", "nvars", "index")

    def __init__(self, p: int, ground_vars, main_vars):
        self.p = p
        self.ground_vars = ground_vars = tuple(ground_vars)
        self.main_vars = main_vars = tuple(main_vars)
        self.m = len(ground_vars)
        self.n = len(main_vars)
        self.nvars = self.m + self.n
        if not is_prime(p):
            raise FrobvalError("P_NOT_PRIME", f"p must be prime, got {p}")
        names = ground_vars + main_vars
        if len(set(names)) != len(names):
            raise FrobvalError("DUPLICATE_VARIABLE", "variable names must be distinct")
        if len(main_vars) < 1:
            raise FrobvalError("NO_MAIN_VARIABLE", "at least one main variable is required")
        self.index = {name: i for i, name in enumerate(names)}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.ground_vars, self.main_vars) == (
            other.p, other.ground_vars, other.main_vars)

    def __hash__(self):
        return hash((self.p, self.ground_vars, self.main_vars))

    def unit(self, name: str) -> tuple:
        """The exponent vector of the variable `name`."""
        i = self.index.get(name)
        if i is None:
            raise FrobvalError("UNKNOWN_VARIABLE", f"unknown variable {name!r}")
        return tuple(int(i == j) for j in range(self.nvars))

    def all_vars(self):
        return self.ground_vars + self.main_vars

    def field_p_degree(self) -> int:
        """[K:K^p] = p^(m+n)."""
        return self.p ** self.nvars


def _graded_lex(term):
    """Sort key of an (exponent, coeff) term: graded lex on full exponents."""
    return (sum(term[0]), term[0])


def monomial_text(names, exps) -> str:
    """``name`` or ``name^k`` for each nonzero exponent k, joined by '*' ('' for 1)."""
    return "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(names, exps) if k)


class Polynomial:
    """Sparse element of F_p[ground_vars, main_vars]."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms: dict):
        self.spec = spec
        p = spec.p
        self.terms = {e: r for e, c in terms.items() if (r := c % p)}

    @classmethod
    def constant(cls, spec, c):
        return cls(spec, {(0,) * spec.nvars: c})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.spec != other.spec:
            raise FrobvalError("SPEC_MISMATCH", "polynomials over different field specs")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.spec, out)

    def __neg__(self):
        return Polynomial(self.spec, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.spec, out)

    def __pow__(self, k: int):
        """self^k for k >= 0.  A one-term self c*m gives c^k mod p times m
        with every exponent times k, at once, however large k is.  Otherwise
        self^k is the product over the base-p digits d_j of k of self^(d_j)
        with exponents scaled by p^j; each self^(d_j) comes from binary
        squaring, since p may be large."""
        if k < 0:
            raise ValueError(f"a polynomial power needs an exponent k >= 0, got {k}")
        spec = self.spec
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return Polynomial(spec, {tuple(k * a for a in e): pow(c, k, spec.p)})
        result = None
        q = 1
        while k:
            k, d = divmod(k, spec.p)
            if d:
                factor = self._small_power(d)
                if q > 1:
                    factor = factor.frobenius(q)
                result = factor if result is None else result * factor
            q *= spec.p
        return Polynomial.constant(spec, 1) if result is None else result

    def _small_power(self, d: int):
        """self^d for d >= 1, by binary squaring."""
        base, result = self, None
        while True:
            if d & 1:
                result = base if result is None else result * base
            d >>= 1
            if not d:
                return result
            base = base * base

    def frobenius(self, q: int):
        """self^q for q a power of p: coefficients in F_p are fixed by
        Frobenius, so only the exponents scale by q."""
        return Polynomial(
            self.spec, {tuple(q * a for a in e): c for e, c in self.terms.items()}
        )

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def uses_main_var(self) -> bool:
        m = self.spec.m
        return any(any(e[m:]) for e in self.terms)

    def __str__(self):
        names = self.spec.all_vars()
        parts = []
        for e, c in sorted(self.terms.items(), key=_graded_lex, reverse=True):
            mono = monomial_text(names, e)
            if mono and c != 1:
                mono = f"{c}*{mono}"
            parts.append(mono or str(c))
        return " + ".join(parts) or "0"

    __repr__ = __str__


class RationalFunction:
    """Unreduced fraction num/den; equality via cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise FrobvalError("ZERO_DENOMINATOR", "zero denominator")
        if num.spec != den.spec:
            raise FrobvalError("SPEC_MISMATCH", "numerator and denominator over different specs")
        self.num = num
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)


# ---------------------------------------------------------------------------
# Expression parser


def read_poly(cur: Cursor, spec: FieldSpec) -> Polynomial:
    """Read a polynomial from the cursor, by recursive descent over

        expr   -> ['+'|'-'] term (('+'|'-') term)*    the loop of read_poly
        term   -> factor ('*' factor)*                the loop of _read_term
        factor -> '-'* atom ('^' int)*                one pass of that loop
        atom   -> int | ident | '(' expr ')'          '(' recurses here

    A term whose factors are integers, variables and their powers stays
    one monomial, a coefficient mod p and an exponent list; '^k' takes the
    k-th power of the coefficient and scales the exponents by k.  A sum
    adds its terms into one dict and builds one Polynomial at the end.
    Every parenthesized atom is read here, raised as a Polynomial
    (``Polynomial.__pow__``) and multiplied into its term's product.
    Parentheses nest at most lexer.NESTING_LIMIT deep.

    '/' is not part of the polynomial grammar; parse_ratfun handles the one
    top-level division.
    """
    tokens = cur.tokens
    terms = {}
    sign = -1 if tokens[cur.i] == "-" else 1
    if tokens[cur.i] in ("-", "+"):
        cur.i += 1
    while True:
        _read_term(cur, spec, terms, sign)
        tok = tokens[cur.i]
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            return Polynomial(spec, terms)
        cur.i += 1


def _read_term(cur, spec, terms, sign):
    """Add `sign` times one product of factors into the sum `terms`.

    Every factor is read in this loop straight from the tokens: a run of
    unary '-', which negates the atom, so its '^' chain raises the sign
    too; the atom; and the '^' chain, whose exponents multiply.  The sign,
    and an integer atom, go into the coefficient, and a variable into one
    exponent list indexed by variable; a parenthesized atom, whatever its
    number of terms, is read by ``read_poly``, raised with '**' and
    multiplied into the product.
    """
    p, index, tokens = spec.p, spec.index, cur.tokens
    c, exps, poly = 1, [0] * len(index), None
    i = cur.i
    while True:
        tok = tokens[i]
        b, f = 1, None  # the factor's sign times its integer, and its parenthesized group
        while tok == "-":
            b = -b
            i += 1
            tok = tokens[i]
        j = index.get(tok)
        if j is not None:
            i += 1
        elif tok[:1] in DIGITS:
            b *= literal_int(tok)  # before its exponents, left to right
            i += 1
        else:
            cur.i = i
            if not cur.open("("):
                # a name that is not a variable, or a token that starts no
                # factor: both fail here
                spec.unit(cur.take_name("integer", "'('"))
            f = read_poly(cur, spec)
            cur.close(")")
            i = cur.i
        k = 1
        while tokens[i] == "^":
            i += 1
            if tokens[i][:1] not in DIGITS:
                cur.i = i
                raise cur.fail("integer")
            k *= literal_int(tokens[i])
            i += 1
        if j is not None:
            exps[j] += k
        elif f is not None:
            f = f**k
            poly = f if poly is None else poly * f
        if b != 1:
            c *= pow(b, k, p)
        if tokens[i] != "*":
            break
        i += 1
    cur.i = i
    c %= p
    e = tuple(exps)
    if poly is None:
        terms[e] = terms.get(e, 0) + sign * c
        return
    if c != 1 or any(e):
        poly = poly * Polynomial(spec, {e: c})
    for e, c in poly.terms.items():
        terms[e] = terms.get(e, 0) + sign * c


def parse_poly(text: str, spec: FieldSpec) -> Polynomial:
    cur = Cursor(text)
    result = read_poly(cur, spec)
    cur.expect_end()
    return result


def parse_ratfun(text: str, spec: FieldSpec) -> RationalFunction:
    """The fraction `text` reads to: by ``_read_flat`` when it recognises
    the whole text, else by ``_read_tokens``, which keeps the whole grammar
    and raises every parse error."""
    r = _read_flat(text, spec)
    return _read_tokens(text, spec) if r is None else r


def _read_tokens(text: str, spec: FieldSpec) -> RationalFunction:
    """The fraction `text` reads to, by ``read_poly`` over its tokens."""
    cur = Cursor(text)
    num = read_poly(cur, spec)
    den = read_poly(cur, spec) if cur.accept("/") else Polynomial.constant(spec, 1)
    cur.expect_end()
    return RationalFunction(num, den)


def _read_flat(text: str, spec: FieldSpec):
    """The fraction a flat `text` reads to, split on its operators without
    tokens; None when this reader does not recognise all of it, for the
    token reader to read it to the same fraction or error.

    A text with no '(' and at most LITERAL_DIGIT_LIMIT characters (so no
    literal in it is too long) splits at its first '/', each side on '+' and
    '-', each term on '*' and each factor at its first '^'.  With the
    whitespace around them stripped, a base must be a field variable or
    ASCII digits and an exponent ASCII digits; a side may open with one
    sign, and no term or factor may be empty.  So whitespace inside a base
    or an exponent (``x y``, ``2 3``), a second '/' or '^', ``--x``,
    ``x*-y`` and ``x**2`` are handed over.  Each distinct factor text is
    read once per call, to a variable index and exponent or a coefficient
    power mod p.
    """
    if "(" in text or len(text) > LITERAL_DIGIT_LIMIT:
        return None
    num, slash, den = text.partition("/")
    p, index = spec.p, spec.index
    memo = {}  # factor text -> (variable index, exponent) or (None, coefficient power)
    sums = []
    for side in (num, den) if slash else (num,):
        terms = {}
        parts = side.replace("-", "+-").split("+")  # each '-' starts a term
        if len(parts) > 1 and not parts[0].strip():
            del parts[0]  # before the sign of the first term
        for term in parts:
            sign = 1
            if term[:1] == "-":
                sign, term = -1, term[1:]
            c, exps = 1, [0] * len(index)
            for f in term.strip().split("*"):
                r = memo.get(f)
                if r is None:
                    base, caret, k = f.partition("^")
                    base, k = base.strip(), k.strip() if caret else "1"
                    if not (k.isdigit() and k.isascii()):
                        return None
                    j = index.get(base)
                    if j is not None:
                        r = j, int(k)
                    elif base.isdigit() and base.isascii():
                        r = None, pow(int(base), int(k), p)
                    else:
                        return None
                    memo[f] = r
                j, k = r
                if j is None:
                    c *= k
                else:
                    exps[j] += k
            e = tuple(exps)
            terms[e] = terms.get(e, 0) + sign * c
        sums.append(Polynomial(spec, terms))
    if not slash:
        sums.append(Polynomial.constant(spec, 1))
    return RationalFunction(*sums)


def _packing(n: int, degree: int):
    """The field width w, the weights and the guard mask that pack exponent
    vectors of length n and total degree at most `degree` into integers.

    pack(e) = sum(e_i * weights_i), with weights_i = 2^(n*w) + 2^((n-1-i)*w):
    field n holds the total degree and field n-1-i the exponent of variable
    i, so integer order is the graded-lex order of ``_graded_lex``.  Each
    field is w bits wide, its top bit a guard that no exponent reaches, and
    the guard mask has the guard bit of every field set.
    """
    w = degree.bit_length() + 1
    top = 1 << (n * w)
    weights = [top + (1 << ((n - 1 - i) * w)) for i in range(n)]
    guard = sum(1 << (j * w + w - 1) for j in range(n + 1))
    return w, weights, guard


def _pack(f: Polynomial, weights) -> dict:
    """The terms of f keyed by packed exponent."""
    return {sum(map(mul, e, weights)): c for e, c in f.terms.items()}


def _divide_packed(f: dict, g: dict, guard: int, p: int):
    """The quotient of f by g as a {packed monomial: coeff} map if g
    divides f exactly, else None; f and g are nonzero-coefficient maps
    over one packing, and g is not zero.

    Greedy reduction by the leading term lt of g in graded-lex order: when
    g divides f, the leading term of every remainder is divisible by lt, so
    the reduction ends at zero exactly in the divisible case.  A monomial k
    is divisible by lt when no field of ((k | guard) - lt) borrows from its
    guard bit, and the quotient monomial is that difference with the guard
    bits cleared.  The remainder is a dict and a heap of negated keys, so
    its leading term is the least heap entry (S. C. Johnson, *Sparse
    polynomial arithmetic*, 1974; packed keys as in M. Monagan and R.
    Pearce, *Polynomial division using dynamic arrays, heaps, and packed
    exponent vectors*, CASC 2007).  A term that cancels keeps its key with
    coefficient 0 and is skipped when popped; a key is pushed only when a
    subtraction creates a new term, and every such term lies below the
    leading term just taken, so each key is pushed and popped once.  f is
    copied only after lt is seen to divide the leading term of f, so the
    common non-divisible case costs one scan of each.
    """
    lt = max(g)
    if f and ((max(f) | guard) - lt) & guard != guard:
        return None
    lt_c_inv = pow(g[lt], -1, p)
    tail = [(k, c) for k, c in g.items() if k != lt]
    rem = dict(f)
    heap = [-k for k in rem]
    heapify(heap)
    quot = {}
    while heap:
        k = -heappop(heap)
        c = rem[k]
        if not c:
            continue
        d = (k | guard) - lt
        if d & guard != guard:
            return None
        qk = d ^ guard
        qc = quot[qk] = c * lt_c_inv % p
        for k2, c2 in tail:
            key = qk + k2
            old = rem.get(key)
            if old is None:
                rem[key] = -qc * c2 % p
                heappush(heap, -key)
            else:
                rem[key] = (old - qc * c2) % p
    return quot


def exact_divide(f: Polynomial, g: Polynomial):
    """Quotient q with f = q*g if g divides f exactly, else None.

    f and g are packed over one packing wide enough for both total
    degrees, divided by ``_divide_packed``, and the quotient is unpacked.
    """
    if g.is_zero():
        raise FrobvalError("DIVISION_BY_ZERO", "division by the zero polynomial")
    spec = f.spec
    n = spec.nvars
    w, weights, guard = _packing(n, max(map(sum, [*f.terms, *g.terms])))
    quot = _divide_packed(_pack(f, weights), _pack(g, weights), guard, spec.p)
    if quot is None:
        return None
    mask = (1 << w) - 1
    shifts = [(n - 1 - i) * w for i in range(n)]
    return Polynomial(spec, {tuple(k >> s & mask for s in shifts): c for k, c in quot.items()})


def multiplicity(f: Polynomial, g: Polynomial) -> int:
    """The largest m with g^m dividing f, for nonzero f and nonconstant g.

    A one-term f needs no division: a product that is a monomial has only
    monomial factors, so m is 0 for a g of two or more terms, and for a
    one-term g it is the least quotient of their exponents.  Otherwise f
    and g are packed once (``_packing``) and every division runs on packed
    monomials.  One division by g settles the common case m = 0, and then
    the base-p digits of m are found from the top down: g^q for q = p^j has
    its exponents scaled by q, and packing is linear, so packed g^q is g
    with every key times q; each digit costs at most p divisions instead of
    one division per unit of m.  The top digit is bounded by degrees: g^q
    divides the quotient f/g only if q * deg_v(g) <= deg_v(f) - deg_v(g) in
    every variable v.  The packing is as wide as the larger of deg f, which
    bounds every remainder, and the degree of the largest g^q, which can
    exceed it (g = x*y + 1 and f = x^q + y^q).
    """
    g_degs = list(map(max, zip(*g.terms)))
    if not any(g_degs):
        raise ValueError("multiplicity needs a nonconstant polynomial g")
    if len(f.terms) == 1:
        if len(g.terms) > 1:
            return 0
        ((fe,), (ge,)) = (f.terms, g.terms)
        return min(a // b for a, b in zip(fe, ge) if b)
    p = f.spec.p
    bound = min(fd // gd for fd, gd in zip(map(max, zip(*f.terms)), g_degs) if gd) - 1
    _, weights, guard = _packing(
        f.spec.nvars, max(max(map(sum, f.terms)), max(bound, 1) * max(map(sum, g.terms))))
    g = _pack(g, weights)
    f = _divide_packed(_pack(f, weights), g, guard, p)
    if f is None:
        return 0
    m = 1
    q = 1
    while q * p <= bound:
        q *= p
    while True:
        gq = {q * k: c for k, c in g.items()}
        while (h := _divide_packed(f, gq, guard, p)) is not None:
            f = h
            m += q
        if q == 1:
            return m
        q //= p


# the largest degree in u for a content gcd, whose time is quadratic in it
CONTENT_DEGREE_LIMIT = 2048


def primitive_part(g: Polynomial) -> Polynomial:
    """g divided by its content: the gcd in F_p[u] of its coefficients as
    a polynomial in the main variables.

    A coefficient that is a nonzero constant makes g primitive, with no gcd
    to compute.  With one ground variable the content comes from Euclid's
    algorithm in F_p[u], for degrees up to ``CONTENT_DEGREE_LIMIT``; with two
    or more, and no constant coefficient, it is not computed and g is refused.
    """
    spec = g.spec
    m = spec.m
    if not m:
        return g
    coeffs = {}
    for e, c in g.terms.items():
        coeffs.setdefault(e[m:], {})[e[:m]] = c
    if any(len(c) == 1 and not any(next(iter(c))) for c in coeffs.values()):
        return g
    if m > 1:
        raise FrobvalError(
            "CONTENT_UNDETERMINED",
            f"the content of {g} in the ground variables is not computed: "
            "no coefficient in the main variables is a constant"
        )
    content = None
    for c in coeffs.values():
        if (deg := max(k for (k,) in c)) > CONTENT_DEGREE_LIMIT:
            raise FrobvalError(
                "CONTENT_UNDETERMINED",
                f"the content of {g} is not computed: a coefficient has degree {deg} "
                f"in {spec.ground_vars[0]}, above the limit {CONTENT_DEGREE_LIMIT}"
            )
        dense = [0] * (deg + 1)
        for (k,), x in c.items():
            dense[k] = x
        content = dense if content is None else _gcd_mod_p(content, dense, spec.p)
    if len(content) == 1:
        return g
    zero_main = (0,) * spec.n
    return exact_divide(g, Polynomial(spec, {(k,) + zero_main: x for k, x in enumerate(content)}))


def _gcd_mod_p(a: list, b: list, p: int) -> list:
    """The monic gcd of two nonzero univariate polynomials over F_p, given
    and returned as dense coefficient lists, constant term first."""
    while b:
        a = a[:]
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# ---------------------------------------------------------------------------
# Power series over F_p


class PowerSeries:
    """Univariate series over F_p given by its nonzero terms.

    `terms` is a zero-argument callable that returns an iterator over the
    nonzero (index, coeff mod p) pairs in ascending index order; it may be
    infinite.  A truncation below t^n is a sparse {index: coeff} map with
    ascending keys; powers are memoized per (exponent, n).  The first terms
    are read once, when the series is built: `order` and `lead` are the
    index and coefficient of the first term, both None for the zero series,
    and `monomial` is that term (i, c) when the series is c*t^i, whose
    powers need no memo, else None.
    """

    def __init__(self, p: int, terms, name: str = "series"):
        self.p = p
        self.terms = terms
        self.name = name
        it = terms()
        first = next(it, None)
        self.order, self.lead = first or (None, None)
        self.monomial = first if next(it, None) is None else None
        self._power_memo = {}

    def sparse_prefix(self, n: int) -> dict:
        """The nonzero coefficients below t^n, as {index: coeff}."""
        out = {}
        for i, c in self.terms():
            if i >= n:
                break
            out[i] = c
        return out

    def power(self, k: int, n: int) -> dict:
        """The k-th power, k >= 0, truncated below t^n, as {index: coeff}.

        The truncation is zero once k * order >= n, and a one-term series
        c*t^i answers c^k*t^(i*k); neither reads the memo or a prefix.
        Otherwise s^k is the product over the base-p digits d_j of k of
        s^(d_j) with every index scaled by p^j, and that factor only needs
        s^(d_j) below t^ceil(n / p^j); for 1 < k < p it is s^(k - k//2) *
        s^(k//2), both halves from the memo, and only s^1 reads a prefix.
        """
        if k < 0:
            raise ValueError(f"a series power needs an exponent k >= 0, got {k}")
        if k == 0:
            return {0: 1}
        if self.order is None or k * self.order >= n:
            return {}
        if self.monomial is not None:
            return {self.order * k: pow(self.lead, k, self.p)}
        cached = self._power_memo.get((k, n))
        if cached is not None:
            return cached
        p = self.p
        if k == 1:
            result = self.sparse_prefix(n)
        elif k < p:
            result = _sparse_mul(self.power(k - k // 2, n), self.power(k // 2, n), p, n)
        else:
            result = {0: 1}
            q, rest = 1, k
            while rest:
                rest, d = divmod(rest, p)
                if d:
                    digit = self.power(d, -(-n // q))
                    result = _sparse_mul(result, {i * q: c for i, c in digit.items()}, p, n)
                q *= p
        self._power_memo[(k, n)] = result
        return result

    @classmethod
    def from_polynomial_coeffs(cls, p, coeffs: dict, name="poly"):
        """The polynomial with the sparse coefficients {index: coeff}, which
        may hold indices far beyond any precision read."""
        terms = [(i, r) for i, c in sorted(coeffs.items()) if (r := c % p)]
        return cls(p, lambda: iter(terms), name=name)

    @classmethod
    def factorial_gap(cls, p):
        """Coefficient 1 exactly at the indices n! for n >= 1 (1, 2, 6, 24, ...).

        Sparse and believed transcendental over F_p(t); chosen over sum of
        t^(2^n), which satisfies an Artin-Schreier relation in characteristic
        2.  Transcendence is an assumption, not a verified property.
        """

        def terms():
            index, n = 1, 1
            while True:
                yield index, 1
                n += 1
                index *= n

        return cls(p, terms, name="factorial_gap")


def _sparse_mul(a: dict, b: dict, p: int, n: int) -> dict:
    """Product of two sparse truncations with ascending keys, below t^n.
    With one factor a single term c*t^j, it is the other factor with every
    index shifted by j and every coefficient times c: the keys stay
    ascending, and a product of nonzero residues mod a prime is nonzero."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((j, cb),) = b.items()
        return {i + j: ca * cb % p for i, ca in a.items() if i + j < n}
    out = {}
    for i, ca in a.items():
        room = n - i
        if room <= 0:
            break
        for j, cb in b.items():
            if j >= room:
                break
            out[i + j] = out.get(i + j, 0) + ca * cb
    return {i: c for i in sorted(out) if (c := out[i] % p)}


def eval_poly_as_series(f: Polynomial, assign: dict, precision: int) -> dict:
    """The nonzero coefficients of orders 0..precision of f under a
    main-variable -> PowerSeries assignment, as {index: coeff mod p}.

    f's spec has no ground variables and `assign` covers its main
    variables; a series ``Valuation`` checks both when it is built.
    """
    spec = f.spec
    n = precision + 1
    p = spec.p
    acc = {}
    for e, c in f.terms.items():
        term = None
        for name, k in zip(spec.main_vars, e):
            if k:
                s_k = assign[name].power(k, n)
                term = s_k if term is None else _sparse_mul(term, s_k, p, n)
        if term is None:
            term = {0: 1}
        for i, x in term.items():
            acc[i] = acc.get(i, 0) + c * x
    return {i: r for i, x in acc.items() if (r := x % p)}

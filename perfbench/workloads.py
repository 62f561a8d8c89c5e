"""Seeded DSL script generators for the three benchmark workloads.

Every script carries the answers it must produce.  They come from how the
script was built (orders of factorial-gap prefixes, multiplicities of a
chosen factor, value-group ranks of chosen weights, the paper's
classification table), never from frobval.  The generators do their own
exact arithmetic: quadratic irrationals are compared by an integer
cross-multiplication sign test.

A workload is a stream of rounds.  A round is a fixed recipe of cost
classes (light, medium, heavy, giant) whose parameters are drawn from the
seed and whose order is shuffled, so every round has the same mix.  The
shares put the median inside the light class and the 95th percentile in
the middle of the heavy class, where a script's cost varies smoothly with
its parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("series-orders", "divisorial-mult", "classify-mix")


@dataclass(frozen=True)
class Script:
    """One DSL script and the expected result of each of its commands.

    ``expect`` holds one ``(op, fields)`` pair per command, in order;
    ``fields`` maps JSON output keys to expected values.
    """

    text: str
    expect: tuple
    cls: str


def _lines_script(lines, expect, cls):
    return Script("\n".join(lines) + "\n", tuple(expect), cls)


# ---------------------------------------------------------------------------
# text helpers


def monomial(names, exps):
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def term(coeff, names, exps):
    mono = monomial(names, exps)
    if not mono:
        return str(coeff)
    return mono if coeff == 1 else f"{coeff}*{mono}"


def product(*factors):
    """Join factor strings with '*', dropping empty ones."""
    fs = [f for f in factors if f]
    return "*".join(fs) if fs else "1"


def _sqfree(d):
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


SQUARE_FREE = tuple(d for d in range(2, 16) if _sqfree(d))


# ---------------------------------------------------------------------------
# exact arithmetic on a + b*sqrt(d), independent of frobval.exact_arith


def qsign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) by integer cross multiplication."""
    if a >= 0 and b >= 0:
        return 0 if a == 0 and b == 0 else 1
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: compare a^2 with b^2*d over a common denominator
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    lhs = an * an * bd * bd
    rhs = bn * bn * d * ad * ad
    return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


def qformat(a: Fraction, b: Fraction, d: int) -> str:
    """The printed form of a + b*sqrt(d) in frobval output."""
    if b == 0:
        return str(a)
    if a == 0:
        return f"sqrt({d})" if b == 1 else f"{b}*sqrt({d})"
    babs = f"sqrt({d})" if abs(b) == 1 else f"{abs(b)}*sqrt({d})"
    return f"{a} {'+' if b > 0 else '-'} {babs}"


def qweight(a: Fraction, b: Fraction, d: int) -> str:
    """DSL text of a weight a + b*sqrt(d)."""
    if b == 0:
        return str(a)
    bpart = f"sqrt({d})" if abs(b) == 1 else f"{abs(b)}*sqrt({d})"
    if a == 0:
        return bpart if b > 0 else f"-{bpart}"
    return f"{a} {'+' if b > 0 else '-'} {bpart}"


def fmt_tuple(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def least_pure(val_ge_scaled, p):
    """Least e >= 1 with not (value >= p^e * g), given value >= n*g test."""
    e = 1
    while val_ge_scaled(p**e):
        e += 1
    return e


# ---------------------------------------------------------------------------
# expected classification (Datta-Smith with the erratum)


def expected_report(p, m, n, s, t, divisorial, noetherian):
    """Fields of the report for a valuation with value group of rank s and
    residue field of transcendence degree t over k = F_p(m ground vars):
    e = p^s, f = p^(t+m), [K:K^p] = p^(m+n); F-finite exactly when
    divisorial; Frobenius split when F-finite, not split for any other
    DVR, and an open question otherwise."""
    f_finite = "YES" if divisorial else "NO"
    if divisorial:
        split = "YES"
    elif noetherian:
        split = "NO"
    else:
        split = "UNKNOWN"
    return {
        "e": p**s,
        "f": p ** (t + m),
        "K_Kp": p ** (m + n),
        "s": s,
        "t": t,
        "divisorial": divisorial,
        "noetherian": noetherian,
        "f_finite": f_finite,
        "frobenius_split": split,
    }


def _classify_cmds(vname, report):
    """`classify` and `report` lines with their expected fields."""
    rep = dict(report, value_group_rank=report["s"])
    return [
        (f"classify {vname}", ("classify", report)),
        (f"report {vname}", ("report", rep)),
    ]


# ---------------------------------------------------------------------------
# series-orders

FACTORIALS = (1, 2, 6, 24, 120, 720, 5040)


def gap_prefix(k):
    """y - x - x^2 - x^6 - ... with k subtracted terms; under x -> t and
    y -> factorial_gap its order is (k+1)!."""
    return "y" + "".join(
        " - x" if f == 1 else f" - x^{f}" for f in FACTORIALS[:k]
    )


def series_unit(rng, p):
    """A polynomial in x, y with nonzero constant term: order 0."""
    parts = [str(rng.randint(1, p - 1))]
    used = set()
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if (a, b) == (0, 0) or (a, b) in used:
            continue
        used.add((a, b))
        parts.append(term(rng.randint(1, p - 1), ("x", "y"), (a, b)))
    return "(" + " + ".join(parts) + ")"


def series_x_poly(rng, p):
    """An order-1 polynomial in t for x: t plus higher terms."""
    parts = ["t"]
    for e in sorted(rng.sample(range(2, 9), rng.randint(1, 3))):
        c = rng.randint(1, p - 1)
        parts.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
    return " + ".join(parts)


def series_eval(rng, p, k_max, exp_max, gap):
    """An eval expression and its order.

    The numerator is a gap prefix (when ``gap``) times a monomial and
    maybe a unit; sometimes divided by a monomial times a unit.
    """
    order = 0
    num = []
    if gap:
        k = rng.randint(0, k_max)
        num.append(f"({gap_prefix(k)})" if k else "y")
        order += FACTORIALS[k]
    a, b = rng.randint(0, exp_max), rng.randint(0, exp_max)
    num.append(monomial(("x", "y"), (a, b)))
    order += a + b
    if rng.random() < 0.5:
        num.append(series_unit(rng, p))
    expr = product(*num)
    if rng.random() < 0.35:
        c, d = rng.randint(0, exp_max), rng.randint(0, exp_max)
        den = [monomial(("x", "y"), (c, d))]
        if rng.random() < 0.5:
            den.append(series_unit(rng, p))
        expr = f"{expr}/{product(*den)}" if any(den) else expr
        order -= c + d
    return expr, order


def series_script(rng, cls, p, x_is_t=True):
    lines = [f"field p={p} vars(x,y)"]
    gap = cls != "light" or x_is_t
    xs = "t" if gap else series_x_poly(rng, p)
    lines.append(f"valuation v = series {{ x -> {xs}, y -> factorial_gap }}")
    evals = []
    if cls == "light":
        for _ in range(4):
            evals.append(series_eval(rng, p, 3, 8, gap))
    elif cls == "medium":
        evals.append((f"{gap_prefix(4)}", 120))
        for _ in range(2):
            evals.append(series_eval(rng, p, 4, 12, True))
    else:
        # heavy: order 720 (precision 1024); giant: order 5040 (8192).
        # Later evals reuse the power memo of the first at the same
        # precision.  Exponents stay far below the recursion limit.  Powers
        # of y are dense, so at this precision y^b costs about b times a
        # full product: b stays at most 1 to keep the class cost steady.
        k = 5 if cls == "heavy" else 6
        evals.append((gap_prefix(k), FACTORIALS[k]))
        a, b = rng.randint(0, 10), rng.randint(0, 1)
        evals.append((product(f"({gap_prefix(k)})", monomial(("x", "y"), (a, b))),
                      FACTORIALS[k] + a + b))
        evals.append(series_eval(rng, p, 3, 8, True))
    expect = []
    for expr, order in evals:
        lines.append(f"eval v {expr}")
        expect.append(("eval", {"value": str(order)}))
    return _lines_script(lines, expect, cls)


SERIES_PRIMES = (2, 3, 5, 7)


def series_round(rng):
    plan = (
        # light scripts: 50 with x -> t, 34 with x -> an order-1 polynomial
        [("light", rng.choice(SERIES_PRIMES), n < 50) for n in range(84)]
        + [("medium", rng.choice(SERIES_PRIMES), True) for _ in range(25)]
        + [("heavy", SERIES_PRIMES[n % 4], True) for n in range(10)]
        + [("giant", rng.choice(SERIES_PRIMES), True)]
    )
    scripts = [series_script(rng, cls, q, x_is_t) for cls, q, x_is_t in plan]
    rng.shuffle(scripts)
    return scripts


def series_probe():
    """Scripts whose exponents exceed the interpreter's recursion limit in
    the recursive series power memo.  They are not timed; the benchmark
    reports whether they still fail."""
    head = ["field p=2 vars(x,y)",
            "valuation v = series { x -> t, y -> factorial_gap }"]
    return [
        _lines_script(head + ["eval v x^1500"], [("eval", {"value": "1500"})], "probe"),
        _lines_script(head + ["eval v y*x^1200"], [("eval", {"value": "1201"})], "probe"),
    ]


# ---------------------------------------------------------------------------
# divisorial-mult

DIV_PRIMES = (3, 5, 7)
GROUND_SETS = ((), ("u",), ("u", "w"))


def _tail_psi(rng, p, ground, c, j):
    """One term psi(y, ground) with x + psi different from g = x + c*y^j.

    A single term keeps the term count of (x + psi)^i, and so the cost of
    a script, predictable from i.
    """
    while True:
        cp, jp = rng.randint(1, p - 1), rng.randint(0, 3)
        gexps = tuple(rng.randint(0, 1) for _ in ground)
        if (cp, jp) != (c, j) or any(gexps):
            return term(cp, ("y",) + ground, (jp,) + gexps)


def divisorial_factor(rng, p, ground, g, c, j, k, i):
    """g^k * x^a * y^b * (ground monomial) * (x + psi)^i; multiplicity k."""
    a, b = rng.randint(0, 3), rng.randint(0, 3)
    gmono = monomial(ground, [rng.randint(0, 2) for _ in ground])
    other = f"(x + {_tail_psi(rng, p, ground, c, j)})"
    return product(
        f"({g})^{k}" if k > 1 else (f"({g})" if k == 1 else ""),
        monomial(("x", "y"), (a, b)),
        gmono,
        (f"{other}^{i}" if i > 1 else other) if i else "",
    )


# narrow multiplicity ranges of about equal cost per prime
DIV_HEAVY_K = {3: (190, 210), 5: (160, 175), 7: (130, 145)}
DIV_GIANT_K = (985, 1000)


def divisorial_script(rng, cls, p):
    # the cost grows with the number of ground variables and depends on
    # whether x or y^j leads g in graded order; the heavy and giant
    # classes fix both so that their cost is steady
    varied = cls in ("light", "medium")
    ground = rng.choice(GROUND_SETS) if varied else ("u",)
    c, j = rng.randint(1, p - 1), rng.randint(1, 3) if varied else 2
    g = f"x + {term(c, ('y',), (j,))}"
    head = f"field p={p}" + (f" ground({','.join(ground)})" if ground else "") + " vars(x,y)"
    lines = [head, f"valuation v = divisorial {g}"]
    # (k, i, k_den, i_den, share of evals with a denominator)
    if cls == "light":
        evals = [(rng.randint(1, 12), rng.randint(0, 2), rng.randint(0, 4), rng.randint(0, 1), 0.4)
                 for _ in range(3)]
    elif cls == "medium":
        evals = [(rng.randint(25, 40), 1, rng.randint(0, 3), 0, 0.3) for _ in range(2)]
    elif cls == "heavy":
        evals = [(rng.randint(*DIV_HEAVY_K[p]), 0, 0, 0, 0.0)]
    else:
        evals = [(rng.randint(*DIV_GIANT_K), 0, 0, 0, 0.0)]
    expect = []
    for k, i, k_den, i_den, den_share in evals:
        expr = divisorial_factor(rng, p, ground, g, c, j, k, i)
        value = k
        if rng.random() < den_share:
            expr += "/" + divisorial_factor(rng, p, ground, g, c, j, k_den, i_den)
            value -= k_den
        lines.append(f"eval v {expr}")
        expect.append(("eval", {"value": str(value)}))
    return _lines_script(lines, expect, cls)


def divisorial_round(rng):
    heavy_ps = [3, 5, 5, 7]
    plan = (
        [("light", rng.choice(DIV_PRIMES)) for _ in range(42)]
        + [("medium", rng.choice(DIV_PRIMES)) for _ in range(13)]
        + [("heavy", q) for q in heavy_ps]
        + [("giant", 3)]
    )
    scripts = [divisorial_script(rng, cls, q) for cls, q in plan]
    rng.shuffle(scripts)
    return scripts


# ---------------------------------------------------------------------------
# classify-mix

MIX_PRIMES = (2, 3, 5, 7, 11)
MAIN_NAMES = ("x", "y", "z", "q")
GROUND_NAMES = ("u", "w")


def random_poly(rng, p, nvars, nterms, emax):
    """Distinct exponent vectors with nonzero coefficients mod p."""
    nterms = min(nterms, (emax + 1) ** nvars)
    seen = {}
    while len(seen) < nterms:
        e = tuple(rng.randint(0, emax) for _ in range(nvars))
        seen.setdefault(e, rng.randint(1, p - 1))
    return list(seen.items())


def poly_text(names, terms):
    return " + ".join(term(c, names, e) for e, c in terms)


class _Ctx:
    def __init__(self, rng, p, ground, main):
        self.rng, self.p, self.ground, self.main = rng, p, ground, main
        self.names = ground + main
        self.m, self.n = len(ground), len(main)


def _eval_polys(ctx):
    """Two polynomials with tens of terms: (text, main exponent vectors)."""
    rng = ctx.rng
    out = []
    for _ in range(2):
        terms = random_poly(rng, ctx.p, ctx.m + ctx.n, rng.randint(10, 30), 4)
        out.append((poly_text(ctx.names, terms), [e[ctx.m:] for e, _ in terms]))
    return out


def _small_operand(ctx):
    """A monomial or monomial quotient: (text, main exponent vector)."""
    rng = ctx.rng
    num = [rng.randint(0, 3) for _ in range(ctx.n)]
    den = [rng.randint(0, 2) if rng.random() < 0.4 else 0 for _ in range(ctx.n)]
    gnum = monomial(ctx.ground, [rng.randint(0, 2) for _ in ctx.ground])
    text = product(gnum, monomial(ctx.main, num))
    dtext = monomial(ctx.main, den)
    if dtext:
        text = f"{text}/{dtext}"
    return text, [a - b for a, b in zip(num, den)]


def _monomial_valuation(ctx, vname, kind):
    """Lines and expectations for an arch or lex monomial valuation."""
    rng, p, n = ctx.rng, ctx.p, ctx.n
    if kind == "arch":
        d = rng.choice(SQUARE_FREE)
        s = 1 if n == 1 else rng.choice((1, 2))
        if s == 1:
            # every weight a positive rational multiple of w0 > 0
            a0 = Fraction(rng.randint(0, 3), rng.randint(1, 3))
            b0 = Fraction(rng.randint(0 if a0 else 1, 2), rng.randint(1, 2))
            mult = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n)]
            den = 1
            for q in mult:
                den = den * q.denominator // gcd(den, q.denominator)
            g = 0
            for q in mult:
                g = gcd(g, q.numerator * (den // q.denominator))
            unit = Fraction(g, den)  # the group is unit*w0*Z
            weights = [(q * a0, q * b0) for q in mult]
        else:
            while True:
                weights = []
                for _ in range(n):
                    while True:
                        a = Fraction(rng.randint(-3, 4), rng.randint(1, 3))
                        b = Fraction(rng.randint(-2, 3), rng.randint(1, 2))
                        if qsign(a, b, d) > 0:
                            break
                    weights.append((a, b))
                if any(
                    wa[0] * wb[1] != wa[1] * wb[0]
                    for wa in weights for wb in weights
                ):
                    break
        body = ", ".join(f"{v}: {qweight(a, b, d)}" for v, (a, b) in zip(ctx.main, weights))
        decl = f"valuation {vname} = monomial {{ {body} }}"
        # values are exact pairs (a, b); ordering by the sign test
        def value(exps):
            return (sum(e * w[0] for e, w in zip(exps, weights)),
                    sum(e * w[1] for e, w in zip(exps, weights)))

        def less(u, v):
            return qsign(u[0] - v[0], u[1] - v[1], d) < 0

        def show(v):
            return qformat(v[0], v[1], d)

        def in_q(v):
            return s == 2 and qsign(v[0], v[1], d) > 0

        def pure_exp(v):
            if s == 2:
                return 1
            # v = r * unit * w0 with w0 > 0
            base = a0 if a0 else b0
            r = (v[0] if a0 else v[1]) / base / unit
            return least_pure(lambda scale: r >= scale, p)
    else:
        r = rng.randint(1, 3)
        s = rng.randint(1, min(n, r))
        pivots = sorted(rng.sample(range(r), s))
        basis = []
        for c in pivots:
            row = [0] * r
            row[c] = rng.randint(1, 3)
            for j in range(c + 1, r):
                row[j] = rng.randint(-3, 3)
            basis.append(tuple(row))
        weights = list(basis)
        for _ in range(n - s):
            coeffs = [rng.randint(0, 2) for _ in basis]
            coeffs[rng.randrange(s)] += 1
            weights.append(tuple(
                sum(cf * row[j] for cf, row in zip(coeffs, basis)) for j in range(r)
            ))
        rng.shuffle(weights)
        least = basis[-1]
        last_pivot = pivots[-1]
        body = ", ".join(f"{v}: {fmt_tuple(w)}" for v, w in zip(ctx.main, weights))
        decl = f"valuation {vname} = lex {{ {body} }}"

        def value(exps):
            return tuple(sum(e * w[j] for e, w in zip(exps, weights)) for j in range(r))

        def less(u, v):
            return u < v

        show = fmt_tuple

        def in_q(v):
            first = next((j for j, x in enumerate(v) if x), None)
            return first is not None and first < last_pivot and v[first] > 0

        def pure_exp(v):
            return least_pure(
                lambda scale: v >= tuple(scale * x for x in least), p
            )

    def min_value(term_exps):
        best = value(term_exps[0])
        for e in term_exps[1:]:
            cand = value(e)
            if less(cand, best):
                best = cand
        return best

    lines = [decl]
    expect = []
    report = expected_report(p, ctx.m, n, s, n - s, s == 1, s == 1)
    for line, exp in _classify_cmds(vname, report):
        lines.append(line)
        expect.append(exp)
    for text, term_exps in _eval_polys(ctx):
        lines.append(f"eval {vname} {text}")
        expect.append(("eval", {"value": show(min_value(term_exps))}))
    for _ in range(rng.randint(1, 2)):
        text, exps = _small_operand(ctx)
        val = value(exps)
        lines.append(f"inQ {vname} {text}")
        expect.append(("inQ", {"in_Q": in_q(val)}))
        text, exps = _small_operand(ctx)
        val = value(exps)
        pure = not in_q(val)
        lines.append(f"pure-along {vname} {text}")
        expect.append(("pure-along", {
            "f_pure_along": pure,
            "least_pure_exponent": pure_exp(val) if pure else None,
        }))
    return lines, expect


def _z_pure_cmds(ctx, vname, operands):
    """inQ and pure-along for a Z-valued valuation: Q = 0."""
    lines, expect = [], []
    for text, val in operands:
        lines.append(f"inQ {vname} {text}")
        expect.append(("inQ", {"in_Q": False}))
        lines.append(f"pure-along {vname} {text}")
        expect.append(("pure-along", {
            "f_pure_along": True,
            "least_pure_exponent": least_pure(lambda scale: val >= scale, ctx.p),
        }))
    return lines, expect


def _divisorial_valuation(ctx, vname):
    rng, p = ctx.rng, ctx.p
    i = rng.randrange(ctx.n)
    xi = ctx.main[i]
    others = tuple(nm for nm in ctx.names if nm != xi)
    gexps = tuple(rng.randint(0, 1) for _ in others)
    c = rng.randint(1, p - 1)
    g = f"{xi} + {term(c, others, gexps)}"

    def operand(k, kmax_cof):
        psi = random_poly(rng, p, len(others), rng.randint(1, 2), 2)
        # x_i + psi is coprime to g unless psi is g's own tail
        cof = xi if psi == [(gexps, c)] else f"({xi} + {poly_text(others, psi)})"
        e = rng.randint(1, kmax_cof)
        mono = monomial(ctx.names, [rng.randint(0, 2) for _ in ctx.names])
        return product(f"({g})^{k}" if k > 1 else (f"({g})" if k else ""),
                       mono, f"{cof}^{e}" if e > 1 else cof)

    lines = [f"valuation {vname} = divisorial {g}"]
    expect = []
    n, m = ctx.n, ctx.m
    for line, exp in _classify_cmds(vname, expected_report(p, m, n, 1, n - 1, True, True)):
        lines.append(line)
        expect.append(exp)
    for _ in range(2):
        k = rng.randint(0, 2)
        text = operand(k, 2)
        value = k
        if rng.random() < 0.3:
            kd = rng.randint(0, 2)
            text += "/" + operand(kd, 1)
            value -= kd
        lines.append(f"eval {vname} {text}")
        expect.append(("eval", {"value": str(value)}))
    ops = []
    for _ in range(rng.randint(1, 2)):
        # multiplicity p (for p <= 3) makes the least pure exponent 2
        k = rng.choice((0, 1, 2, min(p, 3)))
        ops.append((operand(k, 1), k))
    more_lines, more_expect = _z_pure_cmds(ctx, vname, ops)
    return lines + more_lines, expect + more_expect


def _series_valuation(ctx, vname):
    rng, p, n = ctx.rng, ctx.p, ctx.n
    names = ctx.main
    if n == 1:
        rhs = rng.choice(("t", "factorial_gap", series_x_poly(rng, p)))
        body = f"{names[0]} -> {rhs}"
        gap = False
    else:
        gap = rng.random() < 0.5
        body = f"{names[0]} -> {'t' if gap else series_x_poly(rng, p)}, {names[1]} -> factorial_gap"
    lines = [f"valuation {vname} = series {{ {body} }}"]
    expect = []
    report = expected_report(p, 0, n, 1, 0, n == 1, True)
    for line, exp in _classify_cmds(vname, report):
        lines.append(line)
        expect.append(exp)

    def operand(max_exp):
        # every assigned series has order 1, so a monomial's order is
        # its total degree; units have order 0
        exps = [rng.randint(0, max_exp) for _ in names]
        order = sum(exps)
        parts = [monomial(names, exps)]
        if gap and rng.random() < 0.5:
            k = rng.randint(1, 3)
            parts.append(f"({gap_prefix(k)})")
            order += FACTORIALS[k]
        if rng.random() < 0.5:
            unit = [str(rng.randint(1, p - 1))] + [
                term(cf, names, e) for e, cf in random_poly(rng, p, n, 2, 2) if any(e)
            ]
            parts.append("(" + " + ".join(unit) + ")")
        return product(*parts), order

    for _ in range(2):
        text, order = operand(4)
        lines.append(f"eval {vname} {text}")
        expect.append(("eval", {"value": str(order)}))
    ops = [operand(3) for _ in range(rng.randint(1, 2))]
    more_lines, more_expect = _z_pure_cmds(ctx, vname, ops)
    return lines + more_lines, expect + more_expect


def classify_script(rng, kinds, p, m, n):
    ground = GROUND_NAMES[:m]
    main = MAIN_NAMES[:n]
    ctx = _Ctx(rng, p, ground, main)
    head = f"field p={p}" + (f" ground({','.join(ground)})" if ground else "")
    lines = [head + f" vars({','.join(main)})"]
    expect = []
    for idx, kind in enumerate(kinds):
        vname = f"v{idx + 1}"
        if kind in ("arch", "lex"):
            more_lines, more_expect = _monomial_valuation(ctx, vname, kind)
        elif kind == "divisorial":
            more_lines, more_expect = _divisorial_valuation(ctx, vname)
        else:
            more_lines, more_expect = _series_valuation(ctx, vname)
        lines += more_lines
        expect += more_expect
    return _lines_script(lines, expect, "+".join(kinds))


MIX_KINDS = ("arch", "lex", "divisorial", "series")


def classify_round(rng):
    scripts = []
    for lead in MIX_KINDS * 10:
        p = rng.choice(MIX_PRIMES)
        if lead == "series":
            m, n = 0, rng.randint(1, 2)
        else:
            m, n = rng.randint(0, 2), rng.randint(1, 4)
        kinds = [lead]
        if rng.random() < 0.4:
            allowed = [k for k in MIX_KINDS if k != "series" or (m == 0 and n <= 2)]
            kinds.append(rng.choice(allowed))
        scripts.append(classify_script(rng, kinds, p, m, n))
    rng.shuffle(scripts)
    return scripts


ROUNDS = {
    "series-orders": series_round,
    "divisorial-mult": divisorial_round,
    "classify-mix": classify_round,
}


def rounds(workload: str, seed: int):
    """Endless deterministic stream of rounds for one workload and seed."""
    make = ROUNDS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield make(rng)


def probe_scripts(workload: str):
    return series_probe() if workload == "series-orders" else []

import inspect
import json
import random
import textwrap

import pytest
from hypothesis import assume, given, settings, strategies as st

from frobval.errors import FrobvalError
from frobval.function_field import (
    FieldSpec,
    Polynomial,
    PowerSeries,
    _sparse_mul,
    eval_poly_as_series,
    exact_divide,
    multiplicity,
    parse_poly,
    parse_ratfun,
)
from frobval import classifier, cli, function_field, oracle
from frobval.oracle import (
    ORACLES,
    _trunc_mul,
    axiom_audit,
    coset_count_bruteforce,
    dense_series_expansion,
    divide_by_scan,
    multiplicity_by_units,
    parse_ratfun_by_atoms,
    power_by_squaring,
    power_prefix,
    random_expression,
    reader_agrees,
    run_selftest,
    series_recheck,
    series_value_unsplit,
    smith_normal_form,
)
from frobval.cli import run_script
from frobval.ordered_groups import OrderedGroup, hnf_rows, order_min
from frobval import valuations
from frobval.valuations import SeriesRestriction, Valuation

from conftest import (
    BrokenMinValuation,
    ReversedLexMinValuation,
    TupleMinValuation,
    gauss_valuation,
    irrational_monomial,
    lex_monomial,
    mixed_sign_monomial,
    random_lattice,
    series_factorial_gap,
    series_t,
)


class TestCosetCount:
    def test_standard_z2(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 1)])
        assert coset_count_bruteforce(g, 2) == 4
        assert coset_count_bruteforce(g, 3) == 9

    def test_rank_one(self):
        g = OrderedGroup.from_generators([(7,)])
        assert coset_count_bruteforce(g, 5) == 5

    def test_rank_cap(self):
        g = OrderedGroup.from_generators(
            [tuple(1 if i == j else 0 for j in range(5)) for i in range(5)]
        )
        with pytest.raises(FrobvalError) as exc:
            coset_count_bruteforce(g, 2)
        assert exc.value.code == "RANK_TOO_LARGE"


class TestSmithNormalForm:
    def test_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 6]]) == [2, 6]

    def test_needs_divisibility_fixup(self):
        # diag(2, 3) has invariant factors 1, 6
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_textbook_example(self):
        assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]

    def test_agrees_with_hnf_index(self):
        rng = random.Random(73)
        for _ in range(30):
            g = random_lattice(rng)
            inv = smith_normal_form([list(r) for r in g.basis_int])
            for p in (2, 3):
                # |G/pG| = p^(number of invariant factors) = p^rank
                assert p ** len(inv) == g.index_p(p)


@st.composite
def integer_matrices(draw):
    """Up to 6 x 6, with zero rows, repeated and negated rows, negative
    entries and single columns among the draws."""
    ncols = draw(st.integers(1, 6))
    fresh = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        how = draw(st.sampled_from(("fresh", "zero", "repeat")))
        if how == "zero":
            rows.append([0] * ncols)
        elif how == "repeat" and rows:
            sign = draw(st.sampled_from((1, -1)))
            rows.append([sign * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(fresh))
    return rows


def in_echelon_span(basis, vec):
    """Whether vec is an integer combination of the echelon rows `basis`."""
    v = list(vec)
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        q, r = divmod(v[j], row[j])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


class TestHermitePairAgainstSmith:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(integer_matrices())
    def test_basis_and_relations(self, rows):
        basis, relations = hnf_rows(rows)
        assert len(basis) == len(smith_normal_form(rows))
        assert len(relations) == len(rows) - len(basis)
        for y in relations:
            assert all(sum(c * r[j] for c, r in zip(y, rows)) == 0
                       for j in range(len(rows[0])))
        # saturated: the relations span {y : y A = 0}, not a sublattice of it
        if relations:
            assert smith_normal_form(relations) == [1] * len(relations)
        assert all(in_echelon_span(basis, r) for r in rows)


class TestAuditsPass:
    def test_fixture_valuations(self):
        for v in (irrational_monomial(5), lex_monomial(3), gauss_valuation(2)):
            assert axiom_audit(v, seed=4, trials=150).passed


class TestMutantsCaught:
    def test_broken_min_fails_audit(self):
        for make in (lambda: lex_monomial(3), lambda: gauss_valuation(3)):
            mutant = BrokenMinValuation(make())
            report = axiom_audit(mutant, seed=5, trials=300)
            assert not report.passed
            kinds = {k for k, _ in report.failures}
            assert "strict-case-equality" in kinds or "ultrametric" in kinds

    def test_tuple_order_min_fails_audit(self):
        # min in tuple order is lex order on (a, b): a valuation, but not the
        # one of the real weights, so only a real-order audit can tell
        v = mixed_sign_monomial(3)
        assert axiom_audit(v, seed=5, trials=300).passed
        report = axiom_audit(TupleMinValuation(v), seed=5, trials=300)
        assert not report.passed
        kinds = {k for k, _ in report.failures}
        assert "strict-case-equality" in kinds or "ultrametric" in kinds

    def test_reversed_lex_min_fails_audit(self):
        # the min of the last coordinate first: not the lex order of the weights
        report = axiom_audit(ReversedLexMinValuation(lex_monomial(3)), seed=5, trials=300)
        assert not report.passed
        kinds = {k for k, _ in report.failures}
        assert "strict-case-equality" in kinds or "ultrametric" in kinds


class TestSeriesRecheck:
    def test_agrees_on_fixture(self):
        v = series_factorial_gap(2)
        f = parse_poly("y - x - x^2", v.spec)
        assert series_recheck(v, f) == (6,)

    def test_higher_factor(self):
        v = series_factorial_gap(3)
        f = parse_poly("y - x", v.spec)
        assert series_recheck(v, f, factor=4) == (2,)

    @pytest.mark.parametrize("text,value", [("x^40/x^39", (1,)), ("y^7/x^30", (-23,))])
    def test_quotient_of_high_orders(self, text, value):
        # each part is re-expanded past its own order, not past the quotient's
        v = series_factorial_gap(2)
        assert series_recheck(v, parse_ratfun(text, v.spec)) == value

    def test_factor_validation(self):
        v = series_factorial_gap(2)
        with pytest.raises(ValueError):
            series_recheck(v, parse_poly("x", v.spec), factor=1)


# ---------------------------------------------------------------------------
# The oracle table: each row at ten times its selftest trials, and a mutant of
# the code each row checks


def row_id(failed_line):
    """A row's test id, from its FAILED line: index_p, ..., series_orders."""
    return failed_line.removesuffix(": FAILED").replace(" ", "_")


@pytest.mark.parametrize("row", ORACLES, ids=lambda row: row_id(row[1]))
def test_oracle_row(row):
    trials, trial = row[2:]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        assert [text for text in (trial(rng) for _ in range(10 * trials)) if text] == []


def mutant(function, *replacements, **overrides):
    """`function` built again from its source with each (fragment,
    replacement) pair of `replacements` made in turn, every fragment found
    exactly once, and run in a copy of its module's globals in which
    `overrides` are set."""
    source = textwrap.dedent(inspect.getsource(function))
    for fragment, replacement in replacements:
        assert source.count(fragment) == 1
        source = source.replace(fragment, replacement)
    namespace = {**function.__globals__, **overrides}
    exec(source, namespace)
    return namespace[function.__name__]


def _snf_without_fixup():
    """smith_normal_form that never folds a later row into the pivot row: the
    product of its diagonal is still |det|, but it need not be a chain."""
    return mutant(oracle.smith_normal_form, ("        if fixed:\n            continue\n", ""))


def _order_max_real(vecs, d=None):
    """order_min with the max in place of the min on real-embedded values."""
    if d is None:
        return order_min(vecs)
    return tuple(-x for x in order_min([tuple(-x for x in v) for v in vecs], d))


def _order_max_lex(vecs, d=None):
    """order_min with the max in place of the min on lex values."""
    return max(vecs) if d is None else order_min(vecs, d)


def _least_pure_exponent_at_p_e():
    """least_pure_exponent that keeps a value k*g with k = p^e inside
    m^[p^e]: k <= p^e in place of k < p^e."""
    return mutant(classifier.least_pure_exponent, ("while k >= p**e:", "while k > p**e:"))


def _value_without_leads():
    """SeriesRestriction.value_of_poly whose initial form drops the factors
    prod(l_v^e_v) of the leading coefficients: it sums the coefficients of
    the terms of least order."""
    return mutant(SeriesRestriction.value_of_poly,
                  ("c * prod(map(pow, leads, e, repeat(p)))", "c"))


def _verdict_json_by_value():
    """cli._verdict_json with its memo keyed by the verdict's value alone, so
    the first NO verdict's citations stand for every NO verdict; the memo is
    its own, not the process-wide one.  The namespace copies the CLI's
    globals, so json's quoter is bound first."""
    cli._load_json()
    return mutant(cli._verdict_json,
                  ("_VERDICT_JSON.get(verdict)", "_VERDICT_JSON.get(verdict.value)"),
                  ("_VERDICT_JSON[verdict]", "_VERDICT_JSON[verdict.value]"),
                  _VERDICT_JSON={})


def _flat_reader_without_signs():
    """function_field._read_flat that reads a term after '-' as if it came
    after '+'."""
    return mutant(function_field._read_flat,
                  ("sign, term = -1, term[1:]", "sign, term = 1, term[1:]"))


_frobenius = Polynomial.frobenius

# by test id, the FAILED line of a row and a mutant of the code that row
# checks; the multiplicities row has only the mutant tests of its own below
ROW_MUTANTS = {
    "index_p": ("index_p: FAILED", OrderedGroup, "index_p", lambda self, p: p ** self.dim),
    "snf": ("snf: FAILED", oracle, "smith_normal_form", _snf_without_fixup()),
    "axiom_audit": ("axiom audit: FAILED", valuations, "order_min", _order_max_real),
    "axiom_audit_lex": ("axiom audit: FAILED", valuations, "order_min", _order_max_lex),
    "reader": ("reader: FAILED", Polynomial, "frobenius",
               lambda self, q: _frobenius(self, q) * self),
    "reader_flat_signs": ("reader: FAILED", function_field, "_read_flat",
                          _flat_reader_without_signs()),
    "series_orders": ("series orders: FAILED", SeriesRestriction, "value_of_poly",
                      _value_without_leads()),
    "splitting_prime": ("splitting prime: FAILED", classifier, "least_pure_exponent",
                        _least_pure_exponent_at_p_e()),
    "JSON_lines": ("JSON lines: FAILED", cli, "_verdict_json", _verdict_json_by_value()),
}


@pytest.mark.parametrize("mutant", ROW_MUTANTS)
def test_selftest_row_catches_a_mutant(monkeypatch, mutant):
    failed_line, *patch = ROW_MUTANTS[mutant]
    monkeypatch.setattr(*patch)
    ok, lines = run_selftest(seed=0)
    assert not ok and failed_line in lines


# ---------------------------------------------------------------------------
# The Frobenius-digit fast paths against their one-step-per-unit references

primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def sparse_polys(draw, spec, max_terms=3, max_exp=4):
    """A nonzero polynomial over spec with small exponents."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(spec.nvars))
        terms[e] = draw(st.integers(1, spec.p - 1))
    f = Polynomial(spec, terms)
    assume(not f.is_zero())
    return f


@st.composite
def series(draw, p):
    kind = draw(st.sampled_from(["t", "gap", "poly"]))
    if kind == "t":
        return series_t(p)
    if kind == "gap":
        return PowerSeries.factorial_gap(p)
    # a nonzero constant term is allowed: the digit identity holds for every
    # series; coefficients may be multiples of p, and a term may lie far past
    # any precision read
    coeffs = dict(enumerate(draw(st.lists(st.integers(0, 3 * p), min_size=1, max_size=6))))
    if draw(st.booleans()):
        coeffs[10**30] = draw(st.integers(1, 2 * p))
    return PowerSeries.from_polynomial_coeffs(p, coeffs)


class TestDigitPathsAgainstReferences:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data(), primes)
    def test_series_expansion(self, data, p):
        spec = FieldSpec(p, (), ("x", "y"))
        f = data.draw(sparse_polys(spec, max_exp=20))
        assign = {"x": data.draw(series(p)), "y": data.draw(series(p))}
        precision = data.draw(st.integers(0, 40))
        dense = dense_series_expansion(f, assign, precision)
        assert eval_poly_as_series(f, assign, precision) == {i: c for i, c in enumerate(dense) if c}

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data(), primes, st.integers(0, 2))
    def test_multiplicity(self, data, p, m):
        ground = ("u", "w")[:m]
        spec = FieldSpec(p, ground, ("x", "y"))
        g = data.draw(sparse_polys(spec, max_terms=2, max_exp=2))
        assume(g.uses_main_var())
        h = data.draw(sparse_polys(spec, max_terms=2, max_exp=2))
        k = data.draw(st.integers(0, 3 * p))
        f = g**k * h
        assert multiplicity(f, g) == multiplicity_by_units(f, g) >= k

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data(), primes, st.integers(0, 2))
    def test_multiplicity_of_one_term_f(self, data, p, m):
        # a one-term f is answered from exponents alone, with no division
        spec = FieldSpec(p, ("u", "w")[:m], ("x", "y"))
        g = data.draw(sparse_polys(spec, max_terms=2, max_exp=2))
        assume(g.uses_main_var())
        f = data.draw(sparse_polys(spec, max_terms=1, max_exp=6))
        if len(g.terms) == 1:
            f = g ** data.draw(st.integers(0, 3 * p)) * f
        assert multiplicity(f, g) == multiplicity_by_units(f, g)

    @pytest.mark.parametrize("g_text,f_text,expected", [
        ("x^3", "x^7*y^5", 2),
        ("x^3", "x^12*y^4 + x^9*y^9", 3),
        ("x^3", "x^2*y", 0),
        ("x*y", "x^7*y^5", 5),
        ("x*y", "x^12*y^4 + x^9*y^9", 4),
        ("x^2*y", "x^12*y^4 + x^9*y^9", 4),
        ("x^2*y", "x^2*y", 1),
    ])
    @pytest.mark.parametrize("p", [2, 3])
    def test_reducible_g_counts_largest_power(self, p, g_text, f_text, expected):
        # for reducible g the value is the largest m with g^m | f, as before
        spec = FieldSpec(p, (), ("x", "y"))
        f, g = parse_poly(f_text, spec), parse_poly(g_text, spec)
        assert multiplicity(f, g) == multiplicity_by_units(f, g) == expected

    def test_power_prefix_matches_sparse_power(self):
        s = PowerSeries.factorial_gap(3)
        for k in (0, 1, 2, 3, 10, 27):
            dense = power_prefix(s, k, 50)
            sparse = s.power(k, 50)
            assert dense == [sparse.get(i, 0) for i in range(50)]


# ---------------------------------------------------------------------------
# One-term truncations: closed-form powers and index-shift products


def _dense(sparse, n):
    return [sparse.get(i, 0) for i in range(n)]


@st.composite
def monomial_series(draw, p):
    """c*t^i with c in 1..p-1 and i >= 1."""
    return PowerSeries.from_polynomial_coeffs(
        p, {draw(st.integers(1, 6)): draw(st.integers(1, p - 1))})


@st.composite
def series_with_second_term_near(draw, p, n):
    """c*t^i + c2*t^j with i < n - 1 and the second term at j = n-1, n or n+1,
    so the truncation below t^n has two terms or one."""
    i = draw(st.integers(0, n - 2))
    j = n + draw(st.sampled_from([-1, 0, 1]))
    return PowerSeries.from_polynomial_coeffs(
        p, {i: draw(st.integers(1, p - 1)), j: draw(st.integers(1, p - 1))})


class TestHalvesPowers:
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.data(), st.sampled_from([1009, 999999937]))
    def test_power_below_p_matches_dense_products(self, data, p):
        # k up to 200 runs s^k = s^(k - k//2) * s^(k//2) several levels deep;
        # a lead term at t^0 keeps every power nonzero below t^n, and the
        # powers of one series share its memo
        n = data.draw(st.integers(8, 64))
        lead = data.draw(st.integers(0, 1))
        rest = data.draw(st.lists(st.integers(lead + 1, 70), min_size=1, max_size=3, unique=True))
        s = PowerSeries.from_polynomial_coeffs(
            p, {i: data.draw(st.integers(1, p - 1)) for i in [lead, *rest]})
        for k in data.draw(st.lists(st.integers(2, 200), min_size=1, max_size=3)):
            assert _dense(s.power(k, n), n) == power_prefix(s, k, n)


class TestOneTermTruncations:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data(), primes)
    def test_power_of_a_monomial(self, data, p):
        s = data.draw(monomial_series(p))
        k = data.draw(st.integers(0, 3 * p + 2))
        n = data.draw(st.integers(1, 30))
        assert _dense(s.power(k, n), n) == power_prefix(s, k, n)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data(), primes)
    def test_second_term_at_the_truncation_edge(self, data, p):
        n = data.draw(st.integers(2, 20))
        s = data.draw(series_with_second_term_near(p, n))
        k = data.draw(st.integers(0, 3 * p + 2))
        assert _dense(s.power(k, n), n) == power_prefix(s, k, n)
        other = data.draw(series(p)).sparse_prefix(n)
        for a, b in ((s.sparse_prefix(n), other), (other, s.sparse_prefix(n))):
            assert _dense(_sparse_mul(a, b, p, n), n) == _trunc_mul(
                _dense(a, n), _dense(b, n), p, n)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_factorial_gap_below_t_squared(self, p, n):
        # below t^2 the gap series is the one term t
        s = PowerSeries.factorial_gap(p)
        for k in range(3 * p + 2):
            assert _dense(s.power(k, n), n) == power_prefix(s, k, n)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data(), primes)
    def test_shift_product(self, data, p):
        # one operand c*t^j (j = 0 included), on either side, the other any
        # truncation
        n = data.draw(st.integers(1, 30))
        one = {data.draw(st.integers(0, 32)): data.draw(st.integers(1, p - 1))}
        other = data.draw(series(p)).sparse_prefix(data.draw(st.integers(0, 32)))
        for a, b in ((one, other), (other, one)):
            out = _sparse_mul(a, b, p, n)
            assert list(out) == sorted(out)
            assert _dense(out, n) == _trunc_mul(_dense(a, n), _dense(b, n), p, n)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data(), primes)
    def test_series_expansion_under_a_monomial(self, data, p):
        spec = FieldSpec(p, (), ("x", "y"))
        f = data.draw(sparse_polys(spec, max_exp=12))
        assign = {"x": data.draw(monomial_series(p)), "y": PowerSeries.factorial_gap(p)}
        precision = data.draw(st.integers(0, 40))
        dense = dense_series_expansion(f, assign, precision)
        assert eval_poly_as_series(f, assign, precision) == {i: c for i, c in enumerate(dense) if c}


    def test_selftest_catches_powers_that_drop_their_coefficients(self, monkeypatch):
        power = PowerSeries.power
        monkeypatch.setattr(PowerSeries, "power",
                            lambda s, k, n: dict.fromkeys(power(s, k, n), 1))
        ok, lines = run_selftest(seed=0)
        assert not ok and "series orders: FAILED" in lines


class TestDivisionAgainstScanReference:
    """The heap-ordered exact division against the reference that scans the
    whole remainder for each leading term."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.data(), primes, st.integers(0, 2))
    def test_products_and_random_pairs(self, data, p, m):
        spec = FieldSpec(p, ("u", "w")[:m], ("x", "y"))
        g = data.draw(sparse_polys(spec, max_terms=4, max_exp=3))
        q = data.draw(sparse_polys(spec, max_terms=4, max_exp=3))
        assert exact_divide(q * g, g) == divide_by_scan(q * g, g) == q
        f = data.draw(st.one_of(st.just(Polynomial(spec, {})),
                                sparse_polys(spec, max_terms=6, max_exp=5)))
        assert exact_divide(f, g) == divide_by_scan(f, g)
        r = data.draw(sparse_polys(spec, max_terms=2, max_exp=3))
        assert exact_divide(q * g + r, g) == divide_by_scan(q * g + r, g)

    # over F_3 the remainder term x^2*y^2, or x*y^2, cancels in one step and
    # is created again by a later one
    @pytest.mark.parametrize("g_text,q_text", [
        ("x^2*y + y^2 + y", "x^2*y + x^2 + 2*y"),
        ("2*x^2*y + x*y^2 + 2*x^2", "y^2 + x + y"),
        ("2*x*y + 2*x + 1", "2*x*y^2 + 2*y^2 + y"),
    ])
    def test_terms_that_cancel_and_reappear(self, g_text, q_text):
        spec = FieldSpec(3, (), ("x", "y"))
        g, q = parse_poly(g_text, spec), parse_poly(q_text, spec)
        assert exact_divide(q * g, g) == divide_by_scan(q * g, g) == q
        off = q * g + parse_poly("1", spec)
        assert exact_divide(off, g) is divide_by_scan(off, g) is None

    def test_zero_dividend(self):
        spec = FieldSpec(2, ("u",), ("x", "y"))
        zero, g = Polynomial(spec, {}), parse_poly("x + u*y + 1", spec)
        assert exact_divide(zero, g) == divide_by_scan(zero, g) == zero

    def test_reference_multiplicity_does_not_divide_by_the_main_path(self, monkeypatch):
        import frobval.function_field as ff
        import frobval.oracle as oracle

        def refuse(f, g):
            raise AssertionError("the reference called function_field.exact_divide")

        for name, value in list(vars(oracle).items()):
            if value is ff.exact_divide:
                monkeypatch.setattr(oracle, name, refuse)
        monkeypatch.setattr(ff, "exact_divide", refuse)
        spec = FieldSpec(5, ("u",), ("x", "y"))
        f = parse_poly("(x + u*y)^7*(x - y)", spec)
        assert multiplicity_by_units(f, parse_poly("x + u*y", spec)) == 7


def _scaled(f, s):
    """f with every exponent times s, the image of f under v -> v^s."""
    return Polynomial(f.spec, {tuple(s * a for a in e): c for e, c in f.terms.items()})


class TestPackedDivisionEdges:
    """The packed-monomial division kernel, through exact_divide and
    multiplicity, against the scanning and unit-by-unit references where its
    packing is stressed."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data(), primes, st.integers(0, 1))
    def test_powers_of_g_above_the_degree_of_f(self, data, p, m):
        # g = x*y + c against f = g^k*(x^a + y^a): every digit power g^q up
        # to q = k + a - 1 is tried, and g^q has total degree 2q, above
        # deg f = 2k + a once q > k + a/2
        spec = FieldSpec(p, ("u",)[:m], ("x", "y"))
        g = parse_poly(f"x*y + {data.draw(st.integers(1, p - 1))}", spec)
        a, k = data.draw(st.integers(1, 3 * p)), data.draw(st.integers(1, 2 * p))
        f = g**k * parse_poly(f"x^{a} + y^{a}", spec)
        assert multiplicity(f, g) == multiplicity_by_units(f, g) >= k
        assert exact_divide(f, g) == divide_by_scan(f, g)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data(), primes, st.integers(2**20 + 1, 2**40))
    def test_exponents_above_2_to_the_20(self, data, p, s):
        spec = FieldSpec(p, ("u",), ("x", "y"))
        g = _scaled(data.draw(sparse_polys(spec, max_terms=2, max_exp=2)), s)
        assume(g.uses_main_var())
        h = data.draw(sparse_polys(spec, max_terms=2, max_exp=2))
        if data.draw(st.booleans()):
            h = _scaled(h, s)
        f = g ** data.draw(st.integers(0, 2 * p)) * h
        assert multiplicity(f, g) == multiplicity_by_units(f, g)
        assert exact_divide(f, g) == divide_by_scan(f, g)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data(), st.integers(1, 2))
    def test_p_2_with_ground_variables(self, data, m):
        spec = FieldSpec(2, ("u", "w")[:m], ("x", "y"))
        g = data.draw(sparse_polys(spec, max_terms=3, max_exp=2))
        assume(any(map(any, g.terms)))
        h = data.draw(sparse_polys(spec, max_terms=3, max_exp=2))
        f = g ** data.draw(st.integers(0, 9)) * h
        assert multiplicity(f, g) == multiplicity_by_units(f, g)
        assert exact_divide(f, g) == divide_by_scan(f, g)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_f_gives_the_zero_quotient(self, p):
        spec = FieldSpec(p, ("u",), ("x", "y"))
        zero, g = Polynomial(spec, {}), parse_poly("x*y + u", spec)
        assert exact_divide(zero, g) == divide_by_scan(zero, g) == zero

    @pytest.mark.parametrize("g_text,f_text", [
        ("x*y + 1", "x^5 + y^5"),          # x*y does not divide x^5
        ("x^2 + y", "x*y^3 + x*y + 1"),    # x^2 does not divide x*y^3
        ("x^3*y^3 + 1", "x^2 + y^2"),      # deg g above deg f
        ("u*x + 1", "x^4 + u"),            # u*x does not divide x^4
    ])
    @pytest.mark.parametrize("p", [2, 3])
    def test_leading_term_of_g_not_dividing_that_of_f(self, p, g_text, f_text):
        spec = FieldSpec(p, ("u",), ("x", "y"))
        f, g = parse_poly(f_text, spec), parse_poly(g_text, spec)
        assert exact_divide(f, g) is divide_by_scan(f, g) is None
        assert multiplicity(f, g) == multiplicity_by_units(f, g) == 0

    def test_selftest_catches_a_kernel_without_its_guard_bits(self, monkeypatch):
        # keeping only the guard bit of the total degree, the kernel divides
        # any leading term of high enough degree, whatever its exponents
        import frobval.function_field as ff

        divide = ff._divide_packed
        monkeypatch.setattr(ff, "_divide_packed", lambda f, g, guard, p: divide(
            f, g, 1 << (guard.bit_length() - 1), p))
        ok, lines = run_selftest(seed=0)
        assert not ok and "multiplicities: FAILED" in lines


class TestReaderAgainstPerAtomReference:
    """The monomial-term reader and its Frobenius-digit powers against the
    reader that builds one polynomial per atom and powers by squaring."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.randoms(use_true_random=False), primes, st.integers(0, 2))
    def test_generated_expressions(self, rng, p, m):
        spec = FieldSpec(p, ("u", "w")[:m], ("x", "y"))
        num = random_expression(spec, rng)
        assert parse_poly(num, spec) == parse_ratfun_by_atoms(num, spec).num
        assert reader_agrees(f"{num}/({random_expression(spec, rng)})", spec)

    @pytest.mark.parametrize("text,code", [
        ("(x-x)^3", "ZERO_ARGUMENT"),
        ("x/(y-y)", "ZERO_DENOMINATOR"),
        ("0^0", "0"),
        ("5*x", "ZERO_ARGUMENT"),
        ("(5*x)^0*y", "1"),
        ("-(--(x+y)^5 - x^5)", "5"),
    ])
    def test_zero_factors_and_zero_powers(self, text, code):
        spec = FieldSpec(5, (), ("x", "y"))
        assert reader_agrees(text, spec)
        code_out, out = run_script(
            f"field p=5 vars(x,y)\nvaluation v = divisorial y\neval v {text}\n", fmt="json"
        )
        obj = json.loads(out[0])
        assert obj.get("error", obj.get("value")) == code
        assert code_out == (1 if code.isupper() else 0)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_digit_power_matches_squaring(self, p):
        spec = FieldSpec(p, ("u",), ("x", "y"))
        # squaring a trinomial to k = 60 takes seconds: it stops at 3p
        for text, k_max in [("x + y", 60), ("2*u*y^2 + x", 60), ("3*x^2*y", 60),
                            ("x - x", 60), (f"u + x^{p} + 1", 3 * p)]:
            f = parse_poly(text, spec)
            for k in range(k_max + 1):
                assert f**k == power_by_squaring(f, k), (text, k)

    def test_quotient_of_cancelling_factors(self):
        spec = FieldSpec(3, ("u",), ("x", "y"))
        text = "(x+u*y)^4*(x-y)^2/((x-y)*(x+u*y)^3)"
        r = parse_ratfun(text, spec)
        assert reader_agrees(text, spec)
        assert r == parse_ratfun("(x+u*y)*(x-y)", spec)


# ---------------------------------------------------------------------------
# Series orders: the monomial content in closed form against whole expansion


def outcome(value, f):
    try:
        return value(f)
    except FrobvalError as exc:
        return exc.code, exc.message


@pytest.fixture
def value_without_shift(monkeypatch):
    """SeriesRestriction.value_of_poly with the order of the monomial content
    left out of the value: a mutant of the main path's source."""
    monkeypatch.setattr(SeriesRestriction, "value_of_poly", mutant(
        SeriesRestriction.value_of_poly, ("shift + min(coeffs)", "min(coeffs)")))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data(), primes)
def content_against_whole_expansion(data, p):
    # x is c*t^i or c*t + a tail, y is factorial_gap, so every order is
    # finite; y^i - x/c cancels its leading term t^i, so some cofactors lie
    # above their least term order; the cap lies within 16 of v(f), between
    # the least term order and v(f), below 16, or at 0
    spec = FieldSpec(p, (), ("x", "y"))
    c = data.draw(st.integers(1, p - 1))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(1, 6))
        x = PowerSeries.from_polynomial_coeffs(p, {i: c})
    else:
        i = 1
        tail = data.draw(st.lists(st.integers(0, p - 1), max_size=4))
        x = PowerSeries.from_polynomial_coeffs(p, {1: c, **dict(enumerate(tail, start=2))})
    assign = {"x": x, "y": PowerSeries.factorial_gap(p)}
    h = data.draw(sparse_polys(spec))
    if data.draw(st.booleans()):
        h = h * Polynomial(spec, {(0, i): 1, (1, 0): -pow(c, -1, p)})
    a, b = data.draw(st.integers(0, 30)), data.draw(st.integers(0, 30))
    f = Polynomial(spec, {(a, b): 1}) * h
    (order,) = series_value_unsplit(Valuation(SeriesRestriction(spec, assign)), f)
    bound = min(e[0] * i + e[1] for e in f.terms)
    cap = data.draw(st.sampled_from([
        st.integers(max(0, order - 16), order + 16),
        st.integers(bound, order),
        st.integers(-1, 15),
        st.just(0),
    ]).flatmap(lambda caps: caps))
    v = Valuation(SeriesRestriction(spec, assign, cap))
    assert outcome(v.value_of_poly, f) == outcome(lambda g: series_value_unsplit(v, g), f)


class TestSeriesContentAgainstWholeExpansion:
    def test_values_and_errors_agree(self):
        content_against_whole_expansion()

    def test_a_mutant_without_the_content_order_fails(self, value_without_shift):
        with pytest.raises(AssertionError):
            content_against_whole_expansion()

    def test_selftest_catches_a_mutant_without_the_content_order(self, value_without_shift):
        ok, lines = run_selftest(seed=0)
        assert not ok and "series orders: FAILED" in lines


# ---------------------------------------------------------------------------
# Series orders: the initial form against whole expansion


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data(), primes)
def initial_form_against_whole_expansion(data, p):
    # x is c*t^i plus a tail and y is factorial_gap or d*t plus a tail, with
    # c, d != 1 where p > 2; f = x^a*y^b*(sum_k c_k*x^k*y^(i*(T-k))) plus
    # terms of higher order, so its T + 1 terms of least order
    # B = a*i + b + i*T tie, and half the time c_T makes their initial form
    # cancel (at p = 2 two ones cancel too); the cap lies below, at or just
    # above B, or far enough above it to finish most cancelling cases
    spec = FieldSpec(p, (), ("x", "y"))
    lead = st.integers(2, p - 1) if p > 2 else st.just(1)
    tail = st.dictionaries(st.integers(2, 9), st.integers(1, p - 1), max_size=3)
    i = data.draw(st.integers(1, 3))
    x = PowerSeries.from_polynomial_coeffs(
        p, {**{j + i - 1: c for j, c in data.draw(tail).items()}, i: data.draw(lead)})
    if data.draw(st.booleans()):
        y = PowerSeries.factorial_gap(p)
    else:
        y = PowerSeries.from_polynomial_coeffs(p, {**data.draw(tail), 1: data.draw(lead)})
    a, b, T = (data.draw(st.integers(0, 4)) for _ in range(3))
    coeffs = [data.draw(st.integers(1, p - 1)) for _ in range(T + 1)]
    lx, ly = next(x.terms())[1], next(y.terms())[1]
    if T and data.draw(st.booleans()):
        rest = sum(c * pow(lx, k, p) * pow(ly, i * (T - k), p) for k, c in enumerate(coeffs[:-1]))
        coeffs[-1] = (-rest * pow(lx, -T, p) % p) or coeffs[-1]
    tied = Polynomial(spec, {(k, i * (T - k)): c for k, c in enumerate(coeffs)})
    higher = Polynomial(spec, {(1, i * T): 1}) * data.draw(sparse_polys(spec))
    f = Polynomial(spec, {(a, b): 1}) * (tied + higher)
    bound = a * i + b + i * T
    cap = data.draw(st.sampled_from([bound - 1, bound, bound + 1, bound + 2, bound + 40]))
    v = Valuation(SeriesRestriction(spec, {"x": x, "y": y}, cap))
    assert outcome(v.value_of_poly, f) == outcome(lambda g: series_value_unsplit(v, g), f)


class TestSeriesInitialFormAgainstWholeExpansion:
    def test_values_and_errors_agree(self):
        initial_form_against_whole_expansion()

    def test_a_mutant_without_the_leading_coefficients_fails(self, monkeypatch):
        monkeypatch.setattr(SeriesRestriction, "value_of_poly", _value_without_leads())
        with pytest.raises(AssertionError):
            initial_form_against_whole_expansion()

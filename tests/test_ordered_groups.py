import itertools
import random
from fractions import Fraction

import pytest

from frobval.classifier import least_pure_exponent
from frobval.errors import FrobvalError
from frobval.exact_arith import QuadraticReal
from frobval.function_field import FieldSpec, parse_ratfun
from frobval.ordered_groups import (
    OrderedGroup,
    hnf_rows,
    kernel_basis,
)
from frobval.oracle import coset_count_bruteforce, frobenius_restriction
from frobval.valuations import Monomial, Valuation

from conftest import lex_monomial, random_lattice, random_monomial_valuation


def qr(a, b, d=2):
    return QuadraticReal(Fraction(a), Fraction(b), d)


def difference(a, b):
    return tuple(x - y for x, y in zip(a, b))


def scaled(g, p):
    """pG, from the generators p*b over the basis rows b of G."""
    return OrderedGroup.from_generators([[p * x for x in row] for row in g.basis_int], g.d)


def sampled_elements(group, bound=5):
    """All basis combinations with coefficients in [-bound, bound]."""
    out = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=group.rank):
        vec = [0] * group.dim
        for c, row in zip(coeffs, group.basis_int):
            vec = [a + c * b for a, b in zip(vec, row)]
        out.append(tuple(vec))
    return out


def solve_integer(basis, vec):
    """Coefficients c with sum(c_i * basis_i) = vec, or None if vec is not
    in the lattice; the basis rows must be echelon (as from hnf_rows)."""
    v = [Fraction(x) for x in vec]
    coeffs = []
    for row in basis:
        j = next(k for k, x in enumerate(row) if x)
        c = v[j] / row[j]
        if c.denominator != 1:
            return None
        coeffs.append(int(c))
        v = [x - c * y for x, y in zip(v, row)]
    return None if any(v) else coeffs


class TestConstruction:
    def test_arch_independent_generators(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 1)], d=2)
        assert g.rank == 2

    def test_arch_rational_generators_gcd(self):
        # weights 1/2 and 1/3 generate (1/6)Z
        spec = FieldSpec(5, (), ("x", "y"))
        v = Valuation(spec, Monomial.real({"x": qr(Fraction(1, 2), 0),
                                           "y": qr(Fraction(1, 3), 0)}))
        g = v.value_group()
        assert g.rank == 1
        (b,) = g.basis_int
        assert v.format_value(b) in ("1/6", "-1/6")

    def test_lex_standard_basis(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 1)])
        assert g.rank == 2
        assert set(g.basis_int) == {(1, 0), (0, 1)}

    def test_mixed_representation_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            OrderedGroup.from_generators([(1,), (1, 0)])
        assert exc.value.code == "MIXED_REPRESENTATION"
        with pytest.raises(FrobvalError) as exc:
            OrderedGroup.from_generators([(1, 0, 0)], d=2)
        assert exc.value.code == "MIXED_REPRESENTATION"

    def test_trivial_rejected(self):
        with pytest.raises(FrobvalError) as exc:
            OrderedGroup.from_generators([(0, 0)])
        assert exc.value.code == "MIXED_REPRESENTATION"

    def test_basis_spans_generators_both_directions(self):
        rng = random.Random(7)
        for _ in range(50):
            r = rng.randint(1, 3)
            gens = [
                tuple(rng.randint(-4, 4) for _ in range(r))
                for _ in range(rng.randint(1, r + 1))
            ]
            if not any(any(gen) for gen in gens):
                continue
            g = OrderedGroup.from_generators(gens)
            for gen in gens:
                assert solve_integer(g.basis_int, gen) is not None
            # a basis row lies in the generators' lattice: adding it leaves
            # the (canonical) Hermite basis unchanged
            for b in g.basis_int:
                assert hnf_rows(gens + [b])[0] == list(g.basis_int)


class TestRank:
    def test_one_and_sqrt2(self):
        assert OrderedGroup.from_generators([(1, 0), (0, 1)], d=2).rank == 2

    def test_singleton(self):
        assert OrderedGroup.from_generators([(1, 0)], d=2).rank == 1

    def test_lex_z3(self):
        g = OrderedGroup.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert g.rank == 3


class TestIndexP:
    def test_rank2_p5(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 1)], d=2)
        assert g.index_p(5) == 25

    def test_rank1_p3(self):
        g = OrderedGroup.from_generators([(1,)])
        assert g.index_p(3) == 3

    def test_oracle_agreement_fixtures(self):
        fixtures = [
            OrderedGroup.from_generators([(1, 0), (0, 1)], d=2),
            # weights 1/2 and 1/3 over the common denominator 6
            OrderedGroup.from_generators([(3, 0), (2, 0)], d=2),
            OrderedGroup.from_generators([(1, 0), (0, 1)]),
            OrderedGroup.from_generators([(1, 0), (0, 2)]),
            OrderedGroup.from_generators([(2, 4), (6, 8)]),
        ]
        for g in fixtures:
            for p in (2, 3, 5):
                assert g.index_p(p) == coset_count_bruteforce(g, p)

    def test_index_bounded_by_p_pow_rank(self):
        rng = random.Random(13)
        for _ in range(50):
            g = random_lattice(rng)
            for p in (2, 3, 5):
                # equality since all supported groups are finitely generated
                assert g.index_p(p) == p ** g.rank


class TestLeastPositive:
    def test_dense_arch_has_none(self):
        assert OrderedGroup.from_generators([(1, 0), (0, 1)], d=2).least_positive() is None

    def test_lex_z2(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 1)])
        assert g.least_positive() == (0, 1)

    def test_lex_scaled_second_coordinate(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 2)])
        lp = g.least_positive()
        assert lp == (0, 2)
        # bounded-box enumeration oracle
        for e in sampled_elements(g):
            if g.sign(e) > 0:
                assert not (g.sign(difference(e, lp)) < 0)

    def test_arch_rank1_positive_generator(self):
        g = OrderedGroup.from_generators([(-1, 0)], d=2)
        assert g.least_positive() == (1, 0)
        # 1 - sqrt(2) < 0, so the positive generator is -1 + sqrt(2)
        g = OrderedGroup.from_generators([(1, -1)], d=2)
        assert g.least_positive() == (-1, 1)

    def test_no_sampled_element_below(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_lattice(rng)
            lp = g.least_positive()
            assert lp is not None  # lex groups always have one
            assert g.sign(lp) > 0
            for e in sampled_elements(g, bound=5):
                if g.sign(e) > 0:
                    assert g.sign(difference(e, lp)) >= 0

    def test_arch_has_least_positive_iff_rank_one(self):
        g1 = OrderedGroup.from_generators([(2, 0), (3, 0)], d=2)
        g2 = OrderedGroup.from_generators([(1, 0), (0, 1)], d=2)
        assert g1.least_positive() is not None
        assert g2.least_positive() is None


class TestRealEmbedding:
    def test_order_is_not_tuple_order(self):
        # 1 < 3*sqrt(2) - 3, although (1, 0) > (-3, 3) as tuples
        g = OrderedGroup.from_generators([(1, 0), (-1, 1)], d=2)
        assert g.sign(difference((1, 0), (-3, 3))) < 0
        assert g.sign(difference((-3, 3), (1, 0))) > 0
        assert g.sign((3, -2)) > 0 and g.sign((-3, 2)) < 0


class TestDominatesAllMultiples:
    """A positive value dominating every multiple of the least positive
    element g is exactly a value in the splitting prime Q, which
    ``least_pure_exponent`` reports as None."""

    def test_earlier_coordinate_wins(self):
        v = lex_monomial(3)  # g = (0, 1)
        c = parse_ratfun("x1", v.spec)
        # (1, 0) > (0, n) for every n: first coordinate decides
        assert v.value_of(c) == (1, 0)
        assert least_pure_exponent(v, c) is None

    def test_same_coordinate_fails(self):
        v = lex_monomial(3)
        c = parse_ratfun("x2^5", v.spec)
        assert v.value_of(c) == (0, 5)
        assert least_pure_exponent(v, c) == 2
        # witnessed at n = 6
        assert (0, 5) < (0, 6)

    def test_arch_always_false(self):
        spec = FieldSpec(3, (), ("x",))
        v = Valuation(spec, Monomial({"x": (1, 0)}, d=2))
        assert v.value_group().basis_int == ((1, 0),)
        for k in range(1, 30):
            assert least_pure_exponent(v, parse_ratfun(f"x^{k}", spec)) is not None

    def test_mismatch_rejected(self):
        g = OrderedGroup.from_generators([(1, 0), (0, 1)])
        with pytest.raises(FrobvalError) as exc:
            g.sign((1, 0, 0))
        assert exc.value.code == "GROUP_MISMATCH"


class TestScaleGroup:
    """pG, generated by the p-scaled basis, keeps the echelon form of G."""

    def test_singleton(self):
        g = scaled(OrderedGroup.from_generators([(1, 0)], d=2), 2)
        assert g.basis_int == ((2, 0),)

    def test_lex(self):
        g = scaled(OrderedGroup.from_generators([(1, 0), (0, 1)]), 3)
        assert set(g.basis_int) == {(3, 0), (0, 3)}

    def test_least_positive_scales(self):
        rng = random.Random(19)
        for _ in range(20):
            g = random_lattice(rng)
            p = rng.choice([2, 3, 5])
            lp = g.least_positive()
            scaled_lp = scaled(g, p).least_positive()
            assert scaled_lp == tuple(p * x for x in lp)

    def test_value_group_of_frobenius_restriction(self):
        rng = random.Random(23)
        for _ in range(20):
            v = random_monomial_valuation(rng)
            g = v.value_group()
            assert frobenius_restriction(v).value_group() == scaled(g, v.spec.p)


class TestHnfKernel:
    def test_hnf_of_diagonal(self):
        assert hnf_rows([[2, 0], [0, 6]])[0] == [(2, 0), (0, 6)]

    def test_hnf_reduces(self):
        basis = hnf_rows([[2, 4], [6, 8]])[0]
        # lattice index = |det| = |16 - 24| = 8 -> pivots multiply to 8
        pivots = [next(x for x in row if x) for row in basis]
        prod = 1
        for x in pivots:
            prod *= x
        assert prod == 8

    def test_kernel_of_sum_map(self):
        # map (a, b) -> a + b: kernel generated by (1, -1)
        kern = kernel_basis([[1, 1]])
        assert len(kern) == 1
        v = kern[0]
        assert v in ((1, -1), (-1, 1))

    def test_kernel_orthogonality(self):
        rng = random.Random(23)
        for _ in range(30):
            rows = [
                [rng.randint(-3, 3) for _ in range(4)]
                for _ in range(rng.randint(1, 3))
            ]
            kern = kernel_basis(rows)
            for v in kern:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0

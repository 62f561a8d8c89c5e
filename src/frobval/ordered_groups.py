"""Finitely generated totally ordered abelian groups.

Every supported value group is a subgroup of Z^dim, its elements integer
tuples, under one of two orders:

* lex: lexicographic order (native tuple comparison in Python is exactly
  this order);
* the real embedding (a, b) -> a + b*sqrt(d) of Z^2, for a square-free
  d >= 2.  It is injective because sqrt(d) is irrational, so it orders
  Z^2 totally; a subgroup of rank 2 is dense in R.

Only the sign test depends on the order; the group itself is the integer
lattice, with a canonical basis in row-style Hermite normal form (echelon
rows, positive pivots, entries above a pivot reduced).  One reduction of
[A | I] gives both that basis for the rows of A and the relations among
them, so a monomial valuation's value group and its weight-zero kernel come
from one Hermite form of the weights.  A group answers what the classifier
asks of it: the sign of an element, its rank, the index [G:pG] and its
least positive element.  Smith normal form and reduction modulo a lattice
live only in the oracle module, as cross-checks.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FrobvalError
from .exact_arith import quadratic_sign


def hnf_rows(rows):
    """Row-style Hermite normal form of an integer matrix A, with the
    relations among its rows, from one reduction of [A | I] on A's columns.

    Returns (basis, relations): `basis` holds the nonzero echelon rows
    (pivot columns strictly increasing, pivots positive, entries above each
    pivot reduced into [0, pivot)); `relations` holds the identity-block
    rows beside the zero rows, a lattice basis of {y : y A = 0}.
    """
    a = [list(r) for r in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    for i, r in enumerate(a):
        r.extend(int(i == j) for j in range(m))

    def addmul(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]

    pivot_row = 0
    for col in range(ncols):
        # clear the column below pivot_row via Euclid
        while True:
            nz = [i for i in range(pivot_row, m) if a[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(a[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                addmul(i, i0, -(a[i][col] // a[i0][col]))
        if not nz:
            continue
        i0 = nz[0]
        a[i0], a[pivot_row] = a[pivot_row], a[i0]
        if a[pivot_row][col] < 0:
            a[pivot_row] = [-x for x in a[pivot_row]]
        piv = a[pivot_row][col]
        for i in range(pivot_row):
            if q := a[i][col] // piv:
                addmul(i, pivot_row, -q)
        pivot_row += 1

    return ([tuple(r[:ncols]) for r in a[:pivot_row]],
            [tuple(r[ncols:]) for r in a[pivot_row:]])


def kernel_basis(matrix_rows):
    """Integer kernel of x -> M @ x for an r x n integer matrix given as
    rows: a lattice basis of {x in Z^n : M x = 0}, the relations among the
    rows of M^T."""
    # only the tests and the benchmark tracer, which wraps it by name, call it
    return hnf_rows(zip(*matrix_rows))[1]


def order_sign(vec, d=None) -> int:
    """Sign of an integer vector: of its first nonzero entry in lex order
    (d None), or of a + b*sqrt(d) for vec = (a, b) in the real embedding."""
    if d is not None:
        return quadratic_sign(vec[0], vec[1], d)
    for x in vec:
        if x:
            return 1 if x > 0 else -1
    return 0


def order_min(vecs, d=None):
    """The least of a nonempty iterable of integer vectors, in lex order
    (d None) or in the real embedding through (1, sqrt(d))."""
    if d is None:
        return min(vecs)
    it = iter(vecs)
    best = next(it)
    for v in it:
        if quadratic_sign(v[0] - best[0], v[1] - best[1], d) < 0:
            best = v
    return best


class OrderedGroup(namedtuple("OrderedGroup", "dim basis_int d", defaults=(None,))):
    """Subgroup of Z^dim, ordered lexicographically (d None) or through the
    real embedding (a, b) -> a + b*sqrt(d).  `basis_int` holds the echelon
    HNF rows of the lattice, and `d` the radicand of the real embedding
    (None for lex)."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.basis_int)

    @classmethod
    def from_generators(cls, gens, d=None) -> "OrderedGroup":
        gens = [tuple(g) for g in gens]
        if not gens:
            raise FrobvalError("MIXED_REPRESENTATION", "group needs at least one generator")
        dim = len(gens[0])
        if any(len(g) != dim for g in gens):
            raise FrobvalError("MIXED_REPRESENTATION", "generators must share one length")
        if d is not None and dim != 2:
            raise FrobvalError("MIXED_REPRESENTATION", "the real embedding orders pairs (a, b)")
        if not any(any(g) for g in gens):
            raise FrobvalError("MIXED_REPRESENTATION", "group must be non-trivial")
        return cls(dim, tuple(hnf_rows(gens)[0]), d)

    # -- the order -----------------------------------------------------------

    def sign(self, a) -> int:
        """-1, 0 or 1 as the element a is negative, zero or positive."""
        if len(a) != self.dim:
            raise FrobvalError("GROUP_MISMATCH", "element does not belong to this group")
        return order_sign(a, self.d)

    # -- the group-theoretic operations ------------------------------------

    def index_p(self, p: int) -> int:
        """[G : pG] = p^rank for a finitely generated torsion-free group."""
        return p ** self.rank

    def least_positive(self):
        """The least positive element, or None.

        Under the real embedding a rank-1 group is cyclic and its positive
        generator is least; a rank-2 group is dense in R and has none.  A lex
        group always has one: the last HNF basis row (largest pivot column).
        Any positive element lex-below it must vanish on all earlier
        coordinates, hence is a positive multiple of that row.
        """
        if self.d is None:
            return self.basis_int[-1]
        if self.rank >= 2:
            return None
        (g,) = self.basis_int
        return g if order_sign(g, self.d) > 0 else tuple(-x for x in g)

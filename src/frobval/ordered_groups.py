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
rows, positive pivots, entries above a pivot reduced).  A group answers
what the classifier asks of it: the sign of an element, its rank, the
index [G:pG] and its least positive element.  Smith normal form and
reduction modulo a lattice live only in the oracle module, as
cross-checks.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FrobvalError
from .exact_arith import quadratic_sign


def hnf_rows(rows, transform=False):
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero echelon rows (pivot columns strictly increasing,
    pivots positive, entries above each pivot reduced into [0, pivot)).
    With ``transform=True`` also returns (H_full, U) where U is unimodular,
    U @ A = H_full, and H_full keeps zero rows so kernel rows of U line up.
    """
    a = [list(r) for r in rows]
    m = len(a)
    ncols = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def rowop_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def rowop_addmul(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def rowop_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    pivot_row = 0
    pivots = []
    for col in range(ncols):
        # clear the column below pivot_row via Euclid
        while True:
            nz = [i for i in range(pivot_row, m) if a[i][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(a[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = a[i][col] // a[i0][col]
                rowop_addmul(i, i0, -q)
        nz = [i for i in range(pivot_row, m) if a[i][col] != 0]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != pivot_row:
            rowop_swap(i0, pivot_row)
        if a[pivot_row][col] < 0:
            rowop_neg(pivot_row)
        piv = a[pivot_row][col]
        for i in range(pivot_row):
            q = a[i][col] // piv
            if q:
                rowop_addmul(i, pivot_row, -q)
        pivots.append(col)
        pivot_row += 1

    basis = [tuple(r) for r in a[:pivot_row]]
    if transform:
        return [tuple(r) for r in a], [tuple(r) for r in u]
    return basis


def kernel_basis(matrix_rows):
    """Integer kernel of the linear map x -> M @ x for an r x n integer
    matrix given as rows; returns a lattice basis of {x in Z^n : M x = 0}."""
    r = len(matrix_rows)
    n = len(matrix_rows[0]) if r else 0
    # rows of M^T are the images of the standard basis vectors
    mt = [[matrix_rows[i][j] for i in range(r)] for j in range(n)]
    h, u = hnf_rows(mt, transform=True)
    return [tuple(u[i]) for i in range(n) if not any(h[i])]


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
        return cls(dim, tuple(hnf_rows(gens)), d)

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

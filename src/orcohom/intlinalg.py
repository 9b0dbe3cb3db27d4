"""Exact linear algebra over the integers and over coefficient domains.

Matrices are plain lists of rows (``list[list[int]]``, or rows of
BaseRing elements for the generic routines), so every entry is an
arbitrary-precision Python number.  A matrix with no rows carries no
column count; routines that need one take it as an argument.  Row
Hermite normal form is the one integer elimination: Smith invariants
alternate it with transposes, integer kernels read it off [mat^T | I],
and ``field_rref`` is it with every pivot required to be 1.
:class:`FPModule` is the one relation lattice: it owns the HNF of its
relation rows and is the only reader of that format, for reduction,
membership, standard columns, and free rank and torsion over a base.
A fraction-free determinant works over the integers.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .coefficients import ZZ, BaseRing, NonDivisibleBase


class NonConfluentPresentation(ValueError):
    """The relation set falls outside the supported reduction classes."""


def _support(row: list, start: int) -> list[int]:
    """Nonzero columns of a pivot row from its pivot column on.

    An HNF pivot row is zero left of its pivot, so subtracting a multiple
    of it changes another row only in these columns.
    """
    return [j for j in range(start, len(row)) if row[j]]


def hnf(mat: list[list[int]]):
    """Row Hermite normal form.

    Returns (H, pivot_columns) where H contains only the nonzero rows,
    pivots are positive, and entries above each pivot are reduced into
    [0, pivot).
    """
    m = [list(r) for r in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        if r == nrows:
            break
        # gcd whirl on rows r.. in column c
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
            pr = m[r]
            p = pr[c]
            support = _support(pr, c)
            done = True
            for i in range(r + 1, nrows):
                row = m[i]
                if row[c] != 0:
                    q = row[c] // p
                    if q:
                        for j in support:
                            row[j] -= q * pr[j]
                    if row[c] != 0:
                        done = False
            if done:
                break
        if m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            pr = m[r]
            p = pr[c]
            support = _support(pr, c)
            for i in range(r):
                row = m[i]
                q = row[c] // p
                if q:
                    for j in support:
                        row[j] -= q * pr[j]
            pivots.append(c)
            r += 1
    return m[:r], pivots


def kernel_basis(mat: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the saturated integer lattice {x : mat @ x = 0} in Z^ncols.

    Rows of the returned matrix are the basis vectors: the rows of
    HNF([mat^T | I]) whose pivot lies in the identity block, which are
    zero on mat^T.  No library code calls it; the test oracles and the
    benchmark's wrapper do.
    """
    r = len(mat)
    h, pivots = hnf([[row[j] for row in mat] + [int(i == j) for i in range(ncols)]
                     for j in range(ncols)])
    return [row[r:] for row, c in zip(h, pivots) if c >= r]


def snf_invariants(mat: list[list[int]]) -> list[int]:
    """Nonzero Smith normal form invariants d1 | d2 | ... of the matrix.

    Alternates the row HNF of the matrix and of its transpose until every
    row holds only its pivot (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    A pass either makes the leading pivot a proper divisor of the one
    before or clears the rest of its row and column, which then stay
    clear, so the loop ends.  A gcd/lcm exchange between each pair of
    diagonal entries puts them in divisibility order.
    """
    h, pivots = hnf(mat)
    while any(v for row, c in zip(h, pivots) for j, v in enumerate(row) if j != c):
        h, pivots = hnf([list(col) for col in zip(*h)])
    diag = [row[c] for row, c in zip(h, pivots)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


class FPModule:
    """Z^ngens modulo the row span of an integer relation matrix.

    Instances are immutable after construction.  ``lattice`` is the row
    HNF (H, pivot columns) of the relations, computed on first use; the
    methods below are the only code that reads it.
    """

    def __init__(self, ngens: int, relations=()):
        self.ngens = int(ngens)
        if self.ngens < 0:
            raise ValueError(f"generator count must be nonnegative, got {self.ngens}")
        self.relations = list(relations)
        for r in self.relations:
            if len(r) != self.ngens:
                raise ValueError("relation length must equal the generator count")

    @classmethod
    def free(cls, rank: int) -> "FPModule":
        return cls(rank)

    @classmethod
    def modular(cls, n: int, rank: int) -> "FPModule":
        return cls(rank, [[n if j == i else 0 for j in range(rank)] for i in range(rank)])

    @cached_property
    def lattice(self) -> tuple[list[list[int]], list[int]]:
        return hnf(self.relations)

    @property
    def rank(self) -> int:
        """Rank of the relation lattice: the number of HNF pivots."""
        return len(self.lattice[1])

    def reduce(self, vec, base: BaseRing = ZZ) -> tuple[list, list]:
        """(q, r) with vec = sum_i q_i * H_i + r over ``base``, r canonical.

        A pivot that is a unit of the base clears its column; any other
        pivot p takes the integer value of its entry into [0, p), and an
        entry without one raises NonConfluentPresentation.
        """
        h, pivots = self.lattice
        is_zero, from_int, sub, mul = base.is_zero, base.from_int, base.sub, base.mul
        r = list(vec)
        q = [base.zero()] * len(h)
        for i, (row, c) in enumerate(zip(h, pivots)):
            entry = r[c]
            if is_zero(entry):
                continue
            p = row[c]
            if p == 1:
                qi = entry
            elif base.is_unit(from_int(p)):
                qi = mul(entry, base.inv_unit(from_int(p)))
            else:
                ei = base.as_int(entry)
                if ei is None:
                    raise NonConfluentPresentation(
                        "cannot reduce non-integer coefficients against a torsion pivot")
                qi = from_int(ei // p)
                if is_zero(qi):
                    continue
            q[i] = qi
            for j in range(c, self.ngens):
                if row[j]:
                    r[j] = sub(r[j], mul(qi, from_int(row[j])))
        return q, r

    def solve(self, vec) -> list[int] | None:
        """Integer coefficients of vec over the rows of H, or None off the lattice."""
        q, r = self.reduce(vec)
        return None if any(r) else q

    def contains(self, vec) -> bool:
        """Is vec zero in the module?"""
        return not any(self.reduce(vec)[1])

    def quotient(self, rows) -> "FPModule":
        """This module modulo the span of ``rows``, stacked onto H."""
        return FPModule(self.ngens, list(rows) + self.lattice[0])

    def standard_columns(self, base: BaseRing = ZZ) -> list[int]:
        """Columns whose pivot, 0 where there is none, is zero in the base."""
        pivot_value = {c: row[c] for row, c in zip(*self.lattice)}
        return [j for j in range(self.ngens) if base.is_zero(base.from_int(pivot_value.get(j, 0)))]

    def rank_torsion(self, base: BaseRing = ZZ) -> tuple[int, list[int]]:
        """Free rank and torsion of the module over ``base``.

        A unit pivot's column is a unit vector (zero below, reduced mod 1
        above), so column operations split off an invariant 1 without
        touching other rows (Cohen, *A Course in Computational Algebraic
        Number Theory*, 2.4); only the rest goes through Smith form.
        Each invariant, with a 0 for each missing one, is free when it is
        zero in the base and torsion when it is neither zero nor a unit;
        a 1 is neither.
        """
        h, pivots = self.lattice
        unit_cols = {c for row, c in zip(h, pivots) if row[c] == 1}
        residual = [[v for j, v in enumerate(row) if j not in unit_cols]
                    for row, c in zip(h, pivots) if row[c] != 1]
        invs = snf_invariants(residual)
        invs += [0] * (self.ngens - len(unit_cols) - len(invs))
        free, torsion = 0, []
        for d in invs:
            if base.is_zero(base.from_int(d)):
                free += 1
            elif not base.is_unit(base.from_int(d)):
                torsion.append(d)
        return free, torsion

    def is_finite(self) -> bool:
        return self.rank == self.ngens

    def same_presentation(self, other: "FPModule") -> bool:
        return self.ngens == other.ngens and self.lattice[0] == other.lattice[0]

    def __repr__(self):
        r, t = self.rank_torsion()
        return f"FPModule(rank={r}, torsion={t})"


def det_bareiss_ring(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix.

    Each step divides by the previous pivot, which is exact over the
    integers (Bareiss, Math. Comp. 22, 1968), so every entry stays integral.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = False
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = not sign
        pk, rk = m[k][k], m[k]
        for i in range(k + 1, n):
            ri = m[i]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - ri[k] * rk[j]) // prev
            ri[k] = 0
        prev = pk
    d = m[n - 1][n - 1]
    return -d if sign else d


def field_rref(rows: list[list[int]]):
    """Reduced row echelon form over Z when every pivot is a unit.

    A row HNF whose pivots are all 1 is the reduced echelon form of its
    row lattice, which is unique, so this is ``hnf`` with any other pivot
    raising NonDivisibleBase.  This inverts a unitriangular matrix
    exactly, as the Hopf layer does.  Returns (reduced nonzero rows,
    pivot column indices).
    """
    h, pivots = hnf(rows)
    for row, c in zip(h, pivots):
        if row[c] != 1:
            raise NonDivisibleBase(f"{row[c]} is not invertible in {ZZ}")
    return h, pivots

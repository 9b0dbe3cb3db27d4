"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's code paths: ranks go
through Fraction Gaussian elimination, determinants through cofactor
expansion, torsion through minor gcds, and partition counts through
the Euler recurrence.  Coassociativity is checked on the coproduct
dictionaries alone, primitives as the integer kernel of the coproduct
conditions rather than by Newton's identity, and indecomposables on
the whole multiplication table.  Relation-ideal membership goes
through the degreewise relation lattice, with no cofactor certificate,
and the flag relations are rebuilt from e_k and h_k summed term by
term.  The coproduct is rebuilt by dualizing the homology product
through the e-to-m transition matrix and its inverse, not from the
Whitney formula.  Substitution goes term by term, one ring product per variable
factor, each product folded term by term into a running sum.  The
universal law's g^-1 and the formal inverse are solved at the full
truncation.  Symmetric polynomials are decomposed over e_1..e_n by
leading-term subtraction, and the complement of a split tower is found
as the integer kernel of the retraction rather than as the image of
1 - s r.  Lazard ranks come from the whole relation lattice of each
weight, not from the indecomposables and Lazard's theorem.  A ring map
is onto a weight when the images of the source monomials and the
target's relation rows span the target's ambient lattice, not because
it hits every generator.  Reduced row echelon forms over a field go
through the coefficient ring's own arithmetic, with each pivot row
scaled by its inverse.  The stable image of a window is found from raw
powers of its composite, every lattice built before any is compared.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

from orcohom.coefficients import IntegerRing, ModularRing, RationalRing, ZZ
from orcohom.conner_floyd import _coefficient_images, base_change, cobordism_presentation
from orcohom.intlinalg import FPModule, hnf, kernel_basis
from orcohom.fgl import FormalGroupLaw, _generic_series, lazard_generators, lazard_ring, series_ring
from orcohom.polynomials import Polynomial, mono_divides, mono_mul, mono_weight, swap_variables
from orcohom.presented import (Degreewise, NonConfluentPresentation, PresentedRing, QuotientCoefficients,
                               RingMap, compose)
from orcohom.spaces import ClassifyingBGL, cohomology, multiplicative_theory


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


@lru_cache(maxsize=None)
def partitions_exactly_k(n: int, k: int) -> int:
    """Number of partitions of n into exactly k positive parts."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0:
        return 0
    return partitions_exactly_k(n - 1, k - 1) + partitions_exactly_k(n - k, k)


@lru_cache(maxsize=None)
def partitions_in_box(rows: int, cols: int, size: int) -> int:
    """Partitions of `size` fitting in a rows x cols box."""
    if size == 0:
        return 1
    if size < 0 or rows == 0 or cols == 0:
        return 0
    # first part equals cols or is smaller
    return partitions_in_box(rows - 1, cols, size - cols) + partitions_in_box(rows, cols - 1, size)


def gaussian_binomial_ranks(m: int, k: int) -> list[int]:
    """Coefficient list of the q-binomial counting partitions in an m x k box."""
    return [partitions_in_box(m, k, s) for s in range(m * k + 1)]


def whitney_grassmannian(base, m: int, n: int, D: int, chern=(), base_ring=None) -> PresentedRing:
    """Gr(m, n) on s1..sm and t1..t(n-m), the Chern classes of the
    tautological and quotient bundles, with the n Whitney relations
    sum_{i+j=k} s_i t_j = c_k of c(S) c(Q) = c(V) (k = 1..n).  Over a
    base ring, its variables follow the fiber's, primed, and its
    relations and the Chern classes c_k move past the fiber."""
    nm = n - m
    sigma = [Polynomial.one(base)] + [Polynomial.variable(base, i) for i in range(m)]
    tau = [Polynomial.one(base)] + [Polynomial.variable(base, m + j) for j in range(nm)]
    c = [ck.shift_indices(n) for ck in chern] + [Polynomial.zero(base)] * (n - len(chern))
    rels = [sum((sigma[i] * tau[k - i] for i in range(max(0, k - nm), min(m, k) + 1)),
                Polynomial.zero(base)) - c[k - 1] for k in range(1, n + 1)]
    variables = [(f"s{i}", i) for i in range(1, m + 1)] + [(f"t{j}", j) for j in range(1, nm + 1)]
    if base_ring is not None:
        variables += [(name + "'", w) for name, w in base_ring.variables]
        rels += [r.shift_indices(n) for r in base_ring.relations]
    return PresentedRing(base, variables, rels, D)


def q_factorial_ranks(n: int) -> list[int]:
    """Coefficient list of [n]_q!: permutations of n counted by inversions."""
    out = [0] * (n * (n - 1) // 2 + 1)
    for perm in permutations(range(n)):
        out[sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])] += 1
    return out


def standard_monomials(ring, w: int) -> list:
    """Rewrite-route basis by filtering: the weight-w monomials no leading monomial divides."""
    return [m for m in ring.monomials_of_weight(w)
            if not any(mono_divides(lm, m) for lm in ring.reduction.leading)]


def degreewise_twin(ring: PresentedRing) -> PresentedRing:
    """Same presentation, forced through the degreewise route."""
    twin = PresentedRing(ring.base, ring.variables, ring.relations, ring.truncation)
    twin.reduction = Degreewise()
    return twin


def in_relation_ideal(ring: PresentedRing, g: Polynomial) -> bool:
    """Is g, truncated at D, in the ideal of ring's stored relations?

    Asks for no certificate: the degreewise twin reduces g against the
    HNF of each weight's relation lattice.  A ring whose relations have
    no integer lattice (a coefficient such as 1 + b) raises
    NonConfluentPresentation.
    """
    return degreewise_twin(ring).normal_form(g).is_zero()


def flag_relation_certificate(base, n: int, chern=(), start: int = 0):
    """The relations e_k(l) - c_k (k = 1..n) of a rank-n flag bundle,
    and the triangular relations built from them: for i = 1..n,
    g_i = sum_{k=1..i} (-1)^(k+1) h_{i-k}(l_i..l_n) (e_k - c_k)
    (Macdonald, Symmetric Functions and Hall Polynomials, I (2.6)).

    The line classes l_1..l_n are the variables start..start+n-1, and
    chern lists c_1, c_2, ... in the ring's variables (missing classes
    are zero).  e_k and h_k are sums over the k-subsets and k-multisets
    of the indices, term by term.
    """
    def symmetric_sum(indices, k, choose):
        return int_poly(base, {tuple(sorted(Counter(pick).items())): 1 for pick in choose(indices, k)})

    lines = range(start, start + n)
    chern = list(chern) + [Polynomial.zero(base)] * (n - len(chern))
    symmetric = [symmetric_sum(lines, k, combinations) - chern[k - 1] for k in range(1, n + 1)]
    triangular = []
    for i in range(1, n + 1):
        g = Polynomial.zero(base)
        for k in range(1, i + 1):
            h = symmetric_sum(lines[i - 1:], i - k, combinations_with_replacement)
            g = g + (h * symmetric[k - 1]).scale(base.from_int((-1) ** (k + 1)))
        triangular.append(g)
    return symmetric, triangular


def compose_termwise(target: PresentedRing, p: Polynomial, images, source_base) -> Polynomial:
    """``presented.compose`` term by term, its reference.

    Each term c * x_i^e * ... starts from the constant c and takes one
    ring product per variable factor; x_i^e is a cached power of the
    image by repeated squaring, and the terms are summed one at a time.
    A product is ``product_by_fold`` put in normal form, so no product
    shares the base's ``accumulate`` with ``compose``.
    """
    tb = target.base
    if source_base == tb:
        coerce = lambda c: c
    elif isinstance(source_base, IntegerRing):
        coerce = lambda c: tb.from_int(c)
    else:
        raise ValueError("coefficient bases are incompatible for substitution")

    def mul(a: Polynomial, b: Polynomial) -> Polynomial:
        # the operands are validated as ``PresentedRing.mul`` does
        target._validate_element(a)
        target._validate_element(b)
        return target.normal_form(product_by_fold(a, b, target.weights, target.truncation))

    def pow(a: Polynomial, k: int) -> Polynomial:
        result = target.one_poly()
        square = a
        while k:
            if k & 1:
                result = mul(result, square)
            k >>= 1
            if k:
                square = mul(square, square)
        return result

    pow_cache: dict = {}
    out = Polynomial.zero(tb)
    for m, c in p.terms.items():
        term = Polynomial.constant(tb, coerce(c))
        for i, e in m:
            if (i, e) not in pow_cache:
                pow_cache[(i, e)] = pow(images[i], e)
            term = mul(term, pow_cache[(i, e)])
        out = out + term
    return target.normal_form(out)


def reduce_against_hnf(h, pivots, vec: list, base) -> list:
    """Remainder of vec against the HNF rows (h, pivots) over ``base``.

    The degreewise reduction loop as ``PresentedRing`` ran it before it
    moved into ``FPModule.reduce``, kept as the reference: a pivot that
    is a unit of the base clears its column, any other pivot p takes the
    integer value of its entry into [0, p).
    """
    v = list(vec)
    for row, c in zip(h, pivots):
        entry = v[c]
        if base.is_zero(entry):
            continue
        p = row[c]
        if p == 1:
            q = entry
        elif base.is_unit(base.from_int(p)):
            q = base.mul(entry, base.inv_unit(base.from_int(p)))
        else:
            ei = base.as_int(entry)
            if ei is None:
                raise NonConfluentPresentation(
                    "cannot reduce non-integer coefficients against a torsion pivot")
            q = base.from_int(ei // p)
            if base.is_zero(q):
                continue
        for j in range(c, len(row)):
            if row[j]:
                v[j] = base.sub(v[j], base.mul(q, base.from_int(row[j])))
    return v


def rank_over_Q(rows) -> int:
    """Row rank by plain Fraction Gaussian elimination."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def field_rref_over(rows: list[list], ring):
    """Reduced row echelon form over a field (Q or Z/p), or over any domain
    when every pivot it meets is a unit.

    Each pivot row is scaled by the inverse of its pivot unless that is 1
    (a non-unit raises NonDivisibleBase), then subtracted from the other
    rows over its support only.  Returns (reduced nonzero rows, pivot
    column indices).
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    r = 0
    pivots = []
    for c in range(ncols):
        sel = next((i for i in range(r, len(m)) if not ring.is_zero(m[i][c])), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pr = m[r]
        if not ring.is_one(pr[c]):
            inv = ring.inv_unit(pr[c])
            pr = m[r] = [ring.mul(inv, v) for v in pr]
        support = [j for j in range(c, ncols) if not ring.is_zero(pr[j])]
        for i, row in enumerate(m):
            if i != r and not ring.is_zero(row[c]):
                f = ring.neg(row[c])
                for j in support:
                    row[j] = ring.add(row[j], ring.mul(f, pr[j]))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def det_cofactor(mat) -> int:
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det_cofactor(minor)
    return total


def torsion_via_minor_gcd(rows, ncols: int) -> tuple[int, list[int]]:
    """(free rank of the cokernel, torsion) from gcds of k x k minors."""
    from itertools import combinations, permutations

    nrows = len(rows)
    d_prev = 1
    invariants = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, abs(det_cofactor(sub)))
        if g == 0:
            break
        invariants.append(g // d_prev)
        d_prev = g
    torsion = [d for d in invariants if d != 1]
    return ncols - len(invariants), torsion


def mod_p_rank(rows, p: int) -> int:
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def integer_span_contains(span_rows, vec) -> bool:
    """Membership of an integer vector in the integer row span, solved by
    elimination with exact bookkeeping (not the library HNF)."""
    rows = [list(map(int, r)) for r in span_rows]
    v = list(map(int, vec))
    ncols = len(v)
    col = 0
    while col < ncols and rows:
        live = [r for r in rows if r[col] != 0]
        if not live:
            if v[col] != 0:
                return False
            col += 1
            continue
        while True:
            live = sorted((r for r in rows if r[col] != 0), key=lambda r: abs(r[col]))
            if len(live) <= 1:
                break
            small = live[0]
            for r in live[1:]:
                q = r[col] // small[col]
                for j in range(ncols):
                    r[j] -= q * small[j]
        live = [r for r in rows if r[col] != 0]
        if live:
            pivot = live[0]
            if v[col] % pivot[col] != 0:
                return False
            q = v[col] // pivot[col]
            for j in range(ncols):
                v[j] -= q * pivot[j]
            rows = [r for r in rows if r is not pivot and any(r)]
        col += 1
    return not any(v)


def integer_span_is_everything(rows, ncols: int) -> bool:
    """Do the integer rows span Z^ncols?  Column by column, Euclid's
    algorithm among the remaining rows leaves one pivot, the gcd of their
    entries there; the span is everything exactly when each is 1."""
    rows = [list(map(int, r)) for r in rows]
    for col in range(ncols):
        live = [r for r in rows if r[col] != 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            small = live[0]
            for r in live[1:]:
                q = r[col] // small[col]
                for j in range(col, ncols):
                    r[j] -= q * small[j]
            live = [r for r in live if r[col] != 0]
        if not live or abs(live[0][col]) != 1:
            return False
        rows = [r for r in rows if r is not live[0] and any(r)]
    return True


def conjugate_partition(p) -> tuple[int, ...]:
    """Transpose of the Young diagram: part i is the number of parts of p above i."""
    return tuple(sum(1 for x in p if x > i) for i in range(max(p, default=0)))


def dominates(lam, mu) -> bool:
    """lam >= mu in dominance order, for partitions of the same weight."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def zero_one_matrix_count(rows, cols) -> int:
    """Number of 0-1 matrices with the given row sums and column sums.

    Each row in turn picks a set of columns with room left, memoized on
    the row and the room left in each (labelled) column.  The
    coefficient of m_mu in e^nu is this count for rows nu, columns mu.
    """
    seen: dict = {}

    def count(i, room):
        if max(room, default=0) > len(rows) - i:
            return 0  # a column needs more ones than rows remain
        if i == len(rows):
            return 1
        if (i, room) not in seen:
            seen[(i, room)] = sum(
                count(i + 1, tuple(r - (j in chosen) for j, r in enumerate(room)))
                for chosen in combinations(range(len(cols)), rows[i])
                if all(room[j] for j in chosen))
        return seen[(i, room)]

    return count(0, tuple(cols))


def delta_by_duality(hopf, w: int) -> dict:
    """Delta on weight w by dualizing the homology product through
    ``hopf.transition``, in the library's layout nu -> {(rho, sigma): c}.

    Dually to multiset union, Delta(m_mu) = sum over alpha u beta = mu of
    m_alpha x m_beta, so block (wa, wb) of Delta(e^nu) is
    Einv_wa^T [E[nu][alpha u beta]] Einv_wb; block (wb, wa) is its
    transpose, as multiset union commutes.  Zero entries are dropped.
    """
    parts, E, _ = hopf.transition(w)
    out = {nu: {} for nu in parts}
    index = {p: i for i, p in enumerate(parts)}
    for wa in range(w // 2 + 1):
        wb = w - wa
        pa, _, inva = hopf.transition(wa)
        pb, _, invb = hopf.transition(wb)
        nb = len(pb)
        sparse_a = [[(j * nb, c) for j, c in enumerate(row) if c] for row in inva]
        sparse_b = [[(j, c) for j, c in enumerate(row) if c] for row in invb]
        merged = [[index[tuple(sorted(alpha + beta, reverse=True))] for beta in pb] for alpha in pa]
        keys = [(rho, sig) for rho in pa for sig in pb]
        for nu, row in zip(parts, E):
            # block[rho, sig] = sum_alpha Einv_wa[alpha][rho] P_alpha[sig], with
            # P_alpha = sum_beta E[nu][alpha u beta] Einv_wb[beta]
            block = [0] * len(keys)
            for rows_a, cols in zip(sparse_a, merged):
                p_alpha = [0] * nb
                for rows_b, j in zip(sparse_b, cols):
                    e = row[j]
                    if e:
                        for s, cb in rows_b:
                            p_alpha[s] += e * cb
                support = [(s, v) for s, v in enumerate(p_alpha) if v]
                for base, ca in rows_a:
                    for s, v in support:
                        block[base + s] += ca * v
            d = out[nu]
            d.update((k, v) for k, v in zip(keys, block) if v)
            if wa != wb:
                d.update(((sig, rho), v) for (rho, sig), v in zip(keys, block) if v)
    return out


def substitute_elementary(q: Polynomial, n: int) -> Polynomial:
    """Inverse of the elementary symmetric decomposition: e-variable k-1
    becomes e_k(x_0..x_(n-1)), summed here over the k-subsets."""
    base = q.base
    e = {k: Polynomial(base, {tuple((i, 1) for i in subset): base.one()
                              for subset in combinations(range(n), k)})
         for k in range(1, n + 1)}
    out = Polynomial.zero(base)
    for m, c in q.terms.items():
        term = Polynomial.one(base)
        for k, x in m:
            term = term * e[k + 1] ** x
        out = out + term.scale(c)
    return out


class NotSymmetric(ValueError):
    """Input polynomial is not invariant under variable permutations."""


def elementary_symmetric(base, k: int, indices) -> Polynomial:
    """e_k over the given variable indices (e_0 = 1)."""
    indices = list(indices)
    if k < 0 or k > len(indices):
        return Polynomial.zero(base)
    return Polynomial(base, {tuple((i, 1) for i in sorted(combo)): base.one()
                             for combo in combinations(indices, k)})


def is_symmetric(p: Polynomial, n: int) -> bool:
    """Invariance under the adjacent transpositions of variables 0..n-1,
    which generate the symmetric group."""
    return all(swap_variables(p, i, i + 1) == p for i in range(n - 1))


def elementary_symmetric_decompose(p: Polynomial, n: int) -> Polynomial:
    """Write a symmetric polynomial in variables 0..n-1 over e_1..e_n, with
    variable index k-1 for e_k (Macdonald, *Symmetric Functions and Hall
    Polynomials*, I.2).  The graded-lex leading exponent a_1 >= ... >= a_n
    is matched by the e-monomial with exponents (a_1-a_2, ..., a_n), and
    the remainder is strictly smaller, so the loop ends with the unique
    representation.  Each matched e-monomial is expanded from an e_k
    cache built here, independently of ``substitute_elementary`` and of
    the module's ``elementary_symmetric``."""
    base = p.base
    if not is_symmetric(p, n):
        raise NotSymmetric(f"polynomial is not symmetric in {n} variables")
    e_cache = {k: Polynomial(base, {tuple((i, 1) for i in subset): base.one()
                                    for subset in combinations(range(n), k)})
               for k in range(1, n + 1)}
    out: dict = {}
    rest = p
    while not rest.is_zero():
        lm, lc = rest.leading((1,) * n)
        dense = [0] * n
        for i, x in lm:
            dense[i] = x
        if any(dense[i] < dense[i + 1] for i in range(n - 1)):
            raise NotSymmetric("leading exponents not weakly decreasing; input not symmetric")
        exps = [dense[i] - dense[i + 1] for i in range(n - 1)] + [dense[n - 1]]
        e_mono = tuple((k, x) for k, x in enumerate(exps) if x)
        out[e_mono] = base.add(out.get(e_mono, base.zero()), lc)
        expansion = Polynomial.one(base)
        for k, x in e_mono:
            expansion = expansion * e_cache[k + 1] ** x
        rest = rest - expansion.scale(lc)
    return Polynomial(base, out)


def invariance_check(theory, n: int, truncation: int = 8) -> dict:
    """Symmetric-invariants model of the rank-n classifying space.

    Sends each standard s-monomial of weight at most D through
    s_i -> e_i of the line-bundle classes and checks that the elementary
    symmetric decomposition of the image is the monomial itself.
    """
    if n < 1 or n > 4:
        raise ValueError("invariance check supported for 1 <= n <= 4")
    D = truncation
    base = theory.coefficients
    bgl = cohomology(theory, ClassifyingBGL(n), D)
    lam_ring = PresentedRing(base, [(f"x{i}", 1) for i in range(1, n + 1)], [], D)
    images = [elementary_symmetric(base, k, range(n)) for k in range(1, bgl.nvars + 1)]
    checked = 0
    failures = []
    for w in range(1, D + 1):
        for mono in bgl.graded_basis(w).basis:
            p = Polynomial(base, {mono: base.one()})
            if elementary_symmetric_decompose(compose(lam_ring, p, images, base), n) != p:
                failures.append({"weight": w, "monomial": bgl.poly_str(p),
                                 "reason": "decomposition is not the monomial"})
            else:
                checked += 1
    return {"n": n, "truncation": D, "checked": checked, "failures": failures,
            "ok": not failures}


def int_poly(base, terms: dict) -> Polynomial:
    """Polynomial over ``base`` from {mono: int}."""
    return Polynomial(base, {m: base.from_int(c) for m, c in terms.items()})


def power_sum(k: int, indices) -> Polynomial:
    """p_k over the given variable indices, integer coefficients."""
    return int_poly(ZZ, {((i, k),): 1 for i in indices})


def coassociativity_check(hopf, w: int) -> bool:
    """(Delta x 1)Delta equals (1 x Delta)Delta on every weight-w basis class."""
    delta_w = hopf.delta(w)
    lhs: dict = {}
    rhs: dict = {}
    for nu in delta_w:
        l: dict = {}
        r: dict = {}
        for (alpha, beta), c in delta_w[nu].items():
            wa = sum(alpha)
            da = hopf.delta(wa) if wa else {(): {((), ()): 1}}
            for (r1, r2), c2 in da[alpha].items():
                key = (r1, r2, beta)
                l[key] = l.get(key, 0) + c * c2
            wb = sum(beta)
            db = hopf.delta(wb) if wb else {(): {((), ()): 1}}
            for (s1, s2), c2 in db[beta].items():
                key = (alpha, s1, s2)
                r[key] = r.get(key, 0) + c * c2
        lhs[nu] = {k: v for k, v in l.items() if v}
        rhs[nu] = {k: v for k, v in r.items() if v}
    return lhs == rhs


def primitive_by_kernel(hopf, w: int) -> list[int]:
    """The weight-w primitive as the integer kernel of Delta(f) = f x 1 + 1 x f.

    One condition row per pair (alpha, beta) of nonempty partitions, read
    off the coproduct dictionaries; the saturated kernel must be one line,
    oriented so that its s1^w coordinate is positive.
    """
    parts = partition_list(w)
    conditions: dict = {}
    for i, nu in enumerate(parts):
        for (alpha, beta), coeff in hopf.delta(w)[nu].items():
            if alpha and beta:
                conditions.setdefault((alpha, beta), [0] * len(parts))[i] += coeff
    (vector,) = kernel_basis(list(conditions.values()), len(parts))
    sign = 1 if vector[parts.index((1,) * w)] > 0 else -1
    return [sign * int(c) for c in vector]


@lru_cache(maxsize=None)
def partition_list(n: int, top: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts at most ``top``, largest part first."""
    top = n if top is None else top
    if n == 0:
        return ((),)
    return tuple((k,) + rest for k in range(min(n, top), 0, -1)
                 for rest in partition_list(n - k, k))


def indecomposables_by_products(w: int) -> tuple[list, set]:
    """(basis of I/I^2, the partitions spanning I^2) in weight w of the
    symmetric algebra on one generator per weight, read off the whole
    multiplication table: each product of two positive-weight partitions
    (multiset union) lies in I^2, and the partitions no product reaches
    span I/I^2."""
    squares = {tuple(sorted(a + b, reverse=True))
               for wa in range(1, w) for a in partition_list(wa) for b in partition_list(w - wa)}
    return [p for p in partition_list(w) if p not in squares], squares


def _generator_map(source: PresentedRing, target: PresentedRing) -> RingMap:
    return RingMap(source, target, [target.var(i) for i in range(source.nvars)])


def conner_floyd_forward_map(space, D: int) -> RingMap:
    """The generator-preserving map from the base-changed cobordism side
    of a Conner-Floyd instance to its K-side, which ``verify_conner_floyd``
    proves well defined and calls onto without computing it."""
    changed = base_change(cobordism_presentation(space, D), *_coefficient_images(D))
    return _generator_map(changed, cohomology(multiplicative_theory(D), space, D))


def conner_floyd_backward_map(space, D: int) -> RingMap:
    """The generator-preserving map from the K-side of a Conner-Floyd
    instance back to the base-changed cobordism side; it is well defined
    when every K-side relation holds on the cobordism side."""
    forward = conner_floyd_forward_map(space, D)
    return _generator_map(forward.target, forward.source)


def surjective_by_lattice(rmap: RingMap, w: int) -> bool:
    """Is the map onto the weight-w piece of its target, over the target base?

    Rows on the target's weight-w ambient monomials: each target relation
    times each monomial of the complementary weight, the image of each
    source monomial by ``compose_termwise``, and over Z/n n times each
    unit vector.  Over Q the map is onto when the rows have full rank;
    over any other base the coefficients must be integers (ValueError
    otherwise), and the map is onto when the integer span holds every
    unit vector, which over Z[b_1..] or Z[b, b^-1] is decided by b = 0
    or b = 1.
    """
    source, target = rmap.source, rmap.target
    base = target.base
    ambient = target.monomials_of_weight(w)
    index = {m: j for j, m in enumerate(ambient)}
    rows = []
    for rel in target.relations:
        for mult in target.monomials_of_weight(w - target.homogeneous_weight(rel)):
            row = [base.zero()] * len(ambient)
            for m, c in rel.terms.items():
                row[index[mono_mul(m, mult)]] = c
            rows.append(row)
    for m in source.monomials_of_weight(w):
        row = [base.zero()] * len(ambient)
        image = compose_termwise(target, Polynomial(source.base, {m: source.base.one()}), rmap.images,
                                 source.base)
        for mm, c in image.terms.items():
            row[index[mm]] = c
        rows.append(row)
    if isinstance(base, RationalRing):
        return rank_over_Q(rows) == len(ambient)
    ints = [[base.as_int(c) for c in row] for row in rows]
    if any(None in row for row in ints):
        raise ValueError("a coefficient has no integer value")
    if isinstance(base, ModularRing):
        ints += [[base.n * (i == j) for i in range(len(ambient))] for j in range(len(ambient))]
    return integer_span_is_everything(ints, len(ambient))


def prime_divisors(n: int) -> list[int]:
    """Primes dividing n > 0, ascending, by trial division."""
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def lazard_b_gcd(n: int) -> int:
    """gcd of the b_n coefficients of the weight-n a_ij in Z[b] (Lazard):
    the gcd of the binomials C(n+1, i), 0 < i < n+1, which is p when
    n + 1 is a power of the prime p and 1 otherwise."""
    primes = prime_divisors(n + 1)
    return primes[0] if len(primes) == 1 else 1


def lazard_ranks_by_lattice(D: int, relations=None) -> list[tuple[int, list[int]]]:
    """(free rank, torsion) in each weight 0..D of the Lazard presentation
    by the dense route: the HNF of the whole relation lattice of the
    a-monomials of each weight (``PresentedRing.graded_basis``), with no
    appeal to Lazard's theorem.  ``relations`` replaces the associativity
    relations of ``fgl.lazard_ring(D)``."""
    ring = lazard_ring(D, bound=D)
    if relations is not None:
        ring = PresentedRing(ZZ, ring.variables, relations, D)
    return [(piece.free_rank, piece.torsion) for piece in map(ring.graded_basis, range(D + 1))]


def telescope_stable_part(mat) -> tuple[int, int, dict[int, int]]:
    """(r, d, {p: s_p}) for Z^n under mat, read off the characteristic
    polynomial: r is the rank over Q of mat^n, and d the absolute value
    of its lowest nonzero coefficient, the sum of the principal r x r
    minors, which is the determinant of mat on its stable image.  For
    each prime p | d, by trying every v in F_p^n,
    s_p = n - log_p #{v : mat^n v = 0 mod p}, the rank of the part of
    F_p^n on which mat is invertible.  The colimit is Z^r when d = 1, and
    Z[1/d]^r exactly when every s_p is 0."""
    n = len(mat)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = [[sum(row[k] * power[k][j] for k in range(n)) for j in range(n)] for row in mat]
    r = rank_over_Q(power)
    d = abs(sum(det_cofactor([[mat[i][j] for j in idx] for i in idx])
                for idx in combinations(range(n), r)))
    stable = {}
    for p in prime_divisors(d):
        killed = 0
        for v in product(range(p), repeat=n):
            for _ in range(n):
                v = [sum(a * b for a, b in zip(row, v)) % p for row in mat]
            killed += not any(v)
        stable[p] = n - next(k for k in range(n + 1) if p ** k == killed)
    return r, d, stable


def stable_image_by_definition(module: FPModule, h, steps: int):
    """(k, rank, torsion) for the first k < steps at which the lattice
    h^k(Z^n) + R, R the module's relations, has the same HNF as the next
    one, with the rank and torsion of that image h^k(M) = (h^k(Z^n) + R)/R;
    None when no such k exists.  The powers h^k are raw integer products,
    never reduced, and all steps + 1 lattices are built before any two
    are compared; the torsion comes from minor gcds of the relations
    written over the lattice's basis."""
    n = module.ngens
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    lattices = []
    for _ in range(steps + 1):
        lattices.append(hnf([list(col) for col in zip(*power)] + module.relations)[0])
        power = [[sum(row[t] * power[t][j] for t in range(n)) for j in range(n)] for row in h]
    k = next((k for k in range(steps) if lattices[k] == lattices[k + 1]), None)
    if k is None:
        return None
    basis = FPModule(n, lattices[k])
    return (k, *torsion_via_minor_gcd([basis.solve(rel) for rel in module.relations],
                                      len(lattices[k])))


def finite_stable_image_kill_counts(modulus: int, mat) -> dict[int, int]:
    """{d: #{x in S : d x = 0}} over the divisors d of ``modulus``, where
    S is the stable image of (Z/modulus)^n under mat, found by applying
    mat to the whole set of elements until the set stops shrinking.
    These counts determine a finite abelian group up to isomorphism."""
    n = len(mat)
    image = set(product(range(modulus), repeat=n))
    while True:
        smaller = {tuple(sum(a * b for a, b in zip(row, v)) % modulus for row in mat) for v in image}
        if smaller == image:
            break
        image = smaller
    return {d: sum(not any(d * c % modulus for c in v) for v in image)
            for d in range(1, modulus + 1) if modulus % d == 0}


def split_complement_by_kernel(r_mat, source: FPModule, target: FPModule) -> tuple[int, list[int]]:
    """Free rank and torsion of ker(r) as a submodule of ``source``.

    Generators of {x : r x lies in the target's relation span} come from
    the integer kernel of [r | target relations]; the submodule is then
    (generator span + relation span) / relation span, presented on the
    HNF basis of the combined lattice with the source's relations solved
    over that basis."""
    m = source.ngens
    block = [list(r_mat[i]) + [rel[i] for rel in target.relations] for i in range(target.ngens)]
    kern = [[int(v) for v in row[:m]] for row in kernel_basis(block, m + len(target.relations))]
    combined = FPModule(m, kern + source.relations)
    return FPModule(combined.rank, [combined.solve(rel) for rel in source.relations]).rank_torsion()


def product_by_fold(p: Polynomial, q: Polynomial, weights=None, bound=None) -> Polynomial:
    """``Polynomial.product`` by folding each term pair into a running sum
    with the base's ``add`` and ``mul``, dropping a coefficient that
    cancels to zero.  Nested coefficients multiply by their inner ring's
    ``mul``, so no product shares the base's ``accumulate``."""
    base = p.base
    mul = base.ring.mul if isinstance(base, QuotientCoefficients) else base.mul
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono_mul(m1, m2)
            if bound is not None and mono_weight(m, weights) > bound:
                continue
            s = base.add(out.get(m, base.zero()), mul(c1, c2))
            if base.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return Polynomial(base, out, _clean=True)


def universal_law_reference(D: int) -> FormalGroupLaw:
    """``fgl.universal_law`` with every step of g^-1 composed at the full
    truncation D + 1."""
    base = QuotientCoefficients(PresentedRing(ZZ, [(f"b{i}", i) for i in range(1, D + 1)], [], D))
    x = Polynomial.variable(base, 0)
    g = x + Polynomial(base, {((0, i + 1),): Polynomial.variable(ZZ, i - 1) for i in range(1, D + 1)})
    r1 = series_ring(base, ("x",), D + 1)
    g_inv = x
    for k in range(2, D + 2):
        c = compose(r1, g, [g_inv], base).coefficient(((0, k),))
        g_inv = g_inv - Polynomial(base, {((0, k),): c})
    g_inv_y = g_inv.map_monomials(lambda m: ((1, m[0][1]),))
    series = compose(series_ring(base, ("x", "y"), D + 1), g, [g_inv + g_inv_y], base)
    return FormalGroupLaw(base, series, D + 1)


def formal_inverse_reference(law: FormalGroupLaw) -> Polynomial:
    """``fgl.formal_inverse`` with every residue F(x, i(x)) composed in the
    law's own ring, at its full truncation."""
    base, x = law.base, law.x()
    inv = -x
    for k in range(2, law.truncation + 1):
        c = compose(law.ring2, law.series, [x, inv], base).coefficient(((0, k),))
        inv = inv - Polynomial(base, {((0, k),): c})
    return inv


def lazard_relations_by_compose(D: int) -> list[Polynomial]:
    """The associativity relations of ``fgl.lazard_ring``, with F(x, y)
    formed by composing the generic series with the identity images."""
    gens = lazard_generators(D)
    coeffs = QuotientCoefficients(PresentedRing(ZZ, [(f"a{i}_{j}", i + j - 1) for i, j in gens], [], D))
    series = _generic_series(coeffs, gens)
    r3 = series_ring(coeffs, ("x", "y", "z"), D + 1)
    X, Y, Z = (Polynomial.variable(coeffs, i) for i in range(3))
    lhs = compose(r3, series, [compose(r3, series, [X, Y], coeffs), Z], coeffs)
    rhs = compose(r3, series, [X, compose(r3, series, [Y, Z], coeffs)], coeffs)
    delta = lhs - rhs
    relations, seen = [], set()
    for m in sorted(delta.terms, key=lambda m: (r3.mono_weight(m), m)):
        rel = delta.terms[m]
        if _poly_key(rel) not in seen and _poly_key(-rel) not in seen:
            seen.add(_poly_key(rel))
            relations.append(rel)
    return relations


def _poly_key(p: Polynomial):
    """Two relations r, r' are one pair when the key of r' is that of r or -r."""
    return tuple(sorted((m, str(c)) for m, c in p.terms.items()))

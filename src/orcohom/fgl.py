"""Formal group laws: construction, axioms, calculus, and the universal example.

A law is a truncated bivariate series F(x, y) over a coefficient
domain satisfying F(x, 0) = x, F(0, y) = y, symmetry, and
associativity modulo terms of weight above the truncation bound;
``check_axioms`` reports on them as plain data, the dict ``fgl-check``
prints.  The universal coefficients are presented by generators a_ij
(i <= j) of weight i + j - 1 subject to the coefficients of the
associator: ``lazard_ring`` returns that ``PresentedRing``, and
``lazard_generators`` the (i, j) of its variables.  Specializing a law
amounts to the classifying map sending each a_ij to the matching
series coefficient.  By Lazard's theorem L -> Z[b] = H_*MU is injective
(Adams, *Stable Homotopy and Generalised Homology*, Part II; Ravenel,
*Complex Cobordism*, A2.1), so ``universal_law`` carries the universal
law over Z[b_1..b_D] as g(g^-1(x) + g^-1(y)), g(x) = x + sum b_i
x^(i+1): each a_ij is exactly its b-polynomial, with no relation
lattice and no normal form.  The same theorem gives
``lazard_graded_ranks``: it checks the presentation weight by weight
through its indecomposables, one small module per weight, and never
forms the relation lattice.  Those modules need only the linear part
of the associator F(F(x, y), z) - F(x, F(y, z)), which has a closed
form: F(x, y)^i is (x + y)^i plus terms that each carry an a_ij, which
are decomposable once multiplied by a further a_kl, so the linear part
of the x^a y^b z^c coefficient of F(F(x, y), z) is a_ab when
c = 0 < a, b, C(a + b, a) a_(a+b),c when c, a + b > 0, and 0 otherwise.
The check therefore composes no series; only ``lazard_ring`` does, for
the printed presentation.
"""

from __future__ import annotations

from math import comb

from .coefficients import BaseRing, NonDivisibleBase, ZZ, laurent_over
from .intlinalg import FPModule
from .partitions import partition_count
from .polynomials import Mono, Polynomial, swap_variables
from .presented import PresentedRing, QuotientCoefficients, RingMap, compose, scalar_ring

LAZARD_DEFAULT_BOUND = 8

_X = 0
_Y = 1


def series_ring(base: BaseRing, names, truncation: int) -> PresentedRing:
    return PresentedRing(base, [(n, 1) for n in names], [], truncation)


class FormalGroupLaw:
    """Truncated bivariate series in x and y over a coefficient domain."""

    def __init__(self, base: BaseRing, series: Polynomial, truncation: int):
        self.base = base
        self.truncation = int(truncation)
        if series.variables() - {_X, _Y}:
            raise ValueError("law series must involve only the two series variables")
        self.ring2 = series_ring(base, ("x", "y"), self.truncation)
        self.series = self.ring2.truncate(series)

    def x(self) -> Polynomial:
        return Polynomial.variable(self.base, _X)

    def y(self) -> Polynomial:
        return Polynomial.variable(self.base, _Y)

    def coefficient(self, i: int, j: int):
        return self.series.coefficient(tuple(p for p in ((_X, i), (_Y, j)) if p[1]))

    def apply(self, target: PresentedRing, a: Polynomial, b: Polynomial) -> Polynomial:
        """Evaluate F at two elements of a presented ring."""
        return compose(target, self.series, [a, b], self.base)

    def __repr__(self):
        return f"FormalGroupLaw({self.base!r}, D={self.truncation})"


def make_additive(base: BaseRing = ZZ, truncation: int = 8) -> FormalGroupLaw:
    """F(x, y) = x + y."""
    series = Polynomial.variable(base, _X) + Polynomial.variable(base, _Y)
    return FormalGroupLaw(base, series, truncation)


def make_multiplicative(base: BaseRing | None = None, beta=None,
                        truncation: int = 8) -> FormalGroupLaw:
    """F(x, y) = x + y - beta*x*y.

    Defaults to the integral Laurent domain Z[b, b^-1] with beta the
    invertible generator.  Any beta is accepted; zero degenerates the law
    to the additive one.
    """
    if base is None:
        base = laurent_over(ZZ, "b", -1)
        if beta is None:
            beta = base.generator()
    if beta is None:
        raise ValueError("beta element required for an explicit base")
    xy: Mono = ((_X, 1), (_Y, 1))
    series = Polynomial(base, {
        ((_X, 1),): base.one(),
        ((_Y, 1),): base.one(),
        xy: base.neg(beta),
    })
    return FormalGroupLaw(base, series, truncation)


def universal_coefficients(truncation: int = 8) -> QuotientCoefficients:
    """The relation-free ring Z[b_1..b_D], b_i of weight i, as scalars."""
    D = int(truncation)
    return QuotientCoefficients(PresentedRing(ZZ, [(f"b{i}", i) for i in range(1, D + 1)], [], D))


def universal_law(truncation: int = 8, base: QuotientCoefficients | None = None) -> FormalGroupLaw:
    """F(x, y) = g(g^-1(x) + g^-1(y)) for g(x) = x + sum b_i x^(i+1), truncated at D + 1.

    The coefficients lie in ``base``, by default ``universal_coefficients(D)``.
    g^-1 is integral: it is solved one weight at a time, the correction
    at x^k being minus the x^k coefficient of g(g^-1) truncated at k.
    """
    D = int(truncation)
    base = universal_coefficients(D) if base is None else base
    x = Polynomial.variable(base, _X)
    g = x + Polynomial(base, {((_X, i + 1),): Polynomial.variable(ZZ, i - 1) for i in range(1, D + 1)})
    g_inv = x
    for k in range(2, D + 2):
        c = compose(series_ring(base, ("x",), k), g, [g_inv], base).coefficient(((_X, k),))
        g_inv = g_inv - Polynomial(base, {((_X, k),): c})
    g_inv_y = g_inv.map_monomials(lambda m: ((_Y, m[0][1]),))
    series = compose(series_ring(base, ("x", "y"), D + 1), g, [g_inv + g_inv_y], base)
    return FormalGroupLaw(base, series, D + 1)


def _left_associate(base: BaseRing, series: Polynomial, truncation: int):
    """F(F(x, y), z) in the series ring on x, y, z truncated at ``truncation``, and that ring."""
    r3 = series_ring(base, ("x", "y", "z"), truncation)
    # F(x, y) is the series itself, with no composing
    return r3, compose(r3, series, [r3.normal_form(series), Polynomial.variable(base, 2)], base)


def check_axioms(law: FormalGroupLaw) -> dict:
    """Unit, commutativity and associativity, with first offending terms.

    The report is plain data: the truncation, one verdict per axiom,
    ``passed``, and ``failures`` as {axiom, monomial, coefficient}
    entries, each naming the lowest failing monomial of its axiom.
    """
    base = law.base
    r2 = law.ring2
    series = law.series
    failures = []

    def verdict(axiom: str, diff: Polynomial, ring: PresentedRing) -> bool:
        if diff.is_zero():
            return True
        m = min(diff.terms, key=lambda mm: (ring.mono_weight(mm), mm))
        failures.append({"axiom": axiom, "monomial": ring.poly_str(Polynomial(base, {m: base.one()})),
                         "coefficient": base.coeff_str(diff.terms[m])})
        return False

    x, y, zero = law.x(), law.y(), Polynomial.zero(base)
    left_unit = compose(r2, series, [x, zero], base) - x
    right_unit = compose(r2, series, [zero, y], base) - y
    unit = verdict("unit", left_unit if not left_unit.is_zero() else right_unit, r2)
    commutative = verdict("commutativity", series - swap_variables(series, _X, _Y), r2)
    r3, lhs = _left_associate(base, series, law.truncation)
    # F(y, z) is the series shifted, with no composing
    rhs = compose(r3, series, [x, series.shift_indices(1)], base)
    associative = verdict("associativity", lhs - rhs, r3)
    return {"truncation": law.truncation, "unit": unit, "commutative": commutative,
            "associative": associative, "passed": unit and commutative and associative,
            "failures": failures}


def formal_inverse(law: FormalGroupLaw) -> Polynomial:
    """The series i(x) with F(x, i(x)) = 0 up to the truncation.

    Solved weight by weight, step k in the series ring truncated at k:
    the correction at weight k is minus the residue's x^k coefficient,
    because dF/dy = 1 plus higher terms, so no division is ever needed.
    """
    base = law.base
    x = law.x()
    inv = -x
    for k in range(2, law.truncation + 1):
        residue = compose(series_ring(base, ("x", "y"), k), law.series, [x, inv], base)
        inv = inv - Polynomial(base, {((_X, k),): residue.coefficient(((_X, k),))})
    return inv


def n_series(law: FormalGroupLaw, n: int) -> Polynomial:
    """[n](x): iterated formal sum, with negatives through the inverse."""
    base = law.base
    if n == 0:
        return Polynomial.zero(base)
    if n < 0:
        pos = n_series(law, -n)
        inv = formal_inverse(law)
        return compose(law.ring2, pos, [inv, Polynomial.zero(base)], base)
    x = law.x()
    out = x
    for _ in range(n - 1):
        out = law.apply(law.ring2, x, out)
    return out


def logarithm(law: FormalGroupLaw) -> Polynomial:
    """The series l(x) = x + ... with l(F(x, y)) = l(x) + l(y).

    Computed from l'(x) = 1 / (dF/dy)(x, 0): the x^(k+1) coefficient is
    the x^k coefficient of l' divided by k + 1, for k + 1 <= D, and the
    first division without a unique quotient raises NonDivisibleBase.
    Over Z/n every k + 1 <= D must be a unit.
    """
    base = law.base
    d = law.truncation
    # g = dF/dy at y = 0, a unit series 1 + g_1 x + ...
    g = [base.zero()] * (d + 1)
    g[0] = base.one()
    for m, c in law.series.terms.items():
        exps = dict(m)
        if exps.get(_Y, 0) == 1:
            i = exps.get(_X, 0)
            if i <= d:
                g[i] = base.add(g[i], c)
    # h = 1/g by the standard recurrence
    h = [base.zero()] * (d + 1)
    h[0] = base.one()
    for k in range(1, d + 1):
        acc = None
        for j in range(1, k + 1):
            acc = base.fma(acc, g[j], h[k - j])
        h[k] = base.neg(base.settle(acc))
    terms = {}
    for k in range(0, d):
        if base.is_zero(h[k]):
            continue
        try:
            terms[((_X, k + 1),)] = base.divide_by_int(h[k], k + 1)
        except NonDivisibleBase as exc:
            raise NonDivisibleBase(f"integer division fails at weight {k + 1}") from exc
    return Polynomial(base, terms)


def lazard_generators(truncation: int) -> list[tuple[int, int]]:
    """The (i, j) of the generators a_ij of ``lazard_ring(truncation)``, in variable order.

    i <= j and the weight i + j - 1 is at most the truncation; the order
    is by weight, then by i.
    """
    gens = [(i, j) for j in range(1, truncation + 1) for i in range(1, j + 1) if i + j <= truncation + 1]
    gens.sort(key=lambda ij: (ij[0] + ij[1] - 1, ij[0]))
    return gens


def _generic_series(base: BaseRing, gens) -> Polynomial:
    terms = {
        ((_X, 1),): base.one(),
        ((_Y, 1),): base.one(),
    }
    for k, (i, j) in enumerate(gens):
        c = Polynomial.variable(ZZ, k)
        terms[tuple(p for p in ((_X, i), (_Y, j)) if p[1])] = c
        if i != j:
            terms[tuple(p for p in ((_X, j), (_Y, i)) if p[1])] = c
    return Polynomial(base, terms)


_LAZARD_CACHE: dict[int, PresentedRing] = {}


def lazard_ring(truncation: int, bound: int = LAZARD_DEFAULT_BOUND) -> PresentedRing:
    """The universal-coefficient presentation truncated at the given weight.

    The variables are a_ij, named ``a{i}_{j}``, in the order of
    ``lazard_generators``, with weight i + j - 1; the relations are the
    coefficients of the associator F(F(x, y), z) - F(x, F(y, z)) on
    monomials x^a y^b z^c with a + b + c at most D + 1, lowest monomial
    first, keeping one relation of each pair r, -r.  Relation generation
    is combinatorial in the truncation, so weights above the configured
    bound must be requested explicitly.
    """
    if truncation < 1:
        raise ValueError("truncation must be positive")
    if truncation > bound:
        raise ValueError(f"truncation {truncation} exceeds the configured bound {bound}")
    cached = _LAZARD_CACHE.get(truncation)
    if cached is not None:
        return cached
    gens = lazard_generators(truncation)
    names = [(f"a{i}_{j}", i + j - 1) for i, j in gens]
    free_coeffs = QuotientCoefficients(PresentedRing(ZZ, names, [], truncation))
    series = _generic_series(free_coeffs, gens)
    r3, lhs = _left_associate(free_coeffs, series, truncation + 1)
    # the series is symmetric, so F(x, F(y, z)) is the x<->z relabelling of F(F(x, y), z)
    delta = lhs - swap_variables(lhs, 0, 2)
    relations: dict = {}
    for m in sorted(delta.terms, key=lambda m: (r3.mono_weight(m), m)):
        rel = delta.terms[m]
        terms = sorted(rel.terms.items())
        relations.setdefault(tuple(terms) if terms[0][1] > 0 else tuple((mm, -c) for mm, c in terms), rel)
    ring = PresentedRing(ZZ, names, list(relations.values()), truncation)
    _LAZARD_CACHE[truncation] = ring
    return ring


def _indecomposable_rows(n: int) -> list[list[int]]:
    """Linear parts of the weight-n associativity relations, over the a_ij of weight n.

    The columns are a_(i, n+1-i), i = 1 .. (n+1)//2, in ``lazard_generators``
    order.  F(x, y)^i is (x + y)^i plus terms that each carry some a_kl,
    so in F(F(x, y), z) the coefficient of x^a y^b z^c, a + b + c = n + 1,
    has the linear part L(a, b, c) = a_ab when c = 0 < a, b, and
    C(a + b, a) a_(a+b),c when c, a + b >= 1, with a_ij = a_ji.  The
    associator's coefficient there has the linear part L(a, b, c) - L(c, b, a),
    F being symmetric.  The nonzero rows with a > c are returned, the
    pair a < c giving their negatives and a = c zero.
    """
    def linear(a, b, c):
        row = [0] * ((n + 1) // 2)
        if c == 0 and a and b:
            row[min(a, b) - 1] = 1
        elif c and a + b:
            row[min(a + b, c) - 1] = comb(a + b, a)
        return row

    rows = []
    for a in range(n + 2):
        for c in range(min(a, n + 2 - a)):  # a > c and b >= 0
            b = n + 1 - a - c
            row = [left - right for left, right in zip(linear(a, b, c), linear(c, b, a))]
            if any(row):
                rows.append(row)
    return rows


def lazard_graded_ranks(truncation: int, bound: int = LAZARD_DEFAULT_BOUND) -> list[int]:
    """Ranks p(w) of the associativity presentation per weight 0..D.

    Weight n is checked through the indecomposables: Q(L)_n, the a_ij of
    weight n modulo the linear parts of the weight-n relations (a
    relation times a positive-weight monomial is decomposable), must be
    Z with no torsion; otherwise the presentation is wrong and
    ArithmeticError names the weight.  The linear parts come in closed
    form from ``_indecomposable_rows``: F(x, y)^i is (x + y)^i plus
    decomposables, so only the binomials C(a + b, a) and single a_ij
    survive, and no relation is composed.  The relations vanish in Z[b],
    so a lift x_n of the generator maps to c_n b_n plus decomposables,
    c_n the gcd of the C(n+1, i), never 0.  The x-monomials span L
    (graded Nakayama) and their images are triangular, so L_w is free of
    rank p(w): Lazard's theorem (Adams, *Stable Homotopy and Generalised
    Homology*, Part II §7; Ravenel, *Complex Cobordism*, Thm A2.1.10).
    """
    if truncation < 1:
        raise ValueError("truncation must be positive")
    if truncation > bound:
        raise ValueError(f"truncation {truncation} exceeds the configured bound {bound}")
    for n in range(1, truncation + 1):
        if FPModule((n + 1) // 2, _indecomposable_rows(n)).rank_torsion() != (1, []):
            raise ArithmeticError(f"Lazard presentation: indecomposables are not Z in weight {n}")
    return [partition_count(w) for w in range(truncation + 1)]


def classifying_map(law: FormalGroupLaw, ring: PresentedRing) -> RingMap:
    """Map a_ij to the matching coefficient of the law.

    ``ring`` is a ``lazard_ring``, whose variables are the a_ij of
    ``lazard_generators`` at its truncation.  The law must be truncated
    strictly beyond that truncation so every generator's coefficient is
    determined.  Well-definedness of the map is checked and doubles as an
    associativity certificate; an invalid series raises IllDefinedMap.
    """
    if law.truncation <= ring.truncation:
        raise ValueError("law truncation must exceed the presentation bound")
    target = scalar_ring(law.base, ring.truncation)
    images = [Polynomial.constant(law.base, law.coefficient(i, j))
              for i, j in lazard_generators(ring.truncation)]
    rmap = RingMap(ring, target, images)
    rmap.check_well_defined()
    return rmap

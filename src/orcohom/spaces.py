"""Cohomology ring presentations for projective spaces, bundles and
classifying spaces over an oriented periodic theory.

Space descriptors are plain data; ``cohomology`` instantiates the
corresponding presented ring over the theory's coefficients with the
standard generators: l (first Chern class of the tautological line
bundle), l1..ln (flag line bundles), s1..sm (Chern classes of the
tautological subbundle S on a Grassmannian; the quotient's Chern class
t_j is the class of q_j, the weight-j part of c(V) c(S)^-1).  Flag and
projective-bundle rings are presented by triangular relations led by
pure variable powers (for flags, through the complete homogeneous h_k of
``complete_homogeneous``), so their normal forms run on the fast confluent
route; Grassmannian rings reduce degreewise, except Gr(1,n), whose one
relation is led by a unit times s1^n.  The route follows from the
relations alone (see ``presented``): a bundle over a base ring rewrites
only when the base does, and a product only when both factors do.
BGL_n is presented free on its Chern classes; that s_i -> e_i embeds
it in the symmetric invariants is a test oracle, not a library check.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .coefficients import BaseRing, ZZ
from .fgl import FormalGroupLaw, formal_inverse, make_additive, make_multiplicative
from .partitions import groups
from .polynomials import Polynomial
from .presented import PresentedRing, RingMap, compose


class OrientedTheory:
    """Coefficient domain plus group law.  The law is unchecked: the
    package builds only x + y, x + y - bxy and ``fgl.universal_law`` (on
    first read of ``law``), group laws by construction; run
    ``check_axioms`` on any other first."""

    def __init__(self, coefficients: BaseRing, law: FormalGroupLaw):
        if law.base != coefficients:
            raise ValueError("law must be defined over the theory coefficients")
        self.coefficients = coefficients
        self.law = law

    def __repr__(self):
        return f"OrientedTheory({self.coefficients!r})"


def additive_theory(base: BaseRing = ZZ, truncation: int = 8) -> OrientedTheory:
    return OrientedTheory(base, make_additive(base, truncation))


def multiplicative_theory(truncation: int = 8) -> OrientedTheory:
    law = make_multiplicative(truncation=truncation)
    return OrientedTheory(law.base, law)


# ---------------------------------------------------------------------------
# space descriptors


class ProjectiveSpace:
    def __init__(self, n: int):
        self.n = n

    def __repr__(self):
        return f"ProjectiveSpace(n={self.n!r})"


class InfiniteProjectiveSpace:
    def __repr__(self):
        return "InfiniteProjectiveSpace()"


class ProjectiveBundle:
    """P(V) for a rank-n bundle V with given Chern classes over a base ring."""

    def __init__(self, rank: int, chern=(), base_ring: PresentedRing | None = None):
        self.rank = int(rank)
        self.chern = tuple(chern)
        self.base_ring = base_ring


class FlagBundle:
    def __init__(self, rank: int, chern=(), base_ring: PresentedRing | None = None):
        self.rank = int(rank)
        self.chern = tuple(chern)
        self.base_ring = base_ring


class GrassmannianBundle:
    def __init__(self, m: int, n: int, chern=(), base_ring: PresentedRing | None = None):
        self.m = int(m)
        self.n = int(n)
        self.chern = tuple(chern)
        self.base_ring = base_ring


class ClassifyingBGL:
    def __init__(self, n: int | None = None):
        self.n = n  # None means the stable classifying space

    def __repr__(self):
        return f"ClassifyingBGL(n={self.n!r})"


class Product:
    def __init__(self, left, right):
        self.left = left
        self.right = right


POINT = ProjectiveSpace(0)


# ---------------------------------------------------------------------------
# presentation construction


def complete_homogeneous(base: BaseRing, k: int, indices) -> Polynomial:
    """h_k, the sum of all monomials of degree k in the given variables, listed
    in descending lexicographic order of exponent vectors."""
    if k < 0:
        return Polynomial.zero(base)
    return Polynomial(base, {tuple(groups(c)): base.one()
                             for c in combinations_with_replacement(sorted(indices), k)}, _clean=True)


def _check_chern(theory: OrientedTheory, space, rank: int, truncation: int):
    """The base ring, then the Chern classes: c_k must be homogeneous of
    weight k in the base ring.  Missing classes are zero."""
    ring = space.base_ring
    if ring is not None:
        if ring.base != theory.coefficients:
            raise ValueError("bundle base ring must share the theory coefficients")
        if ring.truncation < truncation:
            raise ValueError("bundle base ring truncated below the requested bound")
    # a descriptor without a base ring reads its (zero) classes over Z
    zero = Polynomial.zero(theory.coefficients)
    chern = [zero if c.is_zero() else c for c in space.chern]
    if len(chern) > rank:
        raise ValueError("more Chern classes than the bundle rank")
    chern += [zero] * (rank - len(chern))
    for k, c in enumerate(chern, start=1):
        if c.is_zero():
            continue
        if ring is None or not ring.nvars:
            raise ValueError("nonzero Chern classes need a bundle base ring")
        if ring.homogeneous_weight(c) != k:
            raise ValueError(f"Chern class c_{k} must be homogeneous of weight {k}")
        if k > truncation:
            raise ValueError(f"Chern class c_{k} exceeds the truncation bound {truncation}")
    return chern


def _merge_vars(fiber_vars, base_vars):
    """Fiber variables first, base variables renamed on collision."""
    taken = {nm for nm, _ in fiber_vars}
    merged = list(fiber_vars)
    for nm, w in base_vars:
        fresh = nm
        while fresh in taken:
            fresh += "'"
        taken.add(fresh)
        merged.append((fresh, w))
    return merged


def _over(theory: OrientedTheory, fiber_vars, fiber_rels,
          base_ring: PresentedRing | None, D: int) -> PresentedRing:
    """The fiber presentation over a base ring (none: over the point).

    Fiber variables come first, the base's after them (renamed on
    collision), with the base relations shifted past the fiber.  When
    the fiber relations rewrite, led by monomials in the fiber variables,
    the ring rewrites exactly when the base relations do: the two sets
    of leading monomials share no variable.
    """
    variables, rels = list(fiber_vars), list(fiber_rels)
    if base_ring is not None:
        off = len(fiber_vars)
        variables = _merge_vars(fiber_vars, base_ring.variables)
        rels += [r.shift_indices(off) for r in base_ring.relations]
    return PresentedRing(theory.coefficients, variables, rels, D)


def cohomology(theory: OrientedTheory, space, truncation: int = 8) -> PresentedRing:
    """The degree-zero cohomology presentation of the space.

    Infinite objects exist only at the truncation; every generator and
    relation is the standard one for the descriptor.
    """
    base = theory.coefficients
    D = int(truncation)

    if isinstance(space, ProjectiveSpace):
        if space.n < 0:
            raise ValueError("projective space dimension must be nonnegative")
        rel = Polynomial(base, {((0, space.n + 1),): base.one()})
        return PresentedRing(base, [("l", 1)], [rel], D)

    if isinstance(space, InfiniteProjectiveSpace):
        return PresentedRing(base, [("l", 1)], [], D)

    if isinstance(space, ProjectiveBundle):
        n = space.rank
        if n < 1:
            raise ValueError("projective bundle needs positive rank")
        chern = _check_chern(theory, space, n, D)
        # l^n - l^(n-1) c1 + ... + (-1)^n cn, Chern classes shifted past l
        rel = Polynomial.variable(base, 0, n)
        for k in range(1, n + 1):
            lp = Polynomial.variable(base, 0, n - k) if n - k else Polynomial.one(base)
            rel = rel + (chern[k - 1].shift_indices(1) * lp).scale(base.from_int((-1) ** k))
        return _over(theory, [("l", 1)], [rel], space.base_ring, D)

    if isinstance(space, FlagBundle):
        n = space.rank
        if n < 1:
            raise ValueError("flag bundle needs positive rank")
        # c_0 = 1, then the Chern classes shifted past l1..ln
        chern = [Polynomial.one(base)] + [
            c.shift_indices(n) for c in _check_chern(theory, space, n, D)]
        # the triangular relations g_i = sum_k (-1)^k c_k h_{i-k}(l_i..l_n),
        # successive divided differences of the Chern polynomial, led by
        # l_i^i.  g_i is the sum over k >= 1 of (-1)^(k+1) h_{i-k}(l_i..l_n)
        # (e_k - c_k), since sum_k (-1)^k e_k(l_1..l_n) h_{i-k}(l_i..l_n) is
        # the t^i coefficient of prod_{j<i} (1 - l_j t), of degree i - 1
        # (Macdonald, Symmetric Functions and Hall Polynomials, I (2.6)).
        # That change of generators is triangular with unit diagonal, so
        # the g_i generate the ideal of the e_k(l) - c_k over any base.
        rels = [sum(((chern[k] * complete_homogeneous(base, i - k, range(i - 1, n)))
                     .scale(base.from_int((-1) ** k)) for k in range(i + 1)), Polynomial.zero(base))
                for i in range(1, n + 1)]
        fiber_vars = [(f"l{i}", 1) for i in range(1, n + 1)]
        return _over(theory, fiber_vars, rels, space.base_ring, D)

    if isinstance(space, GrassmannianBundle):
        m, n = space.m, space.n
        if not 0 < m <= n:
            raise ValueError("Grassmannian requires 0 < m <= n")
        # c_0 = 1, then the Chern classes shifted past s1..sm
        chern = [Polynomial.one(base)] + [
            c.shift_indices(m) for c in _check_chern(theory, space, n, D)]
        # q = c(S)^-1: q_0 = 1, q_k = -(s1 q_{k-1} + ... + sm q_{k-m}).
        # c(Q) = c(V) q has rank n - m, so c(Q)_k = 0 for k > n - m;
        # k = n-m+1..n generate the rest by the recurrence (Fulton,
        # Young Tableaux, 9.4).  The Chern classes t_j of Q are c(Q)_j.
        q = [Polynomial.one(base)]
        for k in range(1, n + 1):
            q.append(-sum((Polynomial.variable(base, i - 1) * q[k - i]
                           for i in range(1, min(m, k) + 1)), Polynomial.zero(base)))
        rels = [sum((chern[j] * q[k - j] for j in range(k + 1)), Polynomial.zero(base))
                for k in range(n - m + 1, n + 1)]
        return _over(theory, [(f"s{i}", i) for i in range(1, m + 1)], rels, space.base_ring, D)

    if isinstance(space, ClassifyingBGL):
        n = D if space.n is None else space.n
        if n < 1:
            raise ValueError("classifying space index must be positive")
        if n == 1:
            return PresentedRing(base, [("l", 1)], [], D)
        variables = [(f"s{i}", i) for i in range(1, n + 1)]
        return PresentedRing(base, variables, [], D)

    if isinstance(space, Product):
        left = cohomology(theory, space.left, D)
        right = cohomology(theory, space.right, D)
        for factor, ring in (("left", left), ("right", right)):
            if not ring.is_degreewise_free(D):
                raise ValueError(f"{factor} factor is not degreewise free; product rejected")
        return _over(theory, left.variables, left.relations, right, D)

    raise ValueError(f"unsupported space descriptor {space!r}")


# ---------------------------------------------------------------------------
# Chern class calculus


def _check_first_chern_classes(theory: OrientedTheory, ring: PresentedRing, *classes: Polynomial):
    """A line-bundle class is a weight-1 class; composites of the law are
    supported in positive weights.  Constant terms would make series
    substitution meaningless under truncation, so they are rejected, and
    so is a law truncated below the ring, which would drop terms."""
    if ring.truncation > theory.law.truncation:
        raise ValueError(f"ring truncation {ring.truncation} exceeds the law's {theory.law.truncation}")
    if any(ring.mono_weight(m) < 1 for p in classes for m in p.terms):
        raise ValueError("first Chern classes must lie in positive weights")


def chern_tensor(theory: OrientedTheory, ring: PresentedRing, a: Polynomial, b: Polynomial) -> Polynomial:
    """First Chern class of a tensor product: the law evaluated at the classes."""
    _check_first_chern_classes(theory, ring, a, b)
    return theory.law.apply(ring, a, b)


def chern_dual(theory: OrientedTheory, ring: PresentedRing, a: Polynomial) -> Polynomial:
    """First Chern class of the dual line bundle, via the formal inverse."""
    _check_first_chern_classes(theory, ring, a)
    inv = formal_inverse(theory.law)
    return compose(ring, inv, [a] + [Polynomial.zero(theory.coefficients)], theory.coefficients)


# ---------------------------------------------------------------------------
# restrictions


def restriction_map(theory: OrientedTheory, bigger, smaller, truncation: int = 8) -> RingMap:
    """Generator-to-generator restriction along a canonical inclusion.

    Supported pairs: projective spaces (including the infinite one),
    classifying spaces, and one-step Grassmannian stabilizations over
    the point with trivial bundles.  Generator i goes to generator i of the smaller
    ring, or to 0 past its last generator; the map is verified well
    defined.
    """
    D = truncation
    src = cohomology(theory, bigger, D)
    tgt = cohomology(theory, smaller, D)

    def proj_dim(s):
        if isinstance(s, InfiniteProjectiveSpace):
            return None
        if isinstance(s, ProjectiveSpace):
            return s.n
        return -1

    if proj_dim(bigger) != -1 and proj_dim(smaller) != -1:
        nb, ns = proj_dim(bigger), proj_dim(smaller)
        supported = nb is None or (ns is not None and ns <= nb)
    elif isinstance(bigger, ClassifyingBGL) and isinstance(smaller, ClassifyingBGL):
        nb = bigger.n if bigger.n is not None else D
        ns = smaller.n if smaller.n is not None else D
        supported = ns <= nb
    elif isinstance(bigger, GrassmannianBundle) and isinstance(smaller, GrassmannianBundle):
        supported = (bigger.m == smaller.m and smaller.n == bigger.n - 1
                     and bigger.base_ring is None and smaller.base_ring is None
                     and all(c.is_zero() for c in bigger.chern + smaller.chern))
    else:
        supported = False
    if not supported:
        raise ValueError("unsupported inclusion pair")
    zero = Polynomial.zero(theory.coefficients)
    rmap = RingMap(src, tgt, [tgt.var(i) if i < tgt.nvars else zero for i in range(src.nvars)])
    rmap.check_well_defined()
    return rmap


# ---------------------------------------------------------------------------
# duality


def homology_dual(ring: PresentedRing) -> list[int]:
    """Ranks of the degreewise dual of a free cohomology presentation:
    entry w is the free rank of the weight-w piece over the ring's
    coefficients.  A piece with torsion has no free dual and is refused."""
    ranks = []
    for w in range(ring.truncation + 1):
        piece = ring.graded_basis(w)
        if piece.torsion:
            raise ValueError(f"torsion detected in weight {w}; dual module is not free")
        ranks.append(piece.free_rank)
    return ranks

"""Cohomology ring presentations for projective spaces, bundles and
classifying spaces over an oriented periodic theory.

Space descriptors are plain data; ``cohomology`` instantiates the
corresponding presented ring over the theory's coefficients with the
standard generators: l (first Chern class of the tautological line
bundle), l1..ln (flag line bundles), s1..sm and t1..tk (Chern classes
of the tautological and quotient bundles on a Grassmannian).  Flag and
projective-bundle rings carry a triangular rewrite completion whose
leading terms are pure variable powers, so their normal forms run on
the fast confluent route; Grassmannian rings reduce degreewise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import BaseRing, ZZ
from .fgl import FormalGroupLaw, check_axioms, formal_inverse, make_additive, make_multiplicative
from .polynomials import Polynomial
from .presented import NonConfluentPresentation, PresentedRing, RingMap, compose
from .symfunc import (
    complete_homogeneous,
    elementary_symmetric,
    elementary_symmetric_decompose,
    is_symmetric,
)


class OrientedTheory:
    """Coefficient domain plus group law plus designated periodicity unit."""

    def __init__(self, coefficients: BaseRing, law: FormalGroupLaw, period_unit=None,
                 validate: bool = True):
        if law.base != coefficients:
            raise ValueError("law must be defined over the theory coefficients")
        self.coefficients = coefficients
        self.law = law
        self.period_unit = period_unit if period_unit is not None else (
            law.beta if law.beta is not None else coefficients.one())
        if not coefficients.is_unit(self.period_unit):
            raise ValueError("periodicity element must be invertible")
        if validate:
            report = check_axioms(law)
            if not report.passed:
                raise ValueError("oriented theory requires a valid group law")

    def __repr__(self):
        return f"OrientedTheory({self.coefficients!r})"


def additive_theory(base: BaseRing = ZZ, truncation: int = 8) -> OrientedTheory:
    return OrientedTheory(base, make_additive(base, truncation))


def multiplicative_theory(truncation: int = 8) -> OrientedTheory:
    law = make_multiplicative(truncation=truncation)
    return OrientedTheory(law.base, law)


# ---------------------------------------------------------------------------
# space descriptors


@dataclass(frozen=True)
class ProjectiveSpace:
    n: int


@dataclass(frozen=True)
class InfiniteProjectiveSpace:
    pass


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


@dataclass(frozen=True)
class ClassifyingBGL:
    n: int | None = None  # None means the stable classifying space


class Product:
    def __init__(self, left, right):
        self.left = left
        self.right = right


POINT = ProjectiveSpace(0)


# ---------------------------------------------------------------------------
# presentation construction


def _base_data(theory: OrientedTheory, space, truncation: int):
    ring = getattr(space, "base_ring", None)
    if ring is None:
        return (), (), ()
    if ring.base != theory.coefficients:
        raise ValueError("bundle base ring must share the theory coefficients")
    if ring.truncation < truncation:
        raise ValueError("bundle base ring truncated below the requested bound")
    return ring.variables, ring.relations, getattr(ring, "rewrite_source", ring.relations)


def _check_chern(theory: OrientedTheory, space, base_vars, truncation: int):
    """Chern class c_k must be homogeneous of weight k in the base ring."""
    chern = list(getattr(space, "chern", ()))
    rank = space.n if isinstance(space, GrassmannianBundle) else space.rank
    if len(chern) > rank:
        raise ValueError("more Chern classes than the bundle rank")
    chern += [Polynomial.zero(theory.coefficients)] * (rank - len(chern))
    probe = PresentedRing(theory.coefficients, base_vars, [], truncation) if base_vars else None
    for k, c in enumerate(chern, start=1):
        if c.is_zero():
            continue
        if probe is None:
            raise ValueError("nonzero Chern classes need a bundle base ring")
        hw = probe.homogeneous_weight(c)
        if hw != k:
            raise ValueError(f"Chern class c_{k} must be homogeneous of weight {k}")
        if k > truncation:
            raise ValueError(f"Chern class c_{k} exceeds the truncation bound {truncation}")
    return chern


def _shift(p: Polynomial, offset: int) -> Polynomial:
    return p.shift_indices(offset)


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
        base_vars, base_rels, base_rw = _base_data(theory, space, D)
        chern = _check_chern(theory, space, base_vars, D)
        variables = _merge_vars([("l", 1)], base_vars)
        # l^n - l^(n-1) c1 + ... + (-1)^n cn, Chern classes shifted past l
        rel = Polynomial.variable(base, 0, n)
        sign = -1
        for k in range(1, n + 1):
            ck = _shift(chern[k - 1], 1)
            lp = Polynomial.variable(base, 0, n - k) if n - k else Polynomial.one(base)
            term = (ck * lp).scale(base.from_int(sign))
            rel = rel + term
            sign = -sign
        rels = [rel] + [_shift(r, 1) for r in base_rels]
        rewrite = None
        if base_rw is not None:
            rewrite = [rel] + [_shift(r, 1) for r in base_rw]
        try:
            return PresentedRing(base, variables, rels, D, rewrite_basis=rewrite)
        except NonConfluentPresentation:
            return PresentedRing(base, variables, rels, D)

    if isinstance(space, FlagBundle):
        n = space.rank
        if n < 1:
            raise ValueError("flag bundle needs positive rank")
        base_vars, base_rels, base_rw = _base_data(theory, space, D)
        chern = _check_chern(theory, space, base_vars, D)
        variables = _merge_vars([(f"l{i}", 1) for i in range(1, n + 1)], base_vars)
        lam = list(range(n))
        rels = []
        for k in range(1, n + 1):
            rels.append(elementary_symmetric(base, k, lam) - _shift(chern[k - 1], n))
        # triangular completion by successive divided differences of the
        # Chern polynomial: g_i = sum_k (-1)^k c_k h_{i-k}(l_i..l_n) has
        # leading monomial l_i^i; validated against the stored relations
        # at construction
        completion = []
        for i in range(1, n + 1):
            g = Polynomial.zero(base)
            sign = 1
            for k in range(0, i + 1):
                ck = Polynomial.one(base) if k == 0 else _shift(chern[k - 1], n)
                h = complete_homogeneous(base, i - k, range(i - 1, n))
                g = g + (ck * h).scale(base.from_int(sign))
                sign = -sign
            completion.append(g)
        rewrite = completion + ([_shift(r, n) for r in base_rw] if base_rw else [])
        rels = rels + [_shift(r, n) for r in base_rels]
        try:
            return PresentedRing(base, variables, rels, D, rewrite_basis=rewrite)
        except NonConfluentPresentation:
            return PresentedRing(base, variables, rels, D)

    if isinstance(space, GrassmannianBundle):
        m, n = space.m, space.n
        if not 0 < m <= n:
            raise ValueError("Grassmannian requires 0 < m <= n")
        base_vars, base_rels, _ = _base_data(theory, space, D)
        chern = _check_chern(theory, space, base_vars, D)
        nm = n - m
        variables = _merge_vars([(f"s{i}", i) for i in range(1, m + 1)]
                               + [(f"t{j}", j) for j in range(1, nm + 1)], base_vars)
        offset = m + nm

        def sigma(i):
            if i == 0:
                return Polynomial.one(base)
            return Polynomial.variable(base, i - 1) if i <= m else Polynomial.zero(base)

        def tau(j):
            if j == 0:
                return Polynomial.one(base)
            return Polynomial.variable(base, m + j - 1) if j <= nm else Polynomial.zero(base)

        rels = []
        for k in range(1, n + 1):
            acc = Polynomial.zero(base)
            for i in range(0, k + 1):
                acc = acc + sigma(i) * tau(k - i)
            rels.append(acc - _shift(chern[k - 1], offset))
        rels += [_shift(r, offset) for r in base_rels]
        return PresentedRing(base, variables, rels, D)

    if isinstance(space, ClassifyingBGL):
        n = space.n
        if n is None:
            n = D
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
        variables = _merge_vars(left.variables, right.variables)
        off = left.nvars
        rels = list(left.relations) + [_shift(r, off) for r in right.relations]
        rewrite = None
        if left.rewrite_source is not None and right.rewrite_source is not None:
            rewrite = list(left.rewrite_source) + [_shift(r, off) for r in right.rewrite_source]
        try:
            return PresentedRing(base, variables, rels, D, rewrite_basis=rewrite)
        except NonConfluentPresentation:
            return PresentedRing(base, variables, rels, D)

    raise ValueError(f"unsupported space descriptor {space!r}")


# ---------------------------------------------------------------------------
# Chern class calculus


def _check_first_chern_class(ring: PresentedRing, p: Polynomial):
    """A line-bundle class is a weight-1 class; composites of the law are
    supported in positive weights.  Constant terms would make series
    substitution meaningless under truncation, so they are rejected."""
    if any(ring.mono_weight(m) < 1 for m in p.terms):
        raise ValueError("first Chern classes must lie in positive weights")


def chern_tensor(theory: OrientedTheory, ring: PresentedRing, a: Polynomial, b: Polynomial) -> Polynomial:
    """First Chern class of a tensor product: the law evaluated at the classes."""
    _check_first_chern_class(ring, a)
    _check_first_chern_class(ring, b)
    return theory.law.apply(ring, a, b)


def chern_dual(theory: OrientedTheory, ring: PresentedRing, a: Polynomial) -> Polynomial:
    """First Chern class of the dual line bundle, via the formal inverse."""
    _check_first_chern_class(ring, a)
    inv = formal_inverse(theory.law)
    return compose(ring, inv, [a] + [Polynomial.zero(theory.coefficients)], theory.coefficients)


# ---------------------------------------------------------------------------
# restrictions


def restriction_map(theory: OrientedTheory, bigger, smaller, truncation: int = 8) -> RingMap:
    """Generator-to-generator restriction along a canonical inclusion.

    Supported pairs: projective spaces (including the infinite one),
    classifying spaces, and one-step Grassmannian stabilizations with
    trivial bundles.  The map is verified well defined.
    """
    D = truncation
    src = cohomology(theory, bigger, D)
    tgt = cohomology(theory, smaller, D)
    base = theory.coefficients

    def proj_dim(s):
        if isinstance(s, InfiniteProjectiveSpace):
            return None
        if isinstance(s, ProjectiveSpace):
            return s.n
        return -1

    if proj_dim(bigger) != -1 and proj_dim(smaller) != -1:
        nb, ns = proj_dim(bigger), proj_dim(smaller)
        if nb is not None and (ns is None or ns > nb):
            raise ValueError("unsupported inclusion pair")
        rmap = RingMap(src, tgt, [tgt.var(0)])
        rmap.check_well_defined()
        return rmap

    if isinstance(bigger, ClassifyingBGL) and isinstance(smaller, ClassifyingBGL):
        nb = bigger.n if bigger.n is not None else D
        ns = smaller.n if smaller.n is not None else D
        if ns > nb:
            raise ValueError("unsupported inclusion pair")
        images = []
        for i in range(1, nb + 1):
            if i <= ns:
                images.append(tgt.var(i - 1))
            else:
                images.append(Polynomial.zero(base))
        rmap = RingMap(src, tgt, images)
        rmap.check_well_defined()
        return rmap

    if isinstance(bigger, GrassmannianBundle) and isinstance(smaller, GrassmannianBundle):
        if (bigger.m != smaller.m or smaller.n != bigger.n - 1
                or any(not c.is_zero() for c in bigger.chern + smaller.chern)):
            raise ValueError("unsupported inclusion pair")
        m, nm_small = bigger.m, smaller.n - smaller.m
        images = [tgt.var(i) for i in range(m)]
        for j in range(1, nm_small + 1):
            images.append(tgt.var(m + j - 1))
        # the top quotient Chern class restricts to the expression the
        # rank drop forces: t_k = -(s1 t_{k-1} + ... ) in the target
        k = bigger.n - bigger.m
        acc = Polynomial.zero(base)
        for i in range(1, min(m, k) + 1):
            si = tgt.var(i - 1)
            tj = tgt.var(m + (k - i) - 1) if 0 < k - i <= nm_small else (
                Polynomial.one(base) if k - i == 0 else Polynomial.zero(base))
            acc = acc + si * tj
        images.append(tgt.normal_form(-acc))
        rmap = RingMap(src, tgt, images)
        rmap.check_well_defined()
        return rmap

    raise ValueError("unsupported inclusion pair")


def surjectivity_report(rmap: RingMap) -> list[dict]:
    """Per-weight surjectivity of a ring map between presented rings."""
    out = []
    for w in range(min(rmap.source.truncation, rmap.target.truncation) + 1):
        surj = rmap.surjective(w)
        entry = {"weight": w, "surjective": surj}
        if surj is None:
            entry["note"] = "non-integer entries"
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# duality and invariance


class HomologyDual:
    """Degreewise dual of a free cohomology presentation.

    ``rank(w)`` counts the standard monomials of weight w, against which
    the dual basis is matched.
    """

    def __init__(self, ring: PresentedRing):
        self.ring = ring
        self.ranks: dict[int, int] = {}
        for w in range(ring.truncation + 1):
            piece = ring.graded_basis(w)
            if piece.torsion:
                raise ValueError(f"torsion detected in weight {w}; dual module is not free")
            self.ranks[w] = len(piece.basis)

    def rank(self, w: int) -> int:
        return self.ranks[w]


def homology_dual(theory: OrientedTheory, space, truncation: int = 8) -> HomologyDual:
    return HomologyDual(cohomology(theory, space, truncation))


def invariance_check(theory: OrientedTheory, n: int, truncation: int = 8) -> dict:
    """Symmetric-invariants model of the rank-n classifying space.

    Sends each standard s-monomial of weight at most D through
    s_i -> e_i of the line-bundle classes, checks invariance under
    permutations, and checks that the elementary symmetric decomposition
    of the image is the monomial itself.
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
            image = compose(lam_ring, p, images, base)
            if not is_symmetric(image, n):
                failures.append({"weight": w, "monomial": bgl.poly_str(p), "reason": "not invariant"})
                continue
            if elementary_symmetric_decompose(image, n) != p:
                failures.append({"weight": w, "monomial": bgl.poly_str(p),
                                 "reason": "decomposition is not the monomial"})
                continue
            checked += 1
    return {"n": n, "truncation": D, "checked": checked, "failures": failures,
            "ok": not failures}

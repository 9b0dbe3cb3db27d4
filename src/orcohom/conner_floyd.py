"""Base-change comparison between the universal-coefficient presentation
and the multiplicative one on finite instances.

The cobordism side of an instance is its cohomology presentation over
the universal coefficients Z[b_1..b_D] carrying ``fgl.universal_law``
(built only when ``theory.law`` is read, which the supported instances'
integer relations never do); the K-side is the same space over the
integral Laurent domain with the multiplicative law.  Verification
tensors the cobordism presentation along the map classifying the
multiplicative law (generator preserving, coefficients mapped through
b_i -> (-b)^i/(i+1)!, read off its exponential (1 - e^(-bu))/b, so
a1_1 = 2 b_1 -> -b) and checks a graded isomorphism against the
directly built K-side, weight by weight.  That
verdict is the whole check: the inverse of a generator-preserving map
that is bijective in every weight is the generator-preserving map back,
so the relation ideals agree up to the truncation whenever the
verdict is True.

Whether the universal coefficients model the degree-zero cobordism
coefficients over a general base is precisely what remains unknown, so
the module verifies the algebraic content of the base-change statement
on the supported instances, nothing more.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial

from .coefficients import QQ, LaurentRing, NonDivisibleBase, laurent_over
from .fgl import FormalGroupLaw, universal_coefficients, universal_law
from .polynomials import Polynomial
from .presented import PresentedRing, QuotientCoefficients, RingMap
from .spaces import (
    FlagBundle,
    GrassmannianBundle,
    OrientedTheory,
    ProjectiveSpace,
    cohomology,
    multiplicative_theory,
)


class _UniversalTheory(OrientedTheory):
    """Z[b_1..b_D] up front, ``universal_law`` over them when first read."""

    def __init__(self, truncation: int):
        self.truncation, self.coefficients = truncation, universal_coefficients(truncation)

    @cached_property
    def law(self) -> FormalGroupLaw:
        return universal_law(self.truncation, self.coefficients)


_UNIVERSAL_CACHE: dict[int, OrientedTheory] = {}


def universal_theory(truncation: int = 8) -> OrientedTheory:
    """The theory over Z[b_1..b_D], one per truncation; its law is built on first read."""
    theory = _UNIVERSAL_CACHE.get(truncation)
    if theory is None:
        theory = _UNIVERSAL_CACHE[truncation] = _UniversalTheory(truncation)
    return theory


def _check_supported(space) -> None:
    if isinstance(space, ProjectiveSpace):
        ok = space.n >= 0
    else:
        ok = (isinstance(space, (FlagBundle, GrassmannianBundle)) and space.base_ring is None
              and all(c.is_zero() for c in space.chern))
    if not ok:
        raise ValueError("supported instances: projective spaces, trivial flag and "
                         "Grassmannian bundles over a point")


def cobordism_presentation(space, truncation: int = 8) -> PresentedRing:
    """Presentation of the instance over the universal coefficients."""
    _check_supported(space)
    return cohomology(universal_theory(truncation), space, truncation)


def _coefficient_images(truncation: int):
    """(Z[b, b^-1], the images b_i -> (-b)^i/(i+1)! in Q[b, b^-1] for i = 1..D)."""
    return laurent_over(), tuple({i: Fraction((-1) ** i, factorial(i + 1))}
                                 for i in range(1, truncation + 1))


def base_change(ring: PresentedRing, target_base: LaurentRing, scalars) -> PresentedRing:
    """Tensor a presentation over the universal coefficients along the
    coefficient map b_i -> scalars[i - 1] in Q[b, b^-1], keeping generators
    and weights; a coefficient not mapped into ``target_base`` raises
    NonDivisibleBase."""
    if not isinstance(ring.base, QuotientCoefficients):
        raise ValueError("base change starts from a presented-quotient base")
    rational = LaurentRing(QQ, target_base.symbol, target_base.weight)

    def map_coeff(c: Polynomial):
        out = rational.zero()
        for mono, k in c.terms.items():
            term = rational.from_int(k)
            for idx, e in mono:
                for _ in range(e):
                    term = rational.mul(term, scalars[idx])
            out = rational.add(out, term)
        if any(v.denominator != 1 for v in out.values()):
            raise NonDivisibleBase(f"coefficient {ring.base.coeff_str(c)} maps to "
                                   f"{rational.coeff_str(out)}, outside {target_base}")
        return {e: target_base.base.from_int(v.numerator) for e, v in out.items()}

    def map_poly(p: Polynomial) -> Polynomial:
        return Polynomial(target_base, {m: map_coeff(c) for m, c in p.terms.items()})

    relations = [map_poly(r) for r in ring.relations]
    return PresentedRing(target_base, ring.variables, relations, ring.truncation)


def verify_conner_floyd(space, truncation: int = 8) -> dict:
    """Run the base-change isomorphism check on one instance.

    Builds both presentations, tensors the cobordism side along the
    map classifying the multiplicative law and checks that the
    generator-preserving map to the K-side is a graded isomorphism,
    weight by weight.  No backward map is checked: when the forward map
    is bijective in every weight up to the truncation, its inverse sends
    each generator to the same-named generator, so it is that map.
    """
    D = int(truncation)
    left = cobordism_presentation(space, D)
    # the support guard ran in cobordism_presentation
    right = cohomology(multiplicative_theory(D), space, D)
    target_base, scalars = _coefficient_images(D)
    changed = base_change(left, target_base, scalars)

    forward = RingMap(changed, right, [right.var(i) for i in range(changed.nvars)])
    ok, per_weight = forward.is_graded_isomorphism()
    return {
        "instance": describe_space(space),
        "truncation": D,
        "per_weight": [
            {
                "weight": e["weight"],
                "cobordism_rank": e["source_rank"],
                "k_rank": e["target_rank"],
                "ok": e["ok"],
            }
            for e in per_weight
        ],
        "total_rank": sum(e["source_rank"] for e in per_weight),
        "isomorphism": bool(ok),
    }


def describe_space(space) -> str:
    """Name of an instance ``_check_supported`` admits."""
    if isinstance(space, ProjectiveSpace):
        return "point" if space.n == 0 else f"P{space.n}"
    if isinstance(space, FlagBundle):
        return f"flag(A{space.rank})"
    return f"Gr{space.m}(A{space.n})"

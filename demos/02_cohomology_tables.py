"""Rank tables for the standard spaces.

Projective spaces, flag and Grassmannian bundles over a point, the
stable classifying space, and a product, all over the additive theory;
then the same Grassmannian over the multiplicative theory to show the
presentations do not depend on the law.
"""

from math import comb, factorial

from orcohom import (
    ClassifyingBGL,
    FlagBundle,
    GrassmannianBundle,
    InfiniteProjectiveSpace,
    Product,
    ProjectiveSpace,
    additive_theory,
    cohomology,
    multiplicative_theory,
    restriction_map,
)

TH = additive_theory(truncation=12)

print("== projective spaces ==")
for n in range(0, 6):
    ring = cohomology(TH, ProjectiveSpace(n), 8)
    print(f"P{n}: ranks {ring.graded_ranks(6)} total {ring.total_rank()}")

print()
print("== flags: total rank n! ==")
for n in range(1, 6):
    D = max(1, n * (n - 1) // 2)
    ring = cohomology(TH, FlagBundle(n), D)
    print(f"flag(A{n}): total {ring.total_rank()} = {factorial(n)}  [route: {ring.route}]")

print()
print("== Grassmannians: Gaussian binomial ranks ==")
for m, n in ((2, 4), (2, 5), (3, 6)):
    D = m * (n - m)
    ring = cohomology(TH, GrassmannianBundle(m, n), D)
    print(f"Gr{m}(A{n}): ranks {ring.graded_ranks()} total {ring.total_rank()} = C({n},{m}) = {comb(n, m)}")

print()
print("== stable classifying space: partition ranks ==")
ring = cohomology(TH, ClassifyingBGL(None), 8)
print("BGL:", ring.graded_ranks())

print()
print("== product and restriction ==")
prod = cohomology(TH, Product(ProjectiveSpace(1), ProjectiveSpace(1)), 6)
print("P1 x P1 ranks:", prod.graded_ranks(3))
rmap = restriction_map(TH, InfiniteProjectiveSpace(), ProjectiveSpace(3), 6)
# generator to generator, so onto: bijective exactly where the ranks agree
print("restriction to P3 bijective per weight:",
      [e["ok"] for e in rmap.is_graded_isomorphism()[1]])

print()
print("== the presentation is law-independent ==")
mring = cohomology(multiplicative_theory(8), GrassmannianBundle(2, 4), 8)
print("Gr2(A4) over the multiplicative theory:", mring.graded_ranks(4))

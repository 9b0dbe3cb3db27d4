"""Tour of the formal group law calculus.

Builds the two classical laws, checks the axioms, and walks through the
inverse, iterates, logarithm, the truncated universal coefficients
with their classifying maps, and the a_ij as polynomials in Z[b].
"""

from orcohom import (
    QQ,
    check_axioms,
    classifying_map,
    formal_inverse,
    laurent_over,
    lazard_generators,
    lazard_graded_ranks,
    lazard_ring,
    logarithm,
    make_additive,
    make_multiplicative,
    n_series,
    universal_law,
)

D = 8

print("== the two classical laws ==")
add = make_additive(truncation=D)
mult = make_multiplicative(truncation=D)
for name, law in (("additive", add), ("multiplicative", mult)):
    rep = check_axioms(law)
    print(f"{name}: F = {law.ring2.poly_str(law.series)}")
    print(f"  unit={rep['unit']} commutative={rep['commutative']} associative={rep['associative']}")

print()
print("== inverse and iterates for the multiplicative law ==")
inv = formal_inverse(mult)
print("i(x)  =", mult.ring2.poly_str(inv))
print("[2]x  =", mult.ring2.poly_str(n_series(mult, 2)))
print("[-1]x =", mult.ring2.poly_str(n_series(mult, -1)))

print()
print("== logarithm needs rational coefficients ==")
LB = laurent_over(QQ, "b", -1)
multq = make_multiplicative(LB, LB.generator(), truncation=D)
print("l(x) =", multq.ring2.poly_str(logarithm(multq)))

print()
print("== truncated universal coefficients ==")
ring = lazard_ring(5)
print("generators:", list(ring.names))
# each weight's indecomposables are Z, so Lazard's theorem gives the ranks
print("graded ranks:", lazard_graded_ranks(5), "(partition numbers)")
cm = classifying_map(make_multiplicative(truncation=6), ring)
images = {name: cm.target.base.coeff_str(im.constant_term())
          for name, im in zip(ring.names, cm.images) if not im.is_zero()}
print("multiplicative law classifies through:", images)

print()
print("== the universal law over Z[b] = H_*MU ==")
# g(g^-1(x) + g^-1(y)) for g(x) = x + b1*x^2 + b2*x^3 + ...; the map from
# the a_ij to Z[b] is injective (Lazard), so each a_ij is its b-polynomial
univ = universal_law(5)
print("check_axioms:", check_axioms(univ)["passed"])
classifying_map(univ, ring)  # raises IllDefinedMap unless every relation vanishes in Z[b]
print("every associativity relation of the presentation vanishes in Z[b]")
for i, j in lazard_generators(5):
    print(f"  a{i}_{j} ->", univ.base.ring.poly_str(univ.coefficient(i, j)))

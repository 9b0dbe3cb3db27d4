"""Cross-validation of the two normal-form engines.

Both routes reduce against the same leading-term data for a fixed
monomial order, so on a shared ideal they must produce identical
standard bases and identical canonical representatives, not merely
isomorphic answers.
"""

import random

from orcohom.coefficients import ZZ
from orcohom.polynomials import Polynomial
from orcohom.presented import PresentedRing
from orcohom.spaces import FlagBundle, ProjectiveBundle, ProjectiveSpace, additive_theory, cohomology

from oracles import degreewise_twin, elementary_symmetric, int_poly


def random_elements(rng, ring, count=20, terms=4, weight_cap=None):
    cap = weight_cap or ring.truncation
    monos = [m for w in range(cap + 1) for m in ring.monomials_of_weight(w)]
    for _ in range(count):
        yield int_poly(
            ring.base, {rng.choice(monos): rng.randint(-5, 5) for _ in range(terms)})


def test_flag_routes_agree():
    th = additive_theory(truncation=8)
    ring = cohomology(th, FlagBundle(3), 5)
    assert ring.route == "rewrite"
    twin = degreewise_twin(ring)
    for w in range(6):
        assert ring.graded_basis(w).basis == twin.graded_basis(w).basis, w
    rng = random.Random(42)
    for p in random_elements(rng, ring):
        assert ring.normal_form(p) == twin.normal_form(p)


def test_projective_bundle_routes_agree():
    th = additive_theory(truncation=8)
    base = cohomology(th, ProjectiveSpace(2), 6)
    h = Polynomial.variable(ZZ, 0)
    ring = cohomology(th, ProjectiveBundle(2, [h.scale(ZZ.from_int(2)), h * h],
                                           base_ring=base), 6)
    assert ring.route == "rewrite"
    twin = degreewise_twin(ring)
    for w in range(7):
        assert ring.graded_basis(w).basis == twin.graded_basis(w).basis, w
    rng = random.Random(43)
    for p in random_elements(rng, ring):
        assert ring.normal_form(p) == twin.normal_form(p)


def test_flag_bundle_with_chern_routes_agree():
    # nontrivial Chern classes exercise the signs in the triangular
    # completion; the completion must validate (rewrite route) and agree
    # with the degreewise reduction of the raw relations
    th = additive_theory(truncation=8)
    base = cohomology(th, ProjectiveSpace(3), 7)
    h = Polynomial.variable(ZZ, 0)
    ring = cohomology(th, FlagBundle(2, [h.scale(ZZ.from_int(2)), h * h],
                                     base_ring=base), 7)
    assert ring.route == "rewrite"
    twin = degreewise_twin(ring)
    for w in range(8):
        assert ring.graded_basis(w).basis == twin.graded_basis(w).basis, w
    rng = random.Random(47)
    for p in random_elements(rng, ring, count=15):
        assert ring.normal_form(p) == twin.normal_form(p)


def test_power_ring_routes_agree():
    ring = PresentedRing(ZZ, [("l", 1)],
                         [int_poly(ZZ, {((0, 4),): 1})], 8)
    twin = degreewise_twin(ring)
    rng = random.Random(44)
    for p in random_elements(rng, ring):
        assert ring.normal_form(p) == twin.normal_form(p)


def test_multiplication_associative_under_truncation():
    th = additive_theory(truncation=8)
    ring = cohomology(th, FlagBundle(3), 5)
    rng = random.Random(45)
    elems = list(random_elements(rng, ring, count=9, terms=3, weight_cap=3))
    for i in range(0, 9, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


def test_flag_idempotence_on_rewrite_route():
    th = additive_theory(truncation=8)
    ring = cohomology(th, FlagBundle(4), 6)
    rng = random.Random(46)
    for p in random_elements(rng, ring, count=10):
        nf = ring.normal_form(p)
        assert ring.normal_form(nf) == nf
    for k in range(1, 5):
        assert ring.normal_form(elementary_symmetric(ZZ, k, range(4))).is_zero()

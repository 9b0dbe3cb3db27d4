import random
from itertools import product

import pytest

from orcohom.coefficients import QQ, ZZ
from orcohom.polynomials import Polynomial, mono_div, mono_divides, mono_key, mono_mul, mono_weight

from oracles import int_poly


def P(d):
    return int_poly(ZZ, d)


def test_monomial_helpers():
    a = ((0, 2), (2, 1))
    b = ((0, 1), (1, 3))
    assert mono_mul(a, b) == ((0, 3), (1, 3), (2, 1))
    assert mono_divides(((0, 1),), a)
    assert not mono_divides(((1, 1),), a)
    assert mono_div(a, ((0, 2),)) == ((2, 1),)
    assert mono_weight(a, (1, 1, 2)) == 4


def _mono_mul_by_dict(a, b):
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def test_mono_mul_merge_matches_the_dict_reference():
    rng = random.Random(29)

    def mono():
        return tuple((i, rng.randint(1, 4)) for i in sorted(rng.sample(range(8), rng.randint(0, 5))))

    cases = [((), ()), ((), ((1, 2),)), (((0, 1),), ()), (((0, 1), (3, 2)), ((1, 1), (4, 1))),
             (((0, 1), (2, 2)), ((0, 3), (2, 1))), (((5, 1),), ((0, 2), (1, 1)))]
    cases += [(mono(), mono()) for _ in range(500)]
    shared = disjoint = 0
    for a, b in cases:
        assert mono_mul(a, b) == _mono_mul_by_dict(a, b) == mono_mul(b, a)
        common = {i for i, _ in a} & {i for i, _ in b}
        shared += bool(common)
        disjoint += bool(a and b and not common)
    assert shared > 100 and disjoint > 20


def test_arithmetic():
    x = Polynomial.variable(ZZ, 0)
    y = Polynomial.variable(ZZ, 1)
    p = (x + y) * (x - y)
    assert p == P({((0, 2),): 1, ((1, 2),): -1})
    assert (x + y) ** 2 == P({((0, 2),): 1, ((0, 1), (1, 1)): 2, ((1, 2),): 1})
    assert (p - p).is_zero()
    assert (-p) + p == Polynomial.zero(ZZ)


def test_no_zero_terms_stored():
    p = P({((0, 1),): 1}) + P({((0, 1),): -1})
    assert p.terms == {}
    q = Polynomial(ZZ, {((0, 1),): 0, (): 3})
    assert list(q.terms) == [()]


def test_monomials_normalized_on_construction():
    # zero exponents and unsorted pairs collapse to the canonical form
    q = Polynomial(ZZ, {((2, 1), (0, 0), (1, 2)): 4, ((1, 2), (2, 1)): 1})
    assert q.terms == {((1, 2), (2, 1)): 5}


def test_construction_drops_a_zero_sum_across_factor_orders():
    q = Polynomial(ZZ, {((0, 1), (1, 1)): 2, ((1, 1), (0, 1)): -2, ((0, 0),): 5})
    assert q.terms == {(): 5}


def test_scale_and_shift():
    p = P({((0, 1),): 2, (): 1})
    assert p.scale(0).is_zero()
    shifted = p.shift_indices(3)
    assert shifted == P({((3, 1),): 2, (): 1})


def test_leading_and_sorted_terms():
    p = P({((0, 1),): 1, ((1, 2),): 5, ((0, 1), (1, 1)): -2})
    lead = p.leading((1, 1))
    assert lead[0] == ((0, 1), (1, 1))  # weight 2, larger exponent on index 0
    order = [m for m, _ in p.sorted_terms((1, 1))]
    assert order == [((0, 1), (1, 1)), ((1, 2),), ((0, 1),)]


def dense_key(m, weights, nvars):
    """The graded-lex key on dense exponent vectors, the reference for ``mono_key``."""
    dense = [0] * nvars
    for i, e in m:
        dense[i] = e
    return (mono_weight(m, weights), tuple(dense))


def cmp(x, y):
    return (x > y) - (x < y)


def test_mono_key_orders_as_the_dense_vector_key():
    # the empty monomial, shared prefixes and monomials of different lengths
    rng = random.Random(11)
    nvars = 5
    hand = [(), ((0, 1),), ((1, 1),), ((4, 1),), ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((0, 2),),
            ((0, 1), (1, 1), (4, 1)), ((1, 1), (4, 1)), ((2, 3),), ((0, 1), (1, 2))]
    for trial in range(300):
        weights = tuple(rng.randint(1, 3) for _ in range(nvars))
        monos = hand + [tuple((i, rng.randint(1, 3)) for i in sorted(rng.sample(range(nvars), rng.randint(0, nvars))))
                        for _ in range(12)]
        new = [mono_key(m, weights) for m in monos]
        ref = [dense_key(m, weights, nvars) for m in monos]
        for i, j in product(range(len(monos)), repeat=2):
            assert cmp(new[i], new[j]) == cmp(ref[i], ref[j]), (monos[i], monos[j], weights)


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(ZZ, 0) ** -1


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(Polynomial.one(ZZ))


def test_equality_respects_base():
    assert Polynomial.one(ZZ) != Polynomial.one(QQ)


def test_to_str_abbreviates_units_by_value():
    # 1 and -1 print as a bare or negated monomial over every base,
    # however the base spells them: 4 in Z/5, 1@0 in Z[b, b^-1], a
    # constant term list in the universal coefficients
    from orcohom.coefficients import ModularRing, laurent_over
    from orcohom.fgl import universal_law

    L, U = laurent_over(ZZ), universal_law(3).base
    for base in (ZZ, QQ, ModularRing(5), L, U):
        one = base.one()
        p = Polynomial(base, {((0, 1),): one, ((1, 1),): base.neg(one), ((0, 2),): base.from_int(2)})
        assert p.to_str(["x", "y"]) == f"({base.coeff_str(base.from_int(2))})*x^2 + x + -y", base
    b = Polynomial(L, {((0, 1),): L.generator()})
    assert b.to_str(["l"]) == "(1@1)*l"
    assert Polynomial(ModularRing(2), {((0, 1),): 1, (): 1}).to_str(["l"]) == "l + 1"


def _coefficient_bases():
    from orcohom.coefficients import ModularRing, laurent_over
    from orcohom.presented import PresentedRing, QuotientCoefficients

    u, v = (Polynomial.variable(ZZ, i) for i in range(2))
    free = PresentedRing(ZZ, [("b1", 1), ("b2", 2), ("b3", 3)], [], 5)
    # u^2 -> 3v^2 rewrites; 2u has a non-unit leading coefficient, so a
    # sum of two normal forms u + u must be reduced again
    rewrite = PresentedRing(ZZ, [("u", 1), ("v", 1)], [u * u - (v * v).scale(3)], 5)
    pivot = PresentedRing(ZZ, [("u", 1), ("v", 1)], [u.scale(2)], 5)
    free_mod4 = PresentedRing(ModularRing(4), free.variables, [], 5)
    assert (rewrite.route, pivot.route) == ("rewrite", "degreewise")
    return {"Z": ZZ, "Z/6": ModularRing(6), "Q": QQ, "Z[b,b^-1]": laurent_over(ZZ),
            "Z[b]": QuotientCoefficients(free), "rewrite": QuotientCoefficients(rewrite),
            "non-unit-pivot": QuotientCoefficients(pivot), "Z/4[b]": QuotientCoefficients(free_mod4)}


@pytest.mark.parametrize("name", ["Z", "Z/6", "Q", "Z[b,b^-1]", "Z[b]", "rewrite", "non-unit-pivot",
                                  "Z/4[b]"])
def test_product_matches_the_fold_reference(name):
    # every output coefficient is one multiply-accumulate chain settled
    # once; the reference adds each term pair's product into a running sum.
    # Nested coefficients reach the inner truncation, so inner products are
    # dropped above it, and the reference multiplies them in the inner ring
    import random

    from oracles import product_by_fold

    base = _coefficient_bases()[name]
    rng = random.Random(2300 + len(name))
    if hasattr(base, "ring"):
        inner = base.ring
        monos = [m for w in range(inner.truncation + 1) for m in inner.monomials_of_weight(w)]

        def coeff():
            return base.from_poly(int_poly(inner.base, {rng.choice(monos): rng.randint(-3, 3) for _ in range(3)}))
    elif name == "Z[b,b^-1]":
        def coeff():
            return base.coeff_from_str(";".join(f"{rng.randint(-3, 3)}@{rng.randint(-2, 2)}"
                                                for _ in range(2)))
    else:
        def coeff():
            return base.from_int(rng.randint(-5, 5))
    weights = (1, 2)
    for _ in range(20):
        p, q = (Polynomial(base, {((0, rng.randint(0, 3)), (1, rng.randint(0, 2))): coeff()
                                  for _ in range(rng.randint(1, 6))}) for _ in range(2))
        # coefficients compare as stored, so an unreduced one shows
        assert p.product(q).terms == product_by_fold(p, q).terms, name
        bound = rng.randint(0, 6)
        assert p.product(q, weights, bound).terms == product_by_fold(p, q, weights, bound).terms, name


import random
from math import comb

import pytest

from orcohom.coefficients import ZZ
from orcohom.polynomials import Polynomial
from orcohom.spaces import complete_homogeneous

from oracles import (
    NotSymmetric,
    elementary_symmetric,
    elementary_symmetric_decompose,
    int_poly,
    is_symmetric,
    power_sum,
    substitute_elementary,
)


def test_power_sum_two_variables():
    p = power_sum(2, range(2))
    dec = elementary_symmetric_decompose(p, 2)
    # e1^2 - 2 e2, with e_k at index k-1
    assert dec == int_poly(ZZ, {((0, 2),): 1, ((1, 1),): -2})


def test_product_of_all_variables():
    p = elementary_symmetric(ZZ, 3, range(3))
    dec = elementary_symmetric_decompose(p, 3)
    assert dec == int_poly(ZZ, {((2, 1),): 1})


def test_not_symmetric_rejected():
    x0 = Polynomial.variable(ZZ, 0)
    with pytest.raises(NotSymmetric):
        elementary_symmetric_decompose(x0, 2)


def test_round_trip_random_symmetric():
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(8):
            # random polynomial in e-coordinates of weight <= 6, expanded
            q_terms = {}
            for _ in range(3):
                mono = []
                weight = 0
                for k in range(n):
                    e = rng.randint(0, 2)
                    if e and weight + (k + 1) * e <= 6:
                        mono.append((k, e))
                        weight += (k + 1) * e
                q_terms[tuple(mono)] = rng.randint(-3, 3)
            q = int_poly(ZZ, q_terms)
            p = substitute_elementary(q, n)
            assert is_symmetric(p, n)
            dec = elementary_symmetric_decompose(p, n)
            # the representation over e_1..e_n is unique
            assert dec == q
            assert substitute_elementary(dec, n) == p


def test_complete_homogeneous_identity():
    # sum_k (-1)^k e_k h_{m-k} = 0 for m >= 1
    n, m = 3, 3
    acc = Polynomial.zero(ZZ)
    sign = 1
    for k in range(m + 1):
        e = elementary_symmetric(ZZ, k, range(n))
        h = complete_homogeneous(ZZ, m - k, range(n))
        acc = acc + (e * h).scale(ZZ.from_int(sign))
        sign = -sign
    assert acc.is_zero()


def test_complete_homogeneous_edge_degrees():
    assert complete_homogeneous(ZZ, -1, range(3)).is_zero()
    assert complete_homogeneous(ZZ, 0, range(3)) == Polynomial.one(ZZ)
    assert complete_homogeneous(ZZ, 0, []) == Polynomial.one(ZZ)
    assert complete_homogeneous(ZZ, 2, []).is_zero()


@pytest.mark.parametrize("n, k", [(1, 3), (2, 4), (3, 3), (4, 5)])
def test_complete_homogeneous_lists_every_monomial_in_descending_lex(n, k):
    # the order the flag relations are built in; the count is C(n + k - 1, k)
    indices = range(2, 2 + n)
    h = complete_homogeneous(ZZ, k, reversed(indices))
    dense = []
    for m, c in h.terms.items():
        assert c == 1 and sum(e for _, e in m) == k
        exps = dict(m)
        dense.append(tuple(exps.get(i, 0) for i in indices))
    assert len(dense) == len(set(dense)) == comb(n + k - 1, k)
    assert dense == sorted(dense, reverse=True)

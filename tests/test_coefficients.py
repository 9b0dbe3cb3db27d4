import pytest

from orcohom.coefficients import (
    ModularRing,
    NonDivisibleBase,
    QQ,
    ZZ,
    laurent_over,
)
from orcohom.fgl import universal_coefficients
from orcohom.polynomials import Polynomial
from orcohom.presented import PresentedRing, QuotientCoefficients

ZB = laurent_over(ZZ, "b", -1)
B = ZB.generator()
UNIV = universal_coefficients(3)  # Z[b1, b2, b3] as a QuotientCoefficients domain
UNIV_Q = QuotientCoefficients(PresentedRing(QQ, [("l", 1)], [Polynomial.variable(QQ, 0) ** 2], 3))


def b_(i):
    return UNIV.from_poly(Polynomial.variable(ZZ, i - 1))


def test_integers_basics():
    assert ZZ.add(2, 3) == 5
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert ZZ.divide_by_int(6, 3) == 2
    with pytest.raises(NonDivisibleBase):
        ZZ.divide_by_int(7, 3)
    assert ZZ.coeff_from_str(ZZ.coeff_str(-42)) == -42


def test_rationals():
    a = QQ.coeff_from_str("3/2")
    assert QQ.coeff_str(QQ.mul(a, QQ.from_int(2))) == "3"
    assert QQ.is_unit(a)
    assert QQ.divide_by_int(QQ.one(), 7) == QQ.coeff_from_str("1/7")


def test_modular():
    z6 = ModularRing(6)
    assert z6.from_int(10) == 4
    assert z6.is_unit(5) and not z6.is_unit(2)
    assert ModularRing(5).divide_by_int(1, 2) == 3
    # 2 = 2 * 1 = 2 * 3 over Z/4: no quotient is exact, so none is returned
    with pytest.raises(NonDivisibleBase):
        ModularRing(4).divide_by_int(2, 2)
    with pytest.raises(ValueError):
        ModularRing(1)


def test_laurent_arithmetic():
    L = laurent_over(ZZ, "b", -1)
    b = L.generator()
    binv = {-1: ZZ.one()}
    assert L.is_one(L.mul(b, binv))
    x = L.add(L.from_int(3), b)
    y = L.mul(x, x)
    assert y == {0: 9, 1: 6, 2: 1}
    assert L.is_unit(b) and not L.is_unit(x)


def test_laurent_division():
    # a monomial c b^e with c a unit is the only kind of unit, and an
    # integer divides termwise; 1 - b has no inverse in Z[b, b^-1]
    x = ZB.add(ZB.from_int(1), ZB.neg(B))
    assert ZB.inv_unit(B) == {-1: 1}
    assert ZB.mul(ZB.mul(B, x), ZB.inv_unit(B)) == x
    assert ZB.divide_by_int(ZB.add(ZB.mul(B, ZB.from_int(2)), ZB.from_int(4)), 2) == {0: 2, 1: 1}
    with pytest.raises(NonDivisibleBase):
        ZB.inv_unit(x)


@pytest.mark.parametrize("domain, unit", [
    (ZZ, 1), (ZZ, -1), (QQ, QQ.coeff_from_str("-3/2")), (ModularRing(6), 5), (ModularRing(5), 2),
    (ZB, B), (ZB, {-2: -1}), (laurent_over(QQ, "b", -1), {3: QQ.coeff_from_str("2/7")}),
    (UNIV, UNIV.from_int(-1)), (UNIV_Q, UNIV_Q.from_int(3)),
])
def test_inv_unit_inverts_units(domain, unit):
    assert domain.is_unit(unit)
    assert domain.is_one(domain.mul(unit, domain.inv_unit(unit)))


@pytest.mark.parametrize("domain, non_unit", [
    (ZZ, 2), (ZZ, 0), (QQ, QQ.zero()), (ModularRing(6), 2), (ModularRing(6), 0),
    (ZB, ZB.add(ZB.one(), ZB.neg(B))), (ZB, ZB.mul(B, ZB.from_int(2))), (ZB, ZB.zero()),
    (UNIV, b_(1)), (UNIV, UNIV.from_int(2)), (UNIV, UNIV.add(UNIV.one(), b_(2))), (UNIV, UNIV.zero()),
])
def test_inv_unit_raises_on_non_units(domain, non_unit):
    assert not domain.is_unit(non_unit)
    with pytest.raises(NonDivisibleBase):
        domain.inv_unit(non_unit)


def test_quotient_divide_by_int_is_termwise():
    # (6 b1^2 - 3 b2 + 9) / 3 = 2 b1^2 - b2 + 3 in Z[b1, b2, b3]
    def poly(c11, c2, c0):
        return UNIV.from_poly(Polynomial(ZZ, {((0, 2),): c11, ((1, 1),): c2, (): c0}))

    assert UNIV.divide_by_int(poly(6, -3, 9), 3) == poly(2, -1, 3)


def test_laurent_string_round_trip():
    L = laurent_over(ZZ, "b", -1)
    v = {-2: 5, 0: -1, 3: 7}
    assert L.coeff_from_str(L.coeff_str(v)) == v
    assert L.coeff_str(L.zero()) == "0"


def test_divide_by_int_failures():
    with pytest.raises(NonDivisibleBase):
        ZZ.divide_by_int(3, 2)
    L = laurent_over(ZZ, "b", -1)
    with pytest.raises(NonDivisibleBase):
        L.divide_by_int(L.generator(), 2)
    for domain, a, n in [(ZZ, 1, 0), (QQ, QQ.one(), 0), (ModularRing(6), 3, 3), (UNIV, b_(1), 2)]:
        with pytest.raises(NonDivisibleBase):
            domain.divide_by_int(a, n)

import pytest

from orcohom.coefficients import (
    ModularRing,
    NonDivisibleBase,
    QQ,
    ZZ,
    laurent_over,
)


def test_integers_basics():
    assert ZZ.add(2, 3) == 5
    assert ZZ.is_unit(-1) and not ZZ.is_unit(2)
    assert ZZ.divide_exact(6, 3) == 2
    assert ZZ.divide_exact(7, 3) is None
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
    L = laurent_over(ZZ, "b", -1)
    b = L.generator()
    x = L.add(L.from_int(1), L.neg(b))       # 1 - b
    y = L.mul(x, L.add(L.from_int(2), b))    # (1-b)(2+b)
    assert L.divide_exact(y, x) == {0: 2, 1: 1}
    assert L.divide_exact(b, x) is None
    assert L.divide_exact(L.mul(b, x), b) == x


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

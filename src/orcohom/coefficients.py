"""Exact coefficient domains underlying every ring in the package.

Four scalar domains are provided: the integers, the integers modulo n,
the rationals, and a Laurent extension adjoining a single invertible
generator (used for rings like Z[b, b^-1] with a Bott-type unit).  A
fifth domain, classes of a presented quotient ring used as scalars,
lives in :mod:`orcohom.presented` to avoid a circular import.

All arithmetic is arbitrary precision; nothing here ever touches a
float.  Elements are plain data (int, Fraction, dict) and every domain
is a stateless immutable descriptor, so values can be shared freely
between threads.

Division is offered only where the quotient is unique: by units
anywhere, and by integers that are units or, over Z and termwise above
it, divide exactly.  Over Z/n a non-unit has no quotient or several.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polynomials import accumulate, collect, weighted


class NonDivisibleBase(ArithmeticError):
    """An exact division was requested that the domain cannot perform."""


class BaseRing:
    """Common interface for coefficient domains.

    Subclasses implement a small protocol: ``zero``, ``one``,
    ``from_int``, ``add``, ``neg``, ``mul``, ``is_zero``, ``is_unit``,
    ``inv_unit``, and canonical string round-trips ``coeff_str`` /
    ``coeff_from_str``.  ``divide_by_int`` multiplies by ``inv_unit`` of
    the integer unless a domain divides exactly where that is unique.
    A sum of products is a chain of ``fma`` (multiply-accumulate from
    None) closed by one ``settle``; ``mul`` is a chain of one, so a
    subclass defines ``mul`` or ``fma``.
    """

    kind: str = "?"

    def zero(self):
        raise NotImplementedError

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.settle(self.fma(None, a, b))

    def fma(self, acc, a, b):
        """acc + a*b for acc None or an earlier ``fma`` result, which it may update in place."""
        p = self.mul(a, b)
        return p if acc is None else self.add(acc, p)

    def settle(self, acc):
        """The element an ``fma`` chain accumulated."""
        return acc

    def accumulate(self, acc: dict, a: dict, b: dict, weights=None, bound: int | None = None) -> dict:
        """``fma`` the term products of the term dicts a and b into acc's chains, in place."""
        return accumulate(acc, weighted(a, weights), weighted(b, weights), self.fma, bound)

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_one(self, a) -> bool:
        return self.is_zero(self.sub(a, self.one()))

    def eq(self, a, b) -> bool:
        return self.is_zero(self.sub(a, b))

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv_unit(self, a):
        """Inverse of a unit.  Raises NonDivisibleBase on non-units."""
        raise NotImplementedError

    def not_invertible(self, a) -> NonDivisibleBase:
        return NonDivisibleBase(f"{self.coeff_str(a)} is not invertible in {self}")

    def divide_by_int(self, a, n: int):
        """a / n for an integer n, or raise NonDivisibleBase."""
        return self.mul(a, self.inv_unit(self.from_int(n)))

    # integer content, used to route matrices through exact integer
    # linear algebra when every entry is a plain integer scalar
    def as_int(self, a) -> int | None:
        return None

    def coeff_str(self, a) -> str:
        raise NotImplementedError

    def coeff_from_str(self, s: str):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self):
        return hash((type(self).__name__, tuple(sorted(self.__dict__))))

    def __repr__(self):
        return self.kind


class IntegerRing(BaseRing):
    kind = "Integers"

    def zero(self):
        return 0

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def fma(self, acc, a, b):
        return a * b if acc is None else acc + a * b

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv_unit(self, a):
        if a in (1, -1):
            return a
        raise self.not_invertible(a)

    def divide_by_int(self, a, n):
        if n == 0 or a % n:
            raise NonDivisibleBase(f"cannot divide {a} by {n} in {self}")
        return a // n

    def as_int(self, a):
        return int(a)

    def coeff_str(self, a):
        return str(a)

    def coeff_from_str(self, s):
        return int(s)


class RationalRing(BaseRing):
    kind = "Rationals"

    def zero(self):
        return Fraction(0)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    fma = IntegerRing.fma

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv_unit(self, a):
        if a == 0:
            raise self.not_invertible(a)
        return 1 / Fraction(a)

    def as_int(self, a) -> int | None:
        a = Fraction(a)
        return int(a) if a.denominator == 1 else None

    def coeff_str(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def coeff_from_str(self, s):
        return Fraction(s)


class ModularRing(BaseRing):
    """Integers modulo n, n >= 2.  Elements are reduced to 0..n-1."""

    kind = "IntegersModuloN"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        self.n = int(n)

    def zero(self):
        return 0

    def from_int(self, k):
        return int(k) % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    fma = IntegerRing.fma  # an unreduced integer, reduced once by settle

    def settle(self, acc):
        return acc % self.n

    def is_zero(self, a):
        return a % self.n == 0

    def is_unit(self, a):
        return math.gcd(a, self.n) == 1

    def inv_unit(self, a):
        if not self.is_unit(a):
            raise self.not_invertible(a)
        return pow(a, -1, self.n)

    def as_int(self, a):
        return int(a) % self.n

    def coeff_str(self, a):
        return str(a % self.n)

    def coeff_from_str(self, s):
        return int(s) % self.n

    def __repr__(self):
        return f"Z/{self.n}"


class LaurentRing(BaseRing):
    """base[s, s^-1] for one invertible generator s of the given weight.

    Elements are dicts {exponent: base coefficient} with no zero values
    stored.  The generator is a unit by construction; ``weight`` is
    bookkeeping for the degree the unit absorbs (a Bott-type element
    carries weight -1) and does not enter the arithmetic.
    """

    kind = "LaurentAdjoined"

    def __init__(self, base: BaseRing, symbol: str, weight: int = -1):
        if isinstance(base, LaurentRing):
            raise ValueError("only a single Laurent generator is supported")
        self.base = base
        self.symbol = symbol
        self.weight = int(weight)

    def generator(self):
        return {1: self.base.one()}

    def _norm(self, d: dict):
        return {e: c for e, c in d.items() if not self.base.is_zero(c)}

    def zero(self):
        return {}

    def from_int(self, n):
        return self._norm({0: self.base.from_int(n)})

    def add(self, a, b):
        return collect(self.base, dict(a), b.items())

    def neg(self, a):
        return {e: self.base.neg(c) for e, c in a.items()}

    def fma(self, acc, a, b):
        acc = {} if acc is None else acc
        fma = self.base.fma
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                acc[e] = fma(acc.get(e), c1, c2)
        return acc

    def settle(self, acc):
        return {e: s for e, v in acc.items() if not self.base.is_zero(s := self.base.settle(v))}

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return len(a) == 1 and self.base.is_unit(next(iter(a.values())))

    def inv_unit(self, a):
        if not self.is_unit(a):
            raise self.not_invertible(a)
        (e, c), = a.items()
        return {-e: self.base.inv_unit(c)}

    def divide_by_int(self, a, n):
        return {e: self.base.divide_by_int(c, n) for e, c in a.items()}

    def as_int(self, a):
        if not a:
            return 0
        if set(a) == {0}:
            return self.base.as_int(a[0])
        return None

    def coeff_str(self, a):
        if not a:
            return "0"
        parts = [f"{self.base.coeff_str(a[e])}@{e}" for e in sorted(a)]
        return ";".join(parts)

    def coeff_from_str(self, s):
        if s == "0":
            return {}
        out = {}
        for part in s.split(";"):
            c, _, e = part.rpartition("@")
            out[int(e)] = self.base.coeff_from_str(c)
        return self._norm(out)

    def __repr__(self):
        return f"{self.base!r}[{self.symbol},{self.symbol}^-1]"


ZZ = IntegerRing()
QQ = RationalRing()


def laurent_over(base: BaseRing = ZZ, symbol: str = "b", weight: int = -1) -> LaurentRing:
    return LaurentRing(base, symbol, weight)

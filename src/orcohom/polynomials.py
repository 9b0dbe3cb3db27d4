"""Sparse multivariate polynomials with exact coefficients.

A monomial is a sorted tuple of (variable index, positive exponent)
pairs; the empty tuple is 1.  A polynomial is a dict from monomials to
nonzero coefficients of some :class:`~orcohom.coefficients.BaseRing`.
Variable weights and truncation live in the presented-ring layer, so a
polynomial by itself is just coefficient bookkeeping.

The monomial order used everywhere is graded lexicographic: compare
total weight first, then exponent vectors scanning from the smallest
variable index, larger exponent first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # coefficients imports this module
    from .coefficients import BaseRing

Mono = tuple[tuple[int, int], ...]

ONE_MONO: Mono = ()


def collect(base: BaseRing, out: dict, pairs) -> dict:
    """Add each (key, coefficient) of pairs into out in place, dropping
    the keys whose sum is zero; out keeps its insertion order."""
    add, is_zero, zero = base.add, base.is_zero, base.zero()
    for k, c in pairs:
        s = add(out.get(k, zero), c)
        if is_zero(s):
            out.pop(k, None)
        else:
            out[k] = s
    return out


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a or not b:
        return a or b
    out, i, j = [], 0, 0  # merge the two index-sorted tuples
    while i < len(a) and j < len(b):
        (ia, ea), (ib, eb) = a[i], b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ib < ia:
            out.append(b[j])
            j += 1
        else:
            out.append((ia, ea + eb))
            i, j = i + 1, j + 1
    return (*out, *a[i:], *b[j:])


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a | b, i.e. every exponent of a is covered by b."""
    db = dict(b)
    return all(db.get(i, 0) >= e for i, e in a)


def mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming a | b."""
    d = dict(b)
    for i, e in a:
        r = d[i] - e
        if r:
            d[i] = r
        else:
            del d[i]
    return tuple(sorted(d.items()))


def mono_weight(m: Mono, weights) -> int:
    w = 0
    for i, e in m:
        w += e * weights[i]
    return w


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_key(m: Mono, weights):
    """Sort key realizing graded-lex; bigger key means bigger monomial.
    The (-i, e) pairs compare as the dense exponent vectors would."""
    return (mono_weight(m, weights), tuple((-i, e) for i, e in m))


def mono_str(m: Mono, names) -> str:
    if not m:
        return "1"
    return "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in m)


class Polynomial:
    """Finite map from monomials to nonzero coefficients.

    Instances are immutable in spirit: no method mutates self, and all
    arithmetic returns fresh objects.  Zero coefficients are never
    stored.
    """

    __slots__ = ("base", "terms")

    def __init__(self, base: BaseRing, terms: dict | None = None, _clean: bool = False):
        self.base = base
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = collect(base, {}, ((tuple(sorted((i, e) for i, e in m if e)), c)
                                            for m, c in terms.items()))

    @classmethod
    def zero(cls, base: BaseRing) -> "Polynomial":
        return cls(base, {}, _clean=True)

    @classmethod
    def constant(cls, base: BaseRing, c) -> "Polynomial":
        return cls(base, {ONE_MONO: c})

    @classmethod
    def one(cls, base: BaseRing) -> "Polynomial":
        return cls.constant(base, base.one())

    @classmethod
    def variable(cls, base: BaseRing, index: int, exponent: int = 1) -> "Polynomial":
        return cls(base, {((index, exponent),): base.one()}, _clean=True)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, m: Mono):
        return self.terms.get(m, self.base.zero())

    def constant_term(self):
        return self.terms.get(ONE_MONO, self.base.zero())

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {ONE_MONO}

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(i for i, _ in m)
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.base, collect(self.base, dict(self.terms), other.terms.items()), _clean=True)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.base, {m: self.base.neg(c) for m, c in self.terms.items()}, _clean=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def product(self, other: "Polynomial", weights=None, bound: int | None = None) -> "Polynomial":
        """self * other; with ``weights``, only its terms of weight at most ``bound``.

        Weight is additive, so the skipped term pairs are exactly those
        giving monomials above the bound, and the kept monomials come out
        with the full product's coefficients.  Each output coefficient is
        one chain of the base's ``accumulate``, settled once.
        """
        return settled(self.base, self.base.accumulate({}, self.terms, other.terms, weights, bound))

    __mul__ = product

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one(self.base)
        square = self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    def scale(self, c) -> "Polynomial":
        base = self.base
        if base.is_zero(c):
            return Polynomial.zero(base)
        out = {}
        for m, v in self.terms.items():
            p = base.mul(c, v)
            if not base.is_zero(p):
                out[m] = p
        return Polynomial(base, out, _clean=True)

    def map_monomials(self, fn) -> "Polynomial":
        """Relabel monomials through fn (used for reindexing variables)."""
        return Polynomial(self.base, collect(self.base, {}, ((fn(m), c) for m, c in self.terms.items())),
                          _clean=True)

    def shift_indices(self, offset: int) -> "Polynomial":
        return self.map_monomials(lambda m: tuple((i + offset, e) for i, e in m))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.base != other.base or set(self.terms) != set(other.terms):
            return False
        return all(self.base.eq(c, other.terms[m]) for m, c in self.terms.items())

    def __hash__(self):
        raise TypeError("polynomials are not hashable")

    def sorted_terms(self, weights):
        """Terms in graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda mc: mono_key(mc[0], weights), reverse=True)

    def leading(self, weights):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            return None
        m = max(self.terms, key=lambda m: mono_key(m, weights))
        return m, self.terms[m]

    def to_str(self, names) -> str:
        if not self.terms:
            return "0"
        base = self.base
        parts = []
        for m in sorted(self.terms, key=lambda m: (-mono_degree(m), m)):
            c = self.terms[m]
            if m == ONE_MONO:
                parts.append(base.coeff_str(c))
            elif base.is_one(c):
                parts.append(mono_str(m, names))
            elif base.is_one(base.neg(c)):
                parts.append("-" + mono_str(m, names))
            else:
                parts.append(f"({base.coeff_str(c)})*{mono_str(m, names)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({len(self.terms)} terms)"


def swap_variables(p: Polynomial, i: int, j: int) -> Polynomial:
    """p with the variables i and j exchanged."""
    return p.map_monomials(lambda m: tuple(sorted((j if v == i else i if v == j else v, e) for v, e in m)))


def weighted(terms: dict, weights=None) -> list:
    """(monomial, weight, coefficient) triples of a term dict; weight 0 without weights."""
    return [(m, 0 if weights is None else mono_weight(m, weights), c) for m, c in terms.items()]


def accumulate(acc: dict | None, left: list, right: list, fma, bound: int | None = None) -> dict:
    """Multiply-accumulate the term products of two ``weighted`` lists into
    acc (None: a new dict) in place, keeping those of weight at most ``bound``."""
    acc = {} if acc is None else acc
    for m1, w1, c1 in left:
        room = float("inf") if bound is None else bound - w1
        for m2, w2, c2 in right:
            if w2 <= room:
                m = mono_mul(m1, m2)
                acc[m] = fma(acc.get(m), c1, c2)
    return acc


def settled(base: BaseRing, acc: dict) -> Polynomial:
    """The polynomial whose coefficients the ``fma`` chains in acc hold."""
    settle, is_zero = base.settle, base.is_zero
    return Polynomial(base, {m: c for m, a in acc.items() if not is_zero(c := settle(a))}, _clean=True)


def poly_to_json(p: Polynomial, weights, nvars: int) -> list:
    """[[dense exponent vector, coefficient string], ...], leading term first."""
    out = []
    for m, c in p.sorted_terms(weights):
        dense = [0] * nvars
        for i, e in m:
            dense[i] = e
        out.append([dense, p.base.coeff_str(c)])
    return out


def poly_from_json(base: BaseRing, data) -> Polynomial:
    """The inverse of ``poly_to_json``.  Exponents must be non-negative
    integers (a bool is not one) and no monomial may be listed twice;
    anything else raises ValueError."""
    terms = {}
    for dense, cs in data:
        if not all(type(e) is int and e >= 0 for e in dense):
            raise ValueError(f"exponents {dense!r} are not non-negative integers")
        m = tuple((i, e) for i, e in enumerate(dense) if e)
        if m in terms:
            raise ValueError(f"exponent vector {dense!r} repeats a monomial")
        terms[m] = base.coeff_from_str(cs)
    return Polynomial(base, terms)

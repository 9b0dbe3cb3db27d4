"""Symmetric polynomial utilities on explicitly indexed variables.

Variables are addressed by index ranges inside some ambient polynomial
context; weights are irrelevant here (all symmetric-function variables
have weight one).
"""

from __future__ import annotations

from itertools import combinations

from .coefficients import BaseRing
from .polynomials import Mono, Polynomial


class NotSymmetric(ValueError):
    """Input polynomial is not invariant under variable permutations."""


def elementary_symmetric(base: BaseRing, k: int, indices) -> Polynomial:
    """e_k over the given variable indices (e_0 = 1)."""
    indices = list(indices)
    if k < 0 or k > len(indices):
        return Polynomial.zero(base)
    if k == 0:
        return Polynomial.one(base)
    terms = {}
    for combo in combinations(indices, k):
        terms[tuple((i, 1) for i in sorted(combo))] = base.one()
    return Polynomial(base, terms, _clean=True)


def complete_homogeneous(base: BaseRing, k: int, indices) -> Polynomial:
    """h_k, the sum of all monomials of degree k in the given variables."""
    indices = sorted(indices)
    if k < 0 or (not indices and k > 0):
        return Polynomial.zero(base)
    if k == 0:
        return Polynomial.one(base)
    out: dict = {}

    def rec(pos: int, remaining: int, acc):
        if pos == len(indices) - 1:
            if remaining:
                acc.append((indices[pos], remaining))
                out[tuple(acc)] = base.one()
                acc.pop()
            else:
                out[tuple(acc)] = base.one()
            return
        for e in range(remaining, -1, -1):
            if e:
                acc.append((indices[pos], e))
                rec(pos + 1, remaining - e, acc)
                acc.pop()
            else:
                rec(pos + 1, remaining, acc)

    rec(0, k, [])
    return Polynomial(base, out, _clean=True)


def swap_variables(p: Polynomial, i: int, j: int) -> Polynomial:
    def sw(m: Mono) -> Mono:
        return tuple(sorted((j if v == i else i if v == j else v, e) for v, e in m))

    return p.map_monomials(sw)


def is_symmetric(p: Polynomial, n: int) -> bool:
    """Invariance under all permutations of variables 0..n-1.

    Adjacent transpositions generate the symmetric group, so checking
    them is equivalent to checking every transposition.
    """
    for i in range(n - 1):
        if swap_variables(p, i, i + 1) != p:
            return False
    return True


def elementary_symmetric_decompose(p: Polynomial, n: int) -> Polynomial:
    """Write a symmetric polynomial in variables 0..n-1 over e_1..e_n.

    The result uses variable index k-1 for e_k.  Classical leading-term
    subtraction: the graded-lex leading exponent (a_1 >= ... >= a_n) of
    a symmetric polynomial is matched by the e-monomial with exponents
    (a_1-a_2, ..., a_{n-1}-a_n, a_n), and the remainder is strictly
    smaller, so the loop terminates with the unique representation.
    """
    base = p.base
    if not is_symmetric(p, n):
        raise NotSymmetric(f"polynomial is not symmetric in {n} variables")
    weights = (1,) * n
    e_cache = {k: elementary_symmetric(base, k, range(n)) for k in range(1, n + 1)}
    out: dict = {}
    rest = p
    while not rest.is_zero():
        lm, lc = rest.leading(weights, n)
        dense = [0] * n
        for i, e in lm:
            dense[i] = e
        if any(dense[i] < dense[i + 1] for i in range(n - 1)):
            raise NotSymmetric("leading exponents not weakly decreasing; input not symmetric")
        exps = [dense[i] - dense[i + 1] for i in range(n - 1)] + [dense[n - 1]]
        e_mono = tuple((k, exps[k]) for k in range(n) if exps[k])
        out[e_mono] = base.add(out.get(e_mono, base.zero()), lc)
        expansion = Polynomial.one(base)
        for k in range(n):
            if exps[k]:
                expansion = expansion * e_cache[k + 1] ** exps[k]
        rest = rest - expansion.scale(lc)
    return Polynomial(base, out)

"""Symmetric-function helpers on explicitly indexed variables.

``complete_homogeneous`` builds h_k for the flag bundles' triangular
relations and ``swap_variables`` exchanges two variables for the group
law's commutativity check.  All variables have weight one here.  The
elementary symmetric decomposition is a test oracle, not library code.
"""

from __future__ import annotations

from .coefficients import BaseRing
from .polynomials import Mono, Polynomial


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

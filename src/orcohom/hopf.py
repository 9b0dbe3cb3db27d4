"""The Hopf algebra of the stable classifying space at a truncation.

The homology side is the symmetric algebra on one generator b_w per
weight w >= 1, with basis indexed by partitions and product given by
multiset union; level n of the filtration is spanned by partitions
with at most n parts.  The cohomology side is the power-series algebra
on the s-generators, with monomials indexed by the same partitions.
Its comultiplication is the Whitney sum formula
Delta(s_n) = sum_(i+j=n) s_i x s_j, multiplied out (Macdonald,
Symmetric Functions and Hall Polynomials, I.5).  The primitive of
weight w is the power sum p_w, read off from Newton's identity in
closed form; Delta is not consulted for it.  ``transition`` builds the
e-to-m matrix E by peeling one e_r at a time, and its inverse by the
unit-pivot ``field_rref``; only ``indecomposables`` reads it, for the
pairing of p_w with the generator b_w.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod

from .coefficients import ModularRing, NonDivisibleBase
from .intlinalg import field_rref
from .partitions import groups, merge, partitions
from .spaces import ClassifyingBGL, OrientedTheory, cohomology


@lru_cache(maxsize=None)
def _peels(w: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Entry [r][j] lists the (i, c) with c the coefficient of m_mu in e_r * m_lam,
    mu = partitions(w)[j], lam = partitions(w - r)[i]: lowering k_v of the
    parts of mu equal to v by one, sum k_v = r, sorts to lam, in
    prod C(mult_v(mu), k_v) ways; distinct k give distinct lam."""
    index = [{p: i for i, p in enumerate(partitions(v))} for v in range(w + 1)]
    table = [[[] for _ in partitions(w)] for _ in range(w + 1)]
    for j, mu in enumerate(partitions(w)):
        acc = [(0, (), 1)]  # (r, lam, c) over the k of the groups so far
        for v, m in groups(mu):
            # values fall by at least one per group, so lam stays sorted
            acc = [(r + k, lam + (v,) * (m - k) + (v - 1,) * (k if v > 1 else 0), c * comb(m, k))
                   for r, lam, c in acc for k in range(m + 1)]
        for r, lam, c in acc:
            table[r][j].append((index[w - r][lam], c))
    return tuple(tuple(map(tuple, row)) for row in table)


@lru_cache(maxsize=None)
def _e_row(nu: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of e^nu on the m_mu, mu over partitions(|nu|), from
    e^nu = e_(nu_1) * e^(nu[1:]); E[nu][mu] counts the 0-1 matrices with
    row sums nu and column sums mu (Macdonald, Symmetric Functions, I.6)."""
    if not nu:
        return (1,)
    prev = _e_row(nu[1:])
    return tuple([sum([c * prev[i] for i, c in t]) if t else 0 for t in _peels(sum(nu))[nu[0]]])


def _conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate partition: part i counts the parts of p larger than i."""
    return tuple(sum(1 for x in p if x > i) for i in range(p[0] if p else 0))


class HopfData:
    """Comultiplication data for the truncated cohomology of the stable
    classifying space, expressed on the s-monomial (partition) basis.
    Torsion coefficients are rejected."""

    def __init__(self, theory: OrientedTheory, truncation: int):
        if isinstance(theory.coefficients, ModularRing):
            raise ValueError("torsion coefficients are rejected for the Hopf layer")
        self.theory = theory
        self.truncation = int(truncation)
        self._trans: dict[int, tuple] = {}
        self._delta: dict[int, dict] = {}

    # -- transition between e-monomials and the dual partition basis -----

    def transition(self, w: int):
        """(partitions, E, Einv) with e^nu = sum_mu E[nu][mu] m_mu; the rows
        of E come from ``_e_row``, Einv from the unit-pivot ``field_rref``."""
        cached = self._trans.get(w)
        if cached is not None:
            return cached
        parts = partitions(w)
        k = len(parts)
        E = [list(_e_row(nu)) for nu in parts]
        # E[nu][mu] is nonzero only for mu <= nu' in dominance, and
        # E[nu][nu'] = 1 (Gale-Ryser; Macdonald, Symmetric Functions,
        # I.6).  Conjugation reverses dominance and the reverse-lex order
        # of `partitions` refines it, so with column j moved to the
        # conjugate of parts[j] the matrix is lower unitriangular: every
        # pivot is 1 and the inverse comes out over Z.
        index = {p: i for i, p in enumerate(parts)}
        conj = [index[_conjugate(p)] for p in parts]
        aug = [[row[conj[j]] for j in range(k)] + [int(j == i) for j in range(k)]
               for i, row in enumerate(E)]
        try:
            red, pivots = field_rref(aug)
        except NonDivisibleBase:
            raise ArithmeticError("transition matrix is not unimodular") from None
        if pivots != list(range(k)):
            raise ArithmeticError("transition matrix is singular")
        inv = [None] * k
        for j, row in enumerate(red):
            inv[conj[j]] = row[k:]
        data = (parts, E, inv)
        self._trans[w] = data
        return data

    def delta(self, w: int) -> dict:
        """Comultiplication on weight w: nu -> {(rho, sigma): coeff}, with rho
        and sigma partitions of complementary weights (() for a unit factor),
        from the Whitney formula Delta(s_n) = sum_(i+j=n) s_i x s_j, s_0 = 1,
        multiplied out over the parts of nu; no coefficient is zero."""
        if w not in self._delta:
            out = {}
            for nu in partitions(w):
                terms = {((), ()): 1}
                for n in nu:
                    nxt: dict = {}
                    for (a, b), c in terms.items():
                        for i in range(n + 1):
                            key = (merge(a, (i,)) if i else a, merge(b, (n - i,)) if i < n else b)
                            nxt[key] = nxt.get(key, 0) + c
                    terms = nxt
                out[nu] = terms
            self._delta[w] = out
        return self._delta[w]

    def sigma_label(self, nu: tuple[int, ...]) -> str:
        return "*".join(f"s{v}^{k}" if k > 1 else f"s{v}" for v, k in groups(nu[::-1])) or "1"


def build_hopf(theory: OrientedTheory, truncation: int = 8) -> HopfData:
    return HopfData(theory, truncation)


def primitives(hopf: HopfData, w: int) -> dict:
    """Basis of the primitive classes in weight w: the power sum p_w.

    Newton's identity writes p_w in the s-monomials, the elementary
    symmetric functions: the coordinate of s^lam is
    (-1)^(w - l) w (l - 1)! / prod_i m_i(lam)!, with l the length of lam
    and m_i(lam) its multiplicities (Macdonald, Symmetric Functions and
    Hall Polynomials, I (2.14')).  Over Q the primitives of weight w are
    the line through p_w; its s1^w coordinate is 1, so p_w is saturated
    and spans the primitives over Z and over every torsion-free base.
    """
    if not 1 <= w <= hopf.truncation:
        raise ValueError("weight out of range")
    parts = partitions(w)
    vector = [(-1) ** (w - len(lam)) * w * factorial(len(lam) - 1)
              // prod(factorial(m) for _, m in groups(lam)) for lam in parts]
    label = " + ".join(f"{c}*{hopf.sigma_label(nu)}" for c, nu in zip(vector, parts))
    return {"weight": w, "rank": 1, "basis": [vector],
            "monomials": [list(p) for p in parts], "pretty": [label]}


def indecomposables(hopf: HopfData, w: int) -> dict:
    """Basis of I/I^2 in weight w with the duality check against primitives.

    A partition with two or more parts is the product of its first part
    and the rest, so I^2 is spanned by those p(w) - 1 partitions and
    I/I^2 by the one-part partition (w), as for any polynomial algebra
    (Milnor-Moore, Ann. of Math. 81, 1965, section 3).  What is computed
    is the pairing of the primitives with (w), which should be
    unimodular.
    """
    if not 1 <= w <= hopf.truncation:
        raise ValueError("weight out of range")
    parts, E, _ = hopf.transition(w)
    # parts[0] is (w); the pairing reads the m_(w) coordinate of the primitive
    (p,) = primitives(hopf, w)["basis"]
    det = sum(c * row[0] for c, row in zip(p, E))
    return {
        "weight": w,
        "rank": 1,
        "basis": [[w]],
        "squares_rank": len(parts) - 1,
        "pairing_determinant": det,
        "pairing_unimodular": det in (1, -1),
    }


def additive_maps_identification(hopf: HopfData) -> dict:
    """Match primitives with the weight pieces of the rank-one classifying
    space under the restriction s1 -> l, s_i -> 0 for i >= 2.

    The primitive p_w has s1^w coordinate 1 (``primitives``), so it
    restricts to l^w, a generator; what is computed is the rank of the
    line side in each weight, which must be 1, together with the extra
    rank-one weight-zero summand coming from the group-completion factor.
    """
    D = hopf.truncation
    line = cohomology(hopf.theory, ClassifyingBGL(1), D)
    per_weight = [{"weight": w, "line_rank": line.graded_basis(w).free_rank}
                  for w in range(1, D + 1)]
    return {
        "truncation": D,
        "per_weight": per_weight,
        "weight_zero_extra_rank": 1,
        "ok": all(e["line_rank"] == 1 for e in per_weight),
    }

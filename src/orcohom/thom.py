"""Filtration quotients of the stable classifying space and their
multiplicative bookkeeping.

The n-th piece is the span of partitions with exactly n parts (the
associated graded of the level filtration on the symmetric algebra);
its weight-n slice is one dimensional, spanned by the canonical class
on the all-ones partition, which plays the role of the degree-zero
universal class of the rank-n quotient.
"""

from __future__ import annotations

from .coefficients import ModularRing
from .hopf import HopfData
from .partitions import merge, partitions_exact_parts, sub_partition_splits
from .spaces import POINT, ClassifyingBGL, OrientedTheory, cohomology


class ThomDecomposition:
    def __init__(self, truncation: int):
        self.truncation = int(truncation)

    def piece_basis(self, n: int, w: int):
        return partitions_exact_parts(w, n)

    def piece_rank(self, n: int, w: int) -> int:
        return len(self.piece_basis(n, w))

    def thom_class(self, n: int) -> tuple[int, ...]:
        """The canonical generator of the weight-n slice of the n-th piece."""
        return (1,) * n

    def rank_table(self):
        out = []
        for w in range(self.truncation + 1):
            row = [self.piece_rank(n, w) for n in range(w + 1)]
            out.append({"weight": w, "piece_ranks": row, "total": sum(row)})
        return out


def thom_decompose(source: HopfData | OrientedTheory,
                   truncation: int = 8) -> ThomDecomposition:
    """Build the decomposition of the algebra underlying ``source``.

    The pieces are the partitions of each weight grouped by their number
    of parts, so their ranks sum to p(w) by construction; nothing is
    checked here.  HopfData brings its own truncation and has rejected
    torsion coefficients already.
    """
    if isinstance(source, HopfData):
        truncation = source.truncation
    elif isinstance(source, OrientedTheory):
        if isinstance(source.coefficients, ModularRing):
            raise ValueError("torsion coefficients are rejected for the Hopf layer")
    else:
        raise TypeError("expected HopfData or OrientedTheory")
    return ThomDecomposition(truncation)


def thom_product_check(dec: ThomDecomposition, p: int, q: int) -> dict:
    """Multiplicativity of the graded product on pieces p and q.

    Two routes meet: the product (multiset union) of each exactly-p-part
    class with each exactly-q-part class, and the transposed
    comultiplication block read off the split enumeration of the
    exactly-(p+q)-part classes.  ``commuting_square`` says the two give
    the same entries in every pair of weights; ``thom_class_multiplicative``
    says the split route takes the canonical class of piece p+q to the
    pair of canonical classes of pieces p and q.
    """
    D = dec.truncation
    if p < 0 or q < 0 or p + q > D:
        raise ValueError("need p, q >= 0 with p + q within the truncation")
    square_ok = True
    for total in range(p + q, D + 1):
        # the split route: split each class once into p and q parts, by left weight
        splits: dict[int, set] = {}
        for mu in dec.piece_basis(p + q, total):
            for alpha, beta in sub_partition_splits(mu, p):
                splits.setdefault(sum(alpha), set()).add((alpha, beta, mu))
        for wa in range(p, total - q + 1):
            pa = set(dec.piece_basis(p, wa))
            pb = set(dec.piece_basis(q, total - wa))
            product_entries = {(a, b, merge(a, b)) for a in pa for b in pb}
            coproduct_entries = {e for e in splits.get(wa, ()) if e[0] in pa and e[1] in pb}
            if product_entries != coproduct_entries:
                square_ok = False
    theta = (dec.thom_class(p), dec.thom_class(q)) in sub_partition_splits(dec.thom_class(p + q))
    return {
        "p": p,
        "q": q,
        "truncation": D,
        "thom_class_multiplicative": theta,
        "commuting_square": square_ok,
        "ok": square_ok and theta,
    }


def thom_iso_check(theory: OrientedTheory, n: int, truncation: int = 8) -> dict:
    """Degree-shift module comparison for the rank-n piece.

    The rank of the n-th piece in weight w must equal the rank of the
    rank-n classifying ring (the point for n = 0) in weight w - n; both
    sides are computed by independent routes (partition enumeration
    against the presented ring's graded bases).
    """
    if n < 0 or n > 3:
        raise ValueError("piece index supported for 0 <= n <= 3")
    D = truncation
    dec = thom_decompose(theory, D)
    bgl = cohomology(theory, ClassifyingBGL(n) if n else POINT, D)
    per_weight = []
    ok = True
    for w in range(D + 1):
        lhs = dec.piece_rank(n, w)
        rhs = bgl.graded_basis(w - n).free_rank if w >= n else 0
        good = lhs == rhs
        ok = ok and good
        per_weight.append({"weight": w, "piece_rank": lhs, "shifted_rank": rhs, "ok": good})
    return {"n": n, "truncation": D, "per_weight": per_weight, "ok": ok}

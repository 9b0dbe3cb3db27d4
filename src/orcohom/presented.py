"""Finitely presented graded rings with truncation and their maps.

A :class:`PresentedRing` is a polynomial ring on weighted generators
modulo a list of weight-homogeneous relations, with all arithmetic
performed modulo the ideal of terms of total weight larger than the
truncation bound D.  Power-series rings are modelled by truncation, so
"the weight-w piece" is always a finitely generated module over the
coefficient domain.

Normal forms and graded pieces come from one of two route objects,
chosen once by the relations alone: :class:`Rewrite` when leading-term
rewriting by the relations is confluent, and :class:`Degreewise`, which
is exact for any homogeneous relation list, otherwise.  Both produce
idempotent normal forms supported on the standard monomials of each
weight, which the route's ``piece`` lists as the basis.
"""

from __future__ import annotations

import json
import math
from functools import partial

from .coefficients import BaseRing, IntegerRing, LaurentRing, ModularRing, RationalRing
from .intlinalg import FPModule, NonConfluentPresentation
from .polynomials import (
    Mono,
    ONE_MONO,
    Polynomial,
    accumulate,
    mono_div,
    mono_divides,
    mono_mul,
    mono_weight,
    poly_from_json,
    poly_to_json,
    settled,
    weighted,
)


class IllDefinedMap(ValueError):
    """A ring map fails to send some relation to zero."""


class GradedPiece:
    """Weight-w slice of a presented ring.

    Plain data, cached by the ring: ``basis`` lists the standard
    monomials of the ring's route, with the piece's free rank and
    torsion over the base; no ambient list is kept.
    """

    def __init__(self, weight: int, basis, free_rank, torsion):
        self.weight = weight
        self.basis = basis
        self.free_rank = free_rank
        self.torsion = torsion

    def __repr__(self):
        return f"GradedPiece(w={self.weight}, rank={self.free_rank}, torsion={self.torsion})"


class PresentedRing:
    """Graded quotient ring, truncated at total weight D.

    variables is an ordered list of (name, positive weight); relations
    are weight-homogeneous polynomials in those variables.  The route
    object ``reduction`` (see the module docstring) depends on the
    relations only, so a ring rebuilt from its relations reduces the
    same way; a presentation that should rewrite states relations that
    rewrite, as the flag bundles' triangular ones do.

    Instances are immutable after construction and all operations are
    pure; the piece cache here and the route's caches are internal
    memoization whose entries are value-identical however the race
    resolves, so concurrent use is safe.
    """

    def __init__(self, base: BaseRing, variables, relations=(), truncation: int = 8):
        if truncation < 1:
            raise ValueError("truncation bound must be positive")
        self.base = base
        self.variables = tuple((str(n), int(w)) for n, w in variables)
        if any(w < 1 for _, w in self.variables):
            raise ValueError("variable weights must be positive")
        names = [n for n, _ in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.weights = tuple(w for _, w in self.variables)
        self.names = tuple(names)
        self.truncation = int(truncation)
        self.relations = tuple(r for r in relations if not r.is_zero())
        for r in self.relations:
            self._validate_element(r)
        relation_weights = [self.homogeneous_weight(r) for r in self.relations]
        if None in relation_weights:
            raise ValueError("relations must be weight-homogeneous")
        if 0 in relation_weights:
            raise ValueError("weight-0 relations are not supported")
        self._pieces: dict[int, GradedPiece] = {}
        self._mono_cache: dict[int, list[Mono]] = {}
        self.reduction = Rewrite.of(self) or Degreewise()

    @property
    def route(self) -> str:
        return self.reduction.name

    # ------------------------------------------------------------------
    # construction helpers

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var(self, name_or_index) -> Polynomial:
        if isinstance(name_or_index, int):
            return Polynomial.variable(self.base, name_or_index)
        if name_or_index not in self.names:
            raise ValueError(f"unknown generator {name_or_index!r}; the ring's generators are "
                             f"{', '.join(self.names) or 'none'}")
        return Polynomial.variable(self.base, self.names.index(name_or_index))

    def one_poly(self) -> Polynomial:
        return Polynomial.one(self.base)

    def _validate_element(self, p: Polynomial):
        if p.base is not self.base and p.base != self.base:
            raise ValueError("polynomial coefficients lie outside the ring base")
        n = len(self.variables)
        for m in p.terms:
            for i, _ in m:
                if not 0 <= i < n:
                    raise ValueError(f"variable index {i} outside ring with {n} generators")

    def mono_weight(self, m: Mono) -> int:
        return mono_weight(m, self.weights)

    def homogeneous_weight(self, p: Polynomial):
        """Common weight of all terms, or None if mixed; zero poly gives 0."""
        w = None
        for m in p.terms:
            mw = self.mono_weight(m)
            if w is None:
                w = mw
            elif w != mw:
                return None
        return 0 if w is None else w

    def monomials_of_weight(self, w: int) -> list[Mono]:
        """All monomials of total weight w, descending graded-lex."""
        cached = self._mono_cache.get(w)
        if cached is None:
            cached = self._mono_cache[w] = self._monomials(w)
        return cached

    def _monomials(self, w: int, leading=()) -> list[Mono]:
        """Monomials of weight w, descending graded-lex, that no ``leading`` divides.

        At variable i the exponents of 0..i-1 are final, so a leading
        monomial x^a * x_i^f with highest variable i cuts exponents >= f
        exactly when x^a divides the prefix.
        """
        out: list[Mono] = []
        nvars = self.nvars
        by_top: list[list] = [[] for _ in range(nvars)]
        for lm in leading:
            by_top[lm[-1][0]].append((lm[:-1], lm[-1][1]))
        spec = list(zip(self.weights, by_top))

        # rec refers to itself, a cycle that must not hold the ring
        def rec(i: int, remaining: int, acc):
            if remaining == 0:
                out.append(tuple(acc))
                return
            if i == nvars:
                return
            wi, cuts = spec[i]
            top = remaining // wi
            if cuts:
                for low, f in cuts:
                    if f <= top and mono_divides(low, acc):
                        top = f - 1
            for e in range(top, -1, -1):
                if e:
                    acc.append((i, e))
                    rec(i + 1, remaining - e * wi, acc)
                    acc.pop()
                else:
                    rec(i + 1, remaining, acc)

        rec(0, w, [])
        return out

    # ------------------------------------------------------------------
    # public operations

    def truncate(self, p: Polynomial) -> Polynomial:
        kept = {m: c for m, c in p.terms.items() if self.mono_weight(m) <= self.truncation}
        return Polynomial(self.base, kept, _clean=True)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Unique reduced representative of p modulo relations and truncation."""
        self._validate_element(p)
        return self._reduce(self.truncate(p))

    def _reduce(self, p: Polynomial) -> Polynomial:
        """Normal form of p, which has no term above D."""
        return self.reduction.reduce(self, p)

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """normal_form(a * b), without forming the terms of weight above D.

        Exact because the relations are weight-homogeneous, so reducing
        never moves a term across weights.  The product's variables
        are those of a and b, so validating them covers it.
        """
        self._validate_element(a)
        self._validate_element(b)
        return self._reduce(a.product(b, self.weights, self.truncation))

    def graded_basis(self, w: int) -> GradedPiece:
        """Standard-monomial basis and rank data of the weight-w piece."""
        if not 0 <= w <= self.truncation:
            raise ValueError(f"weight {w} outside 0..{self.truncation}")
        piece = self._pieces.get(w)
        if piece is None:
            piece = self._pieces[w] = GradedPiece(w, *self.reduction.piece(self, w))
        return piece

    def graded_ranks(self, upto: int | None = None) -> list[int]:
        upto = self.truncation if upto is None else upto
        return [self.graded_basis(w).free_rank for w in range(upto + 1)]

    def total_rank(self, upto: int | None = None) -> int:
        return sum(self.graded_ranks(upto))

    def is_degreewise_free(self, upto: int | None = None) -> bool:
        upto = self.truncation if upto is None else upto
        return all(not self.graded_basis(w).torsion for w in range(upto + 1))

    def poly_str(self, p: Polynomial) -> str:
        return p.to_str(self.names)

    def __eq__(self, other):
        if not isinstance(other, PresentedRing):
            return NotImplemented
        return (self.base == other.base and self.variables == other.variables
                and self.truncation == other.truncation
                and list(self.relations) == list(other.relations))

    def __hash__(self):
        return hash((self.base, self.variables, self.truncation, len(self.relations)))

    def __repr__(self):
        vs = ",".join(n for n, _ in self.variables)
        return f"PresentedRing({self.base!r}[{vs}]/{len(self.relations)} rels, D={self.truncation})"


class Rewrite:
    """Reduction by confluent leading-term rewriting.

    Used when the relations have unit leading coefficients and pairwise
    coprime leading monomials (or are pure monomials): every S-pair then
    reduces to zero (Buchberger's first criterion), so rewriting to a
    fixpoint is confluent.  Normal forms come from memoized monomial
    reduction, and the standard monomials, those no leading monomial
    divides, are a free basis of each weight (Macaulay's basis theorem),
    listed directly by the ring's pruned monomial recursion.  A rule keeps
    a monomial's weight, so no term above D ever appears.
    """

    name = "rewrite"

    def __init__(self, rules):
        self.rules = rules
        self.leading = [lm for lm, _ in rules]
        self._nf: dict[Mono, Polynomial] = {}

    @classmethod
    def of(cls, ring: PresentedRing) -> Rewrite | None:
        """The route with rules (lm, minus_inv_tail) for ring's relations, or None if not confluent."""
        base, rules = ring.base, []
        seen: list[tuple[set[int], bool]] = []
        for r in ring.relations:
            lm, lc = r.leading(ring.weights)
            if not base.is_unit(lc):
                return None
            support = {i for i, _ in lm}
            is_monomial = len(r.terms) == 1
            # S-pairs vanish for coprime leading monomials and for pairs
            # of pure monomial relations; anything else is rejected here
            for other_support, other_mono in seen:
                if support & other_support and not (is_monomial and other_mono):
                    return None
            seen.append((support, is_monomial))
            inv = base.inv_unit(base.neg(lc))
            tail = Polynomial(base, {m: c for m, c in r.terms.items() if m != lm})
            rules.append((lm, tail.scale(inv)))
        return cls(tuple(rules))

    def _monomial(self, base: BaseRing, m: Mono) -> Polynomial:
        """Normal form of a single monomial, memoized.

        Iterative so that long reduction chains never hit the Python
        recursion limit; dependencies are strictly smaller monomials in
        graded-lex, so the work stack cannot cycle.
        """
        cache = self._nf
        got = cache.get(m)
        if got is not None:
            return got
        stack = [m]
        while stack:
            cur = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            hit = None
            for lm, tail in self.rules:
                if mono_divides(lm, cur):
                    hit = (lm, tail)
                    break
            if hit is None:
                cache[cur] = Polynomial(base, {cur: base.one()}, _clean=True)
                stack.pop()
                continue
            lm, tail = hit
            q = mono_div(cur, lm)
            expanded = [(mono_mul(mm, q), c) for mm, c in tail.terms.items()]
            missing = [mq for mq, _ in expanded if mq not in cache]
            if missing:
                stack.extend(missing)
                continue
            fma, acc = base.fma, {}
            for mq, c in expanded:
                for mm, v in cache[mq].terms.items():
                    acc[mm] = fma(acc.get(mm), c, v)
            cache[cur] = settled(base, acc)
            stack.pop()
        return cache[m]

    def reduce(self, ring: PresentedRing, p: Polynomial) -> Polynomial:
        """Normal form of p, which has no term above D."""
        if not self.rules:
            return p
        base = ring.base
        fma, acc = base.fma, {}
        for m, c in p.terms.items():
            for mm, v in self._monomial(base, m).terms.items():
                acc[mm] = fma(acc.get(mm), c, v)
        return settled(base, acc)

    def piece(self, ring: PresentedRing, w: int):
        """(standard monomials, free rank, torsion) of the weight-w piece."""
        basis = ring._monomials(w, self.leading) if self.leading else ring.monomials_of_weight(w)
        return basis, len(basis), []


class Degreewise:
    """Reduction one weight at a time against the relation module.

    Exact for any homogeneous relation list.  The weight-w piece is an
    ``intlinalg.FPModule`` on the ambient monomials (see ``reducer``),
    whose ``reduce`` gives the normal form.  The standard monomials are
    the columns whose pivot is zero in the base: the non-pivot columns
    over Z and Q, the columns with pivot n over Z/n.  A pivot neither a
    unit nor zero in the base (among the Grassmannians first at Gr(4,7)
    in weight 8; Gr(4,8) has a pivot 2 in weight 11, over Z and over Z/n
    for even n) is the exception: a multiple of its monomial lies in the
    relation span but the monomial does not, so a normal form can keep a
    monomial that the basis omits.
    """

    name = "degreewise"

    def __init__(self):
        self._reducers: dict[int, tuple] = {}

    @staticmethod
    def _as_integers(base: BaseRing, coeffs: list) -> list[int] | None:
        """Integer entries for a row of base coefficients, or None if one has none.

        A row may be scaled by a unit of the base, which keeps its span:
        over Q by the lcm of its denominators, over Z[b, b^-1] by b^-k
        when every nonzero entry is an integer multiple of b^k.
        """
        if isinstance(base, RationalRing):
            d = math.lcm(*(c.denominator for c in coeffs))
            return [int(c * d) for c in coeffs]
        if isinstance(base, LaurentRing):
            shifts = {e for c in coeffs for e in c}
            if len(shifts) == 1:
                k = shifts.pop()
                coeffs = [{e - k: v for e, v in c.items()} for c in coeffs]
        ints = [base.as_int(c) for c in coeffs]
        return None if None in ints else ints

    def reducer(self, ring: PresentedRing, w: int):
        """Cached (ambient, index, module) in weight w: the relation rows,
        whose span maps onto the span of the relations, followed over Z/n
        by n times each unit vector."""
        cached = self._reducers.get(w)
        if cached is not None:
            return cached
        ambient = ring.monomials_of_weight(w)
        index = {m: j for j, m in enumerate(ambient)}
        rows = []
        for rel in ring.relations:
            # relations are homogeneous, so any term gives the weight
            mults = ring.monomials_of_weight(w - ring.mono_weight(next(iter(rel.terms))))
            if not mults:
                continue
            ints = self._as_integers(ring.base, list(rel.terms.values()))
            if ints is None:
                raise NonConfluentPresentation(
                    "degreewise reduction over this base needs integer relation coefficients")
            terms = list(zip(rel.terms, ints))
            for mult in mults:
                row = [0] * len(ambient)
                for m, c in terms:
                    row[index[mono_mul(m, mult)]] = c
                rows.append(row)
        if isinstance(ring.base, ModularRing):
            rows += FPModule.modular(ring.base.n, len(ambient)).relations
        cached = self._reducers[w] = (ambient, index, FPModule(len(ambient), rows))
        return cached

    def reduce(self, ring: PresentedRing, p: Polynomial) -> Polynomial:
        """Canonical reduction of each weight's terms of p, which has none above D."""
        base = ring.base
        by_weight: dict[int, dict] = {}
        for m, c in p.terms.items():
            by_weight.setdefault(ring.mono_weight(m), {})[m] = c
        out: dict = {}
        for w, vec in by_weight.items():
            ambient, index, module = self.reducer(ring, w)
            v = [base.zero()] * len(ambient)
            for m, c in vec.items():
                v[index[m]] = c
            _, r = module.reduce(v, base)
            out.update({m: c for m, c in zip(ambient, r) if not base.is_zero(c)})
        return Polynomial(base, out, _clean=True)

    def piece(self, ring: PresentedRing, w: int):
        """(standard monomials, free rank, torsion) of the weight-w piece."""
        ambient, _, module = self.reducer(ring, w)
        basis = [ambient[j] for j in module.standard_columns(ring.base)]
        return (basis, *module.rank_torsion(ring.base))


def scalar_ring(base: BaseRing, truncation: int = 8) -> PresentedRing:
    """The coefficient ring itself, viewed as a presented ring without generators."""
    return PresentedRing(base, [], [], truncation)


class QuotientCoefficients(BaseRing):
    """Classes of a presented ring used as scalars for another ring.

    Elements are polynomials of the inner ring kept in normal form;
    this is how rings over the universal coefficients Z[b_1..b_D] (a
    relation-free inner ring, see ``fgl.universal_law``) are expressed.
    """

    kind = "PresentedQuotient"

    def __init__(self, ring: PresentedRing):
        self.ring = ring

    def zero(self):
        return Polynomial.zero(self.ring.base)

    def from_int(self, n):
        return Polynomial.constant(self.ring.base, self.ring.base.from_int(n))

    def from_poly(self, p: Polynomial):
        return self.ring.normal_form(p)

    def add(self, a, b):
        # a sum of normal forms needs reducing (a non-unit pivot can
        # overflow) but not validating
        return self.ring._reduce(a + b)

    def neg(self, a):
        return -a

    def fma(self, acc, a, b):
        # raw truncated products of ring elements: ``accumulate`` on constant terms
        return self.accumulate({} if acc is None else {(): acc}, {(): a}, {(): b}).get((), {})

    def accumulate(self, acc, a, b, weights=None, bound=None):
        # ``fma`` on each coefficient's inner terms, listed once per product
        ring = self.ring
        left, right = ([(m, w, weighted(c.terms, ring.weights)) for m, w, c in weighted(t, weights)]
                       for t in (a, b))
        inner = partial(accumulate, fma=ring.base.fma, bound=ring.truncation)
        return accumulate(acc, left, right, inner, bound)

    def settle(self, acc):
        # normal forms are linear, so the whole sum is reduced once
        return self.ring._reduce(settled(self.ring.base, acc))

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return a.is_constant() and self.ring.base.is_unit(a.constant_term())

    def inv_unit(self, a):
        if not a.is_constant():
            raise self.not_invertible(a)
        return Polynomial.constant(self.ring.base, self.ring.base.inv_unit(a.constant_term()))

    def divide_by_int(self, a, n):
        inner = self.ring.base
        return self.from_poly(Polynomial(inner, {m: inner.divide_by_int(c, n) for m, c in a.terms.items()}))

    def as_int(self, a):
        if a.is_zero():
            return 0
        if a.is_constant():
            return self.ring.base.as_int(a.constant_term())
        return None

    def coeff_str(self, a):
        return json.dumps(poly_to_json(a, self.ring.weights, self.ring.nvars), separators=(",", ":"))

    def coeff_from_str(self, s):
        """The normal form of a coefficient written as its JSON term list."""
        n = self.ring.nvars
        try:
            data = json.loads(s)
            if not all(len(d) <= n and isinstance(c, str) for d, c in data):
                raise ValueError
            p = poly_from_json(self.ring.base, data)
        except (TypeError, ValueError):
            raise ValueError(f"coefficient {s!r} is not a term list [[exponents, \"coefficient\"], ...] "
                             f"with at most {n} exponents per term") from None
        return self.from_poly(p)

    def __repr__(self):
        return f"Quotient({self.ring!r})"


def compose(target: PresentedRing, p: Polynomial, images, source_base: BaseRing) -> Polynomial:
    """Evaluate p at the given generator images inside the target ring.

    Coefficients are carried over identically when the bases agree and
    through the canonical map when the source base is the integers.  Each
    used image is validated once.  Terms are grouped by their first (i, e)
    factor, recursively (Horner), so a group costs one product, image_i^e
    from a per-call table built by image_i^e = image_i^(e-1) * image_i,
    times the value of the rest.  A level sums its groups in one chain per
    output monomial (the base's ``accumulate``), settled and reduced once.
    """
    tb = target.base
    if source_base == tb:
        coerce = lambda c: c
    elif isinstance(source_base, IntegerRing):
        coerce = tb.from_int
    else:
        raise ValueError("coefficient bases are incompatible for substitution")
    used = sorted(p.variables())
    for i in used:
        target._validate_element(images[i])
    weights, D = target.weights, target.truncation
    one = target.one_poly()
    powers = {i: [one] for i in used}

    def power(i: int, e: int) -> Polynomial:
        table = powers[i]
        while len(table) <= e:
            table.append(target._reduce(table[-1].product(images[i], weights, D)))
        return table[e]

    def evaluate(terms) -> Polynomial:
        acc, groups = {}, {}
        for m, c in terms:
            if m:
                groups.setdefault(m[0], []).append((m[1:], c))
            else:
                acc[ONE_MONO] = tb.fma(None, tb.one(), coerce(c))
        for (i, e), rest in groups.items():
            if not (pw := power(i, e)).is_zero():
                tb.accumulate(acc, pw.terms, evaluate(rest).terms, weights, D)
        return target._reduce(settled(tb, acc))

    return evaluate(p.terms.items())


class RingMap:
    """Map between presented rings given by generator images.

    Images must be constants (the periodicity unit absorbs any weight
    bookkeeping for scalars) or homogeneous of the generator's weight.
    Well-definedness, meaning every source relation maps to zero, is
    checked on demand and cached.
    """

    def __init__(self, source: PresentedRing, target: PresentedRing, images):
        self.source = source
        self.target = target
        self.images = tuple(target.normal_form(im) for im in images)
        if len(self.images) != source.nvars:
            raise ValueError("one image per source generator required")
        for (name, w), im in zip(source.variables, self.images):
            if im.is_constant():
                continue
            hw = target.homogeneous_weight(im)
            if hw != w:
                raise ValueError(f"image of {name} must be homogeneous of weight {w}")
        self._well_defined: bool | None = None

    def check_well_defined(self) -> None:
        if self._well_defined is True:
            return
        for k, rel in enumerate(self.source.relations):
            image = compose(self.target, rel, self.images, self.source.base)
            if not image.is_zero():
                self._well_defined = False
                raise IllDefinedMap(
                    f"relation #{k} ({self.source.poly_str(rel)}) maps to a nonzero class")
        self._well_defined = True

    def apply(self, p: Polynomial) -> Polynomial:
        self.check_well_defined()
        self.source._validate_element(p)
        return compose(self.target, p, self.images, self.source.base)

    # -- per-weight comparison ------------------------------------------------

    def check_onto(self) -> None:
        """Prove the map onto in every weight, or raise ValueError.

        Each target generator whose normal form is nonzero must have that
        normal form among the images.  Normal forms, not the generators,
        are compared because a relation can rewrite a generator, as a
        flag ring's l1 -> -(l2 + ... + ln) and the point's l -> 0 do.
        The image is then a subring containing every generator.
        """
        target = self.target
        for j, name in enumerate(target.names):
            g = target.normal_form(target.var(j))
            if not g.is_zero() and g not in self.images:
                raise ValueError(f"generator {name} of the target is not an image, so the map "
                                 "is not known to be onto")

    def is_graded_isomorphism(self):
        """Per-weight bijectivity of the induced map, with a report.

        The map must be well defined and onto by ``check_onto``.  A
        surjection between isomorphic finitely generated modules is an
        isomorphism, so a weight is bijective exactly when its two
        pieces agree in free rank and torsion.  That holds over Z/n with
        n composite too: every Smith invariant of a piece divides n, so
        equal free rank and torsion make the two pieces finite of one
        size.  This is the one proof behind the isomorphism verdicts of
        ``restriction --iso`` and ``verify_conner_floyd``.
        """
        self.check_well_defined()
        if self.source.truncation != self.target.truncation:
            raise ValueError("source and target must share a truncation bound")
        self.check_onto()
        target = self.target
        report = []
        for w in range(self.source.truncation + 1):
            ps = self.source.graded_basis(w)
            pt = target.graded_basis(w)
            entry = {"weight": w, "source_rank": ps.free_rank, "target_rank": pt.free_rank,
                     "source_torsion": ps.torsion, "target_torsion": pt.torsion,
                     "ok": (ps.free_rank, ps.torsion) == (pt.free_rank, pt.torsion)}
            if not entry["ok"]:
                entry["note"] = "rank or torsion mismatch"
            report.append(entry)
        return all(e["ok"] for e in report), report

import json
import random
from fractions import Fraction

import pytest

from orcohom.coefficients import ModularRing, QQ, ZZ, laurent_over
from orcohom.polynomials import Polynomial, mono_mul
from orcohom.presented import (
    Degreewise,
    IllDefinedMap,
    NonConfluentPresentation,
    PresentedRing,
    QuotientCoefficients,
    RingMap,
    compose,
    scalar_ring,
)
from orcohom.serialize import canonical_dumps, poly_to_json

from oracles import (
    compose_termwise,
    field_rref_over,
    flag_relation_certificate,
    in_relation_ideal,
    int_poly,
    integer_span_contains,
    partitions_in_box,
    standard_monomials,
    surjective_by_lattice,
    torsion_via_minor_gcd,
)


def P(d):
    return int_poly(ZZ, d)


def truncated_power_ring(n, D=4):
    return PresentedRing(ZZ, [("l", 1)], [P({((0, n + 1),): 1})], D)


def grassmannian_ring(D=8):
    rels = [
        P({((0, 1),): 1, ((2, 1),): 1}),
        P({((1, 1),): 1, ((0, 1), (2, 1)): 1, ((3, 1),): 1}),
        P({((1, 1), (2, 1)): 1, ((0, 1), (3, 1)): 1}),
        P({((1, 1), (3, 1)): 1}),
    ]
    return PresentedRing(ZZ, [("s1", 1), ("s2", 2), ("t1", 1), ("t2", 2)], rels, D)


def test_normal_form_power_ring():
    R = truncated_power_ring(2, D=4)
    l = R.var("l")
    sq = R.mul(R.one_poly() + l, R.one_poly() + l)
    assert sq == P({(): 1, ((0, 1),): 2, ((0, 2),): 1})
    assert R.normal_form(Polynomial.variable(ZZ, 0, 5)).is_zero()


def test_normal_form_grassmannian_example():
    R = grassmannian_ring()
    x = P({((0, 1), (2, 1)): 1, ((1, 1),): 1, ((3, 1),): 1})
    assert R.normal_form(x).is_zero()
    # independent oracle: the vector lies in the integer span of the
    # weight-2 relation multiples
    ambient = R.monomials_of_weight(2)
    index = {m: i for i, m in enumerate(ambient)}
    rows = []
    for rel in R.relations:
        w = R.homogeneous_weight(rel)
        if w > 2:
            continue
        for mult in R.monomials_of_weight(2 - w):
            row = [0] * len(ambient)
            for m, c in rel.terms.items():
                from orcohom.polynomials import mono_mul
                row[index[mono_mul(m, mult)]] += int(c)
            rows.append(row)
    vec = [0] * len(ambient)
    for m, c in x.terms.items():
        vec[index[m]] = int(c)
    assert integer_span_contains(rows, vec)


def test_normal_form_idempotent_and_multiplicative():
    rng = random.Random(99)
    R = grassmannian_ring(D=6)
    monos = [m for w in range(4) for m in R.monomials_of_weight(w)]
    for _ in range(25):
        a = Polynomial(ZZ, {rng.choice(monos): rng.randint(-4, 4) for _ in range(3)})
        b = Polynomial(ZZ, {rng.choice(monos): rng.randint(-4, 4) for _ in range(3)})
        nfa = R.normal_form(a)
        assert R.normal_form(nfa) == nfa
        lhs = R.normal_form(a * b)
        rhs = R.normal_form(R.normal_form(a) * R.normal_form(b))
        assert lhs == rhs


def test_graded_basis_power_rings():
    R = truncated_power_ring(2, D=4)
    bases = [R.graded_basis(w).basis for w in range(3)]
    assert bases == [[()], [((0, 1),)], [((0, 2),)]]
    for n in range(0, 9):
        ring = PresentedRing(ZZ, [("l", 1)], [P({((0, n + 1),): 1})], max(8, n + 1))
        assert ring.total_rank() == n + 1


def test_graded_basis_flag_and_grassmannian():
    flag2 = PresentedRing(ZZ, [("l1", 1), ("l2", 1)],
                          [P({((0, 1),): 1, ((1, 1),): 1}), P({((0, 1), (1, 1)): 1})], 4)
    assert flag2.total_rank() == 2
    assert flag2.graded_ranks(1) == [1, 1]
    G = grassmannian_ring()
    assert G.total_rank() == 6
    assert G.graded_ranks(4) == [partitions_in_box(2, 2, s) for s in range(5)]


def _rewrite_ring(name):
    from orcohom.spaces import (ClassifyingBGL, FlagBundle, Product, ProjectiveBundle,
                                ProjectiveSpace, additive_theory, cohomology)

    th = additive_theory(ZZ, 15)
    if name.startswith("Flag"):
        n = int(name[4:])
        return cohomology(th, FlagBundle(n), n * (n - 1) // 2)
    if name == "P4-Z4":
        return cohomology(additive_theory(ModularRing(4), 8), ProjectiveSpace(4), 8)
    if name == "mixed":
        # a*b rewrites to d; c*d and d^2 are overlapping pure monomials
        a, b, c, d = (P({((i, 1),): 1}) for i in range(4))
        return PresentedRing(ZZ, [("a", 1), ("b", 2), ("c", 1), ("d", 3)],
                             [a * b - d, c * d, d * d], 10)
    l = Polynomial.variable(ZZ, 0)
    p2 = cohomology(th, ProjectiveSpace(2), 6)
    chern = [l.scale(3), (l * l).scale(2)]
    space = {"P3-Z": ProjectiveSpace(3), "BGL": ClassifyingBGL(None),
             "P(V)-over-P2": ProjectiveBundle(3, chern, p2), "F2-over-P2": FlagBundle(2, chern, p2),
             "P2xFlag3": Product(ProjectiveSpace(2), FlagBundle(3))}[name]
    return cohomology(th, space, 6)


REWRITE_NAMES = ["P3-Z", "P4-Z4", "Flag2", "Flag3", "Flag4", "Flag5", "Flag6",
                 "P(V)-over-P2", "F2-over-P2", "P2xFlag3", "BGL", "mixed"]


@pytest.mark.parametrize("name", REWRITE_NAMES)
def test_rewrite_basis_lists_the_standard_monomials(name):
    # the pruned enumeration gives, in order, what filtering the ambient
    # monomials by the leading monomials gives
    ring = _rewrite_ring(name)
    assert ring.route == "rewrite"
    for w in range(ring.truncation + 1):
        basis = ring.graded_basis(w).basis
        assert basis == standard_monomials(ring, w), w
        if not ring.reduction.rules:
            assert basis is ring.monomials_of_weight(w)
    if name == "mixed":
        assert ring.reduction.leading == [((0, 1), (1, 1)), ((2, 1), (3, 1)), ((3, 2),)]


@pytest.mark.parametrize("name", REWRITE_NAMES)
def test_rewrite_route_survives_a_json_round_trip(name):
    # the route is read off the relations, so a ring rebuilt from its
    # JSON reduces the same way
    from orcohom.serialize import presented_ring_from_json, presented_ring_to_json

    ring = _rewrite_ring(name)
    back = presented_ring_from_json(json.loads(canonical_dumps(presented_ring_to_json(ring))))
    assert back == ring
    assert back.route == ring.route == "rewrite"
    assert back.reduction.rules == ring.reduction.rules


def _flag_fibers(name):
    """The flag fibers of a REWRITE_NAMES ring: (index of l1, rank,
    Chern classes in the ring's variables)."""
    if name.startswith("Flag"):
        return [(0, int(name[4:]), [])]
    if name == "F2-over-P2":
        l = Polynomial.variable(ZZ, 2)
        return [(0, 2, [l.scale(3), (l * l).scale(2)])]
    if name == "P2xFlag3":
        return [(1, 3, [])]
    return []


def _bundle_rings():
    """Flag(2) and P(V) bundles over P^2 (rewrite route) and Gr(2,4)
    (degreewise) over Z, Z/4 and Q, and P(V) over the multiplicative P^1
    with c1 = (1 + b) l, whose rule has no integer coefficient; each with
    its flag fibers as in ``_flag_fibers``."""
    from orcohom.spaces import (FlagBundle, GrassmannianBundle, ProjectiveBundle, ProjectiveSpace,
                                additive_theory, cohomology, multiplicative_theory)

    for coeffs in (ZZ, ModularRing(4), QQ):
        th = additive_theory(coeffs, 8)
        p2 = cohomology(th, ProjectiveSpace(2), 6)
        g24 = cohomology(th, GrassmannianBundle(2, 4), 6)
        x, y = (Polynomial.variable(coeffs, i) for i in range(2))
        for base_ring, chern in ((p2, [x.scale(coeffs.from_int(3)), (x * x).scale(coeffs.from_int(2))]),
                                 (g24, [x, y])):
            yield (cohomology(th, FlagBundle(2, chern, base_ring), 6),
                   [(0, 2, [c.shift_indices(2) for c in chern])])
            yield cohomology(th, ProjectiveBundle(2, chern, base_ring), 6), []
    th = multiplicative_theory(4)
    p1 = cohomology(th, ProjectiveSpace(1), 4)
    L = p1.base
    yield cohomology(th, ProjectiveBundle(2, [p1.var(0).scale(L.add(L.one(), L.generator()))], p1), 4), []


def test_flag_relations_match_the_symmetric_function_oracle():
    # each flag fiber is presented by the triangular g_i, which the
    # oracle builds from the e_k - c_k with Macdonald's cofactors; the
    # e_k - c_k reduce to zero, the membership oracle agrees, and the
    # e_k - c_k presentation itself takes the degreewise route with the
    # same ranks (up to weight 6) and contains every g_i
    cases = [(_rewrite_ring(name), _flag_fibers(name)) for name in REWRITE_NAMES]
    cases += list(_bundle_rings())
    checked = 0
    for ring, fibers in cases:
        for start, n, chern in fibers:
            symmetric, triangular = flag_relation_certificate(ring.base, n, chern, start)
            for g in triangular:
                assert g in ring.relations, (ring, ring.poly_str(g))
            for r in symmetric:
                assert ring.normal_form(r).is_zero(), (ring, ring.poly_str(r))
                assert in_relation_ideal(ring, r), (ring, ring.poly_str(r))
            others = [r for r in ring.relations if r not in triangular]
            assert len(others) == len(ring.relations) - n
            old = PresentedRing(ring.base, ring.variables, symmetric + others, ring.truncation)
            assert old.route == "degreewise", ring
            upto = min(6, ring.truncation)
            assert old.graded_ranks(upto) == ring.graded_ranks(upto), ring
            for g in triangular:
                assert in_relation_ideal(old, g), (ring, ring.poly_str(g))
            checked += n
    assert checked == 2 + 3 + 4 + 5 + 6 + 2 + 3 + 6 * 2


def test_rewrite_rings_from_spaces_build_no_relation_lattice(monkeypatch):
    # rebuilt with empty caches, each ring computes its ranks and the
    # normal form of every ambient monomial while any HNF raises
    from orcohom import intlinalg

    rings = [_rewrite_ring(name) for name in REWRITE_NAMES if name != "mixed"]
    rings += [R for R, _ in _bundle_rings() if R.route == "rewrite"]
    assert len(rings) == 18
    rings = [PresentedRing(R.base, R.variables, R.relations, R.truncation) for R in rings]

    def no_lattice(mat):
        raise AssertionError("a rewrite ring built a relation lattice")

    monkeypatch.setattr(intlinalg, "hnf", no_lattice)
    for ring in rings:
        assert ring.route == "rewrite", ring
        one = ring.base.one()
        for w in range(ring.truncation + 1):
            ring.graded_basis(w)
            for m in ring.monomials_of_weight(w):
                ring.normal_form(Polynomial(ring.base, {m: one}))
    # the patch reaches the degreewise route's modules
    with pytest.raises(AssertionError, match="relation lattice"):
        PresentedRing(ZZ, [("x", 1)], [P({((0, 1),): 2})], 2).graded_ranks()


def test_torsion_pivot_refuses_coefficients_without_an_integer_value():
    # 2 is no unit of Z[b, b^-1], so x with relation 2x takes the
    # degreewise route, where 2 is a torsion pivot
    base = laurent_over(ZZ, "b", -1)
    x = Polynomial.variable(base, 0)
    ring = PresentedRing(base, [("x", 1)], [x.scale(base.from_int(2))], 4)
    assert ring.route == "degreewise"
    with pytest.raises(NonConfluentPresentation,
                       match="cannot reduce non-integer coefficients against a torsion pivot"):
        ring.normal_form(x.scale(base.generator()))
    assert ring.normal_form(x.scale(base.from_int(3))) == x


def test_degreewise_rows_over_q_clear_denominators():
    # x^2 - xy/2 and xy - y^2/3 span what 2x^2 - xy and 3xy - y^2 span;
    # a row that kept its fractions unscaled would lose its xy term
    x, y = (Polynomial.variable(QQ, i) for i in range(2))
    half, third = Fraction(1, 2), Fraction(1, 3)
    variables = [("x", 1), ("y", 1)]
    fractional = PresentedRing(QQ, variables, [x * x - (x * y).scale(half),
                                               x * y - (y * y).scale(third)], 4)
    cleared = PresentedRing(QQ, variables, [(x * x).scale(Fraction(2)) - x * y,
                                            (x * y).scale(Fraction(3)) - y * y], 4)
    assert fractional.route == cleared.route == "degreewise"
    assert fractional.graded_ranks() == cleared.graded_ranks() == [1, 2, 1, 0, 0]
    for w in range(5):
        assert fractional.graded_basis(w).basis == cleared.graded_basis(w).basis
        for m in fractional.monomials_of_weight(w):
            mono = Polynomial(QQ, {m: Fraction(1)})
            assert fractional.normal_form(mono) == cleared.normal_form(mono), m


def test_degreewise_rows_over_laurent_shift_to_integers():
    # 2b l^2 is 2 l^2 times the unit b, so its rows are integer rows and
    # 2 is a torsion pivot in every weight from 2; 2 + 2b has no integer
    # multiple by a unit, so no row
    from orcohom.spaces import multiplicative_theory

    base = multiplicative_theory(6).law.base
    l = Polynomial.variable(base, 0)
    b, two = base.generator(), base.from_int(2)
    ring = PresentedRing(base, [("l", 1)], [(l * l).scale(base.mul(two, b))], 6)
    assert ring.route == "degreewise"
    assert [ring.graded_basis(w).torsion for w in range(7)] == [[], []] + [[2]] * 5
    assert ring.graded_ranks() == [1, 1, 0, 0, 0, 0, 0]
    cube = l * l * l
    assert ring.normal_form(cube.scale(base.from_int(3))) == cube
    mixed = PresentedRing(base, [("l", 1)], [(l * l).scale(base.add(two, base.mul(two, b)))], 6)
    with pytest.raises(NonConfluentPresentation, match="needs integer relation coefficients"):
        mixed.graded_ranks()


def test_relations_matrix_rank_agrees():
    # the degreewise Grassmannian ring's rank data matches the minor gcds
    # of its relation rows, built here, in every weight (D=3 keeps the
    # factorial oracle small: weight 4 already has 16 x 14 rows); the
    # rewriting Flag(4) ring's matches a fresh degreewise relation module
    from orcohom.spaces import FlagBundle, additive_theory, cohomology

    gr = grassmannian_ring(D=3)
    assert gr.route == "degreewise"
    for w in range(gr.truncation + 1):
        ambient = gr.monomials_of_weight(w)
        index = {m: j for j, m in enumerate(ambient)}
        rows = []
        for rel in gr.relations:
            for mult in gr.monomials_of_weight(w - gr.mono_weight(next(iter(rel.terms)))):
                row = [0] * len(ambient)
                for m, c in rel.terms.items():
                    row[index[mono_mul(m, mult)]] += c
                rows.append(row)
        piece = gr.graded_basis(w)
        assert torsion_via_minor_gcd(rows, len(ambient)) == (piece.free_rank, piece.torsion), w
    flag4 = cohomology(additive_theory(ZZ, 6), FlagBundle(4), 6)
    assert flag4.route == "rewrite"
    for w in range(7):
        piece = flag4.graded_basis(w)
        assert Degreewise().reducer(flag4, w)[2].rank_torsion() == (piece.free_rank, piece.torsion)


def test_serialization_canonical_and_stable():
    R = grassmannian_ring()
    x = P({((0, 1), (2, 1)): 1, ((1, 1),): 2, ((3, 1),): -1, (): 7})
    one = canonical_dumps(poly_to_json(x, R.weights, R.nvars))
    two = canonical_dumps(poly_to_json(x, R.weights, R.nvars))
    assert one == two
    # graded-lex leading term first
    assert poly_to_json(x, R.weights, R.nvars)[0][0] == [1, 0, 1, 0]


def test_ringmap_identity_and_ill_defined():
    R3 = truncated_power_ring(2, D=4)
    ident = RingMap(R3, R3, [R3.var("l")])
    l2 = P({((0, 2),): 1})
    assert ident.apply(l2) == l2
    R2 = truncated_power_ring(1, D=4)
    bad = RingMap(R2, R3, [R3.var("l")])
    with pytest.raises(IllDefinedMap):
        bad.check_well_defined()


def test_is_graded_isomorphism():
    R = truncated_power_ring(2, D=4)
    ident = RingMap(R, R, [R.var("l")])
    ok, report = ident.is_graded_isomorphism()
    assert ok and all(e["ok"] for e in report)
    # rank mismatch in weight 1 when the generator maps to weight-2 junk
    R2 = truncated_power_ring(1, D=4)
    with pytest.raises(ValueError):
        RingMap(R2, R, [P({((0, 2),): 1})])
    # l -> l from Z[l]/(l^3) to Z[l]/(l^2): onto, bijective up to weight 1
    ok, report = RingMap(R, R2, [R2.var("l")]).is_graded_isomorphism()
    assert ok is False
    assert [e["ok"] for e in report] == [True, True, False, True, True]
    assert report[2]["note"] == "rank or torsion mismatch"
    # a map that misses a generator gets no verdict: the lattice oracle
    # finds it not onto in weight 1
    S = PresentedRing(ZZ, [("l", 2)], [P({((0, 2),): 1})], 4)
    squash = RingMap(S, R, [P({((0, 2),): 1})])
    assert surjective_by_lattice(squash, 1) is False
    with pytest.raises(ValueError, match="generator l of the target is not an image"):
        squash.is_graded_isomorphism()


@pytest.mark.parametrize("case", ["point", "relation"])
def test_isomorphism_verdict_needs_every_generator_hit(case):
    # l -> 0 on P^2 agrees in rank and torsion in every weight; T =
    # Z[u, v]/(2u + 3v) is Z in weight 1, where v is -2: w -> v is not
    # onto although v alone is the reported basis.  Neither map hits
    # every generator, so neither gets a verdict
    from orcohom.spaces import ProjectiveSpace, additive_theory, cohomology

    if case == "point":
        R = cohomology(additive_theory(ZZ, 4), ProjectiveSpace(2), 4)
        rmap = RingMap(R, R, [Polynomial.zero(ZZ)])
        onto = [True, False, False, True, True]
    else:
        T = PresentedRing(ZZ, [("u", 1), ("v", 1)], [P({((0, 1),): 2, ((1, 1),): 3})], 1)
        rmap = RingMap(PresentedRing(ZZ, [("w", 1)], [], 1), T, [T.var("v")])
        onto = [True, False]
    rmap.check_well_defined()
    assert [surjective_by_lattice(rmap, w) for w in range(len(onto))] == onto
    with pytest.raises(ValueError, match="is not an image"):
        rmap.is_graded_isomorphism()


def test_weight_preserving_constants_allowed():
    L = laurent_over(ZZ, "b", -1)
    src = PresentedRing(ZZ, [("a", 1)], [], 4)
    tgt = scalar_ring(L, 4)
    m = RingMap(src, tgt, [Polynomial.constant(L, L.generator())])
    m.check_well_defined()


def test_torsion_pieces_and_composite_modulus():
    x, y = ((0, 1),), ((1, 1),)
    # (base, generators of weight 1, relation 2x, weight-1 basis, free rank, torsion)
    cases = [
        (ZZ, ["l"], [], 0, [2]),
        (ModularRing(6), ["l"], [], 0, [2]),
        (ModularRing(12), ["x", "y"], [y], 1, [2]),
    ]
    for base, names, basis, free, torsion in cases:
        ring = PresentedRing(base, [(n, 1) for n in names], [Polynomial(base, {x: base.from_int(2)})], 3)
        piece = ring.graded_basis(1)
        assert (piece.basis, piece.free_rank, piece.torsion) == (basis, free, torsion), base


@pytest.mark.parametrize("n", [4, 6])
def test_composite_modulus_basis_spans_the_free_piece(n):
    from orcohom.spaces import GrassmannianBundle, additive_theory, cohomology

    base = ModularRing(n)
    ring = cohomology(additive_theory(base, 6), GrassmannianBundle(2, 5), 6)
    assert ring.route == "degreewise"
    pieces = [ring.graded_basis(w) for w in range(7)]
    assert [p.free_rank for p in pieces] == [1, 1, 2, 2, 2, 1, 1]
    assert [len(p.basis) for p in pieces] == [1, 1, 2, 2, 2, 1, 1]
    for w, p in enumerate(pieces):
        for m in ring.monomials_of_weight(w):
            assert set(ring.normal_form(Polynomial(base, {m: base.one()})).terms) <= set(p.basis)


def _field_rref_reference(ring, w):
    """(ambient, RREF rows, pivots) of the weight-w relation rows over a field base."""
    from orcohom.polynomials import mono_mul

    base = ring.base
    ambient = ring.monomials_of_weight(w)
    index = {m: j for j, m in enumerate(ambient)}
    rows = []
    for rel in ring.relations:
        for mult in ring.monomials_of_weight(w - ring.homogeneous_weight(rel)):
            row = [base.zero()] * len(ambient)
            for m, c in rel.terms.items():
                row[index[mono_mul(m, mult)]] = c
            rows.append(row)
    return (ambient, *field_rref_over(rows, base))


@pytest.mark.parametrize("base", [QQ, ModularRing(5)], ids=["Q", "Z5"])
@pytest.mark.parametrize("m, n, D", [(2, 5, 6), (3, 6, 8)])
def test_field_bases_match_the_reduced_row_echelon_form(base, m, n, D):
    # over a field the integer lattice must give what eliminating over
    # the field gives: the non-pivot columns of the RREF as the basis,
    # and the reduction against the RREF rows as every normal form
    from orcohom.spaces import GrassmannianBundle, additive_theory, cohomology

    ring = cohomology(additive_theory(base, D), GrassmannianBundle(m, n), D)
    assert ring.route == "degreewise"
    for w in range(D + 1):
        ambient, red, pivots = _field_rref_reference(ring, w)
        pivot_cols = set(pivots)
        assert ring.graded_basis(w).basis == [mm for j, mm in enumerate(ambient) if j not in pivot_cols]
        for j, mono in enumerate(ambient):
            v = [base.from_int(int(i == j)) for i in range(len(ambient))]
            for row, c in zip(red, pivots):
                f = v[c]
                if not base.is_zero(f):
                    v = [base.sub(a, base.mul(f, b)) for a, b in zip(v, row)]
            want = {mm: c for mm, c in zip(ambient, v) if not base.is_zero(c)}
            got = ring.normal_form(Polynomial(base, {mono: base.one()}))
            assert got.terms == want and list(got.terms) == list(want)


def test_rational_base_field_route():
    ring = PresentedRing(QQ, [("x", 1), ("y", 1)],
                         [Polynomial(QQ, {((0, 1),): QQ.from_int(2), ((1, 1),): QQ.from_int(3)})], 4)
    assert ring.graded_ranks(2) == [1, 1, 1]


def test_prime_field_route():
    z5 = ModularRing(5)
    ring = PresentedRing(z5, [("x", 1), ("y", 1)],
                         [Polynomial(z5, {((0, 1),): 2, ((1, 1),): 3})], 4)
    assert ring.graded_ranks(2) == [1, 1, 1]
    nf = ring.normal_form(Polynomial(z5, {((0, 1),): 1}))
    assert ring.normal_form(nf) == nf
    ident = RingMap(ring, ring, [ring.var(0), ring.var(1)])
    ok, _ = ident.is_graded_isomorphism()
    assert ok


def test_quotient_coefficients_arithmetic():
    inner = truncated_power_ring(2, D=4)
    Q = QuotientCoefficients(inner)
    l = Q.from_poly(Polynomial.variable(ZZ, 0))
    cube = Q.mul(Q.mul(l, l), l)
    assert Q.is_zero(cube)
    assert Q.coeff_from_str(Q.coeff_str(l)) == l


@pytest.mark.parametrize("n", [4, 6])
def test_composite_modulus_iso_verdicts_are_proved(n):
    # over Z/n equal rank and torsion plus surjectivity is a proof: the
    # identity is an isomorphism with no note.  The unit l -> (n-1)l is
    # onto by the lattice and l -> 2l, onto neither Z/4 nor Z/6 in
    # weight 1, is not; neither hits the generator, so neither gets a verdict
    zn = ModularRing(n)
    ring = PresentedRing(zn, [("l", 1)], [Polynomial(zn, {((0, 3),): 1})], 4)
    l = ring.var("l")
    ok, report = RingMap(ring, ring, [l]).is_graded_isomorphism()
    assert ok is True
    assert not any("note" in e for e in report)
    for k, onto in ((n - 1, True), (2, False)):
        rmap = RingMap(ring, ring, [l.scale(k)])
        assert [surjective_by_lattice(rmap, w) for w in range(5)] == [True, onto, onto, True, True]
        with pytest.raises(ValueError, match="is not an image"):
            rmap.is_graded_isomorphism()


def test_ill_defined_map_names_relation():
    R2 = truncated_power_ring(1, D=4)
    R3 = truncated_power_ring(2, D=4)
    bad = RingMap(R2, R3, [R3.var("l")])
    with pytest.raises(IllDefinedMap) as err:
        bad.check_well_defined()
    assert "relation #0" in str(err.value)


def _bounded_product_ring(name):
    """The presented ring of one case; names starting "rewrite" take that route."""
    from orcohom.conner_floyd import universal_theory
    from orcohom.spaces import FlagBundle, GrassmannianBundle, ProjectiveSpace, additive_theory, cohomology

    gr25 = GrassmannianBundle(2, 5)
    cases = {
        # D is at most the top weight, so dropping weight D shows
        "rewrite-Z": lambda: cohomology(additive_theory(ZZ, 3), FlagBundle(3), 3),
        # weight 11 is where the Gr(4,8) echelon form has the pivot 2
        "int-Z": lambda: cohomology(additive_theory(ZZ, 11), GrassmannianBundle(4, 8), 11),
        "field-Q": lambda: cohomology(additive_theory(QQ, 6), gr25, 6),
        "field-Z5": lambda: cohomology(additive_theory(ModularRing(5), 6), gr25, 6),
        "lifted-Z4": lambda: cohomology(additive_theory(ModularRing(4), 6), gr25, 6),
        "rewrite-universal": lambda: cohomology(universal_theory(4), ProjectiveSpace(2), 2),
    }
    return cases[name]()


@pytest.mark.parametrize("name", ["rewrite-Z", "int-Z", "field-Q", "field-Z5", "lifted-Z4",
                                  "rewrite-universal"])
def test_ring_product_matches_normal_form_of_full_product(name):
    # the ring product skips the term pairs above D; its result must be
    # the normal form of the full product, down to the order of its terms
    ring = _bounded_product_ring(name)
    D = ring.truncation
    assert ring.route == ("rewrite" if name.startswith("rewrite") else "degreewise")
    base = ring.base
    if isinstance(base, QuotientCoefficients):
        inner = base.ring

        def coeff(rng):
            k = rng.randrange(inner.nvars)
            return base.from_poly(int_poly(
                ZZ, {(): rng.randint(-3, 3), ((k, 1),): rng.randint(-3, 3)}))
    else:
        def coeff(rng):
            return base.from_int(rng.randint(-3, 3))
    rng = random.Random(4000 + D)
    for _ in range(25):
        a, b = (Polynomial(base, {rng.choice(ring.monomials_of_weight(w)): coeff(rng)
                                  for w in (0, rng.randint(1, D - 1), D, D + 1, D + 2)})
                for _ in range(2))
        got, want = ring.mul(a, b), ring.normal_form(a * b)
        assert got == want
        assert list(got.terms) == list(want.terms)


def test_ring_product_keeps_the_non_unit_pivot_monomial():
    ring = _bounded_product_ring("int-Z")
    s1, s2, s4 = (ring.var(n) for n in ("s1", "s2", "s4"))
    [witness] = (s1 * s2 * s4 * s4).terms
    product = ring.mul(s1 * s2 * s4, s4)
    assert product == ring.normal_form(s1 * s2 * s4 * s4)
    assert witness in product.terms


def test_out_of_range_variable_rejected_by_mul_and_compose():
    R = truncated_power_ring(2, D=4)
    stray = Polynomial.variable(ZZ, 1)
    for a, b in ((R.var("l"), stray), (stray, R.one_poly()), (stray, Polynomial.zero(ZZ))):
        with pytest.raises(ValueError, match="outside ring"):
            R.mul(a, b)
    with pytest.raises(ValueError, match="outside ring"):
        compose(R, R.var("l"), [stray], ZZ)


def _compose_case(name):
    """(target ring, coefficient sampler) of a compose comparison case."""
    from orcohom.fgl import lazard_ring, series_ring, universal_law

    base_id, _, route = name.partition("-")
    if base_id == "universal":
        if route == "lazard":
            return lazard_ring(5), lambda rng: ZZ.from_int(rng.randint(-3, 3))
        coeffs = universal_law(5).base
        inner = coeffs.ring

        def coeff(rng):
            k = rng.randrange(inner.nvars)
            return coeffs.from_poly(int_poly(ZZ, {(): rng.randint(-3, 3), ((k, 1),): rng.randint(-3, 3)}))
        return series_ring(coeffs, ("x", "y", "z"), 5), coeff
    base = {"Z": ZZ, "Z4": ModularRing(4), "Q": QQ, "Zb": laurent_over(ZZ)}[base_id]
    if base_id == "Q":
        coeff = lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    elif base_id == "Zb":
        b = base.generator()
        units = (b, base.inv_unit(b))
        coeff = lambda rng: base.add(base.from_int(rng.randint(-2, 2)),
                                     base.mul(base.from_int(rng.randint(-2, 2)), rng.choice(units)))
    else:
        coeff = lambda rng: base.from_int(rng.randint(-3, 3))
    poly = lambda terms: Polynomial(base, {m: base.from_int(c) for m, c in terms.items()})
    if route == "rewrite":
        # leading monomials x^3 and y^2 are coprime and unit-monic
        rels = [poly({((0, 3),): 1, ((0, 1), (2, 1)): 2}), poly({((1, 2),): 1, ((2, 1),): -1})]
        ring = PresentedRing(base, [("x", 1), ("y", 1), ("z", 2)], rels, 6)
    else:
        # the Gr(2,4) relations; over Z and Z/4 a generator u with
        # 2*s1 + 2*u = 0 gives every weight non-unit pivots, where a sum
        # of normal forms need not be one
        variables = [("s1", 1), ("s2", 2), ("t1", 1), ("t2", 2)]
        rels = [
            poly({((0, 1),): 1, ((2, 1),): 1}),
            poly({((1, 1),): 1, ((0, 1), (2, 1)): 1, ((3, 1),): 1}),
            poly({((1, 1), (2, 1)): 1, ((0, 1), (3, 1)): 1}),
            poly({((1, 1), (3, 1)): 1}),
        ]
        if base_id in ("Z", "Z4"):
            variables.append(("u", 1))
            rels.append(poly({((0, 1),): 2, ((4, 1),): 2}))
        ring = PresentedRing(base, variables, rels, 6)
    assert ring.route == route
    return ring, coeff


COMPOSE_CASES = ["Z-rewrite", "Z-degreewise", "Z4-rewrite", "Z4-degreewise", "Q-rewrite",
                 "Q-degreewise", "Zb-rewrite", "Zb-degreewise", "universal-series",
                 "universal-lazard"]


@pytest.mark.parametrize("name", COMPOSE_CASES)
def test_compose_matches_termwise_evaluation(name):
    # random p in three source generators, with a constant term, and
    # images that are polynomials with terms above D, constants or zero;
    # source coefficients over the target base or over Z
    ring, coeff = _compose_case(name)
    base, D = ring.base, ring.truncation
    rng = random.Random(sum(map(ord, name)))

    def element():
        return Polynomial(base, {rng.choice(ring.monomials_of_weight(w)): coeff(rng)
                                 for w in rng.sample(range(D + 3), 3)})

    for trial in range(12):
        source_base = ZZ if trial % 3 == 0 else base
        terms = {(): source_base.from_int(rng.randint(1, 3))}
        for _ in range(rng.randint(1, 6)):
            m = tuple((i, e) for i, e in enumerate(rng.choices(range(4), k=3)) if e)
            terms[m] = rng.randint(-3, 3) if source_base is ZZ else coeff(rng)
        p = Polynomial(source_base, terms)
        images = [rng.choice([element, element, lambda: Polynomial.constant(base, coeff(rng)),
                              lambda: Polynomial.zero(base)])() for _ in range(3)]
        got = compose(ring, p, images, source_base)
        assert got == compose_termwise(ring, p, images, source_base)
        assert got == ring.normal_form(got)


@pytest.mark.parametrize("name", ["Z-degreewise", "Z4-degreewise", "universal-lazard"])
def test_compose_reduces_a_sum_past_a_non_unit_pivot(name):
    # x + y at x, y -> m sums nf(m) twice, which is no normal form when
    # nf(m) has an entry at a non-unit pivot
    ring, _ = _compose_case(name)
    base = ring.base
    for w in range(1, ring.truncation + 1):
        for m in ring.monomials_of_weight(w):
            image = Polynomial(base, {m: base.one()})
            twice = ring.normal_form(image).scale(base.from_int(2))
            if twice != ring.normal_form(twice):
                x_plus_y = P({((0, 1),): 1, ((1, 1),): 1})
                assert compose(ring, x_plus_y, [image, image], ZZ) == ring.normal_form(twice)
                return
    pytest.fail("no weight has a non-unit pivot")


@pytest.mark.parametrize("law_name", ["multiplicative", "universal"])
def test_compose_matches_termwise_on_group_law_shapes(law_name):
    # F(F(x, y), z), and the residue F(x, i(x)) of the formal inverse
    from orcohom.fgl import formal_inverse, make_multiplicative, series_ring, universal_law

    law = make_multiplicative(truncation=6) if law_name == "multiplicative" else universal_law(5)
    base, D = law.base, law.truncation
    r3 = series_ring(base, ("x", "y", "z"), D)
    X, Y, Z = (Polynomial.variable(base, i) for i in range(3))
    inner = compose(r3, law.series, [X, Y], base)
    assert inner == compose_termwise(r3, law.series, [X, Y], base)
    assert compose(r3, law.series, [inner, Z], base) == \
        compose_termwise(r3, law.series, [inner, Z], base)
    inv = formal_inverse(law)
    partial = Polynomial(base, {m: c for m, c in inv.terms.items() if law.ring2.mono_weight(m) < D})
    for i, want_zero in ((inv, True), (partial, False)):
        residue = compose(law.ring2, law.series, [law.x(), i], base)
        assert residue == compose_termwise(law.ring2, law.series, [law.x(), i], base)
        assert residue.is_zero() == want_zero


@pytest.mark.parametrize("D", range(4, 8))
def test_compose_matches_termwise_on_the_lazard_associator(D):
    # F(F(x, y), z) for the generic series over the free Z[a_ij], as
    # ``lazard_ring`` forms it: one chain per output monomial at each
    # Horner level against a sum of termwise products
    from orcohom.fgl import _generic_series, lazard_generators, series_ring

    gens = lazard_generators(D)
    coeffs = QuotientCoefficients(PresentedRing(ZZ, [(f"a{i}_{j}", i + j - 1) for i, j in gens], [], D))
    series = _generic_series(coeffs, gens)
    r3 = series_ring(coeffs, ("x", "y", "z"), D + 1)
    images = [r3.normal_form(series), Polynomial.variable(coeffs, 2)]
    got = compose(r3, series, images, coeffs)
    assert got == compose_termwise(r3, series, images, coeffs)
    assert max(map(r3.mono_weight, got.terms)) == D + 1


@pytest.mark.parametrize("evaluate", [compose, compose_termwise], ids=["compose", "termwise"])
def test_compose_error_paths(evaluate):
    R = truncated_power_ring(2, D=4)
    l, zero = R.var("l"), Polynomial.zero(ZZ)
    stray = Polynomial.variable(ZZ, 1)
    for p, source_base in ((Polynomial.variable(QQ, 0), QQ),
                           (Polynomial.variable(ModularRing(4), 0), ModularRing(4))):
        with pytest.raises(ValueError, match="incompatible"):
            evaluate(R, p, [l], source_base)
    with pytest.raises(ValueError, match="outside the ring base"):
        evaluate(R, l, [Polynomial.variable(QQ, 0)], ZZ)
    # the image of a generator p uses is checked even under a zero factor
    with pytest.raises(ValueError, match="outside ring"):
        evaluate(R, P({((0, 1), (1, 1)): 1}), [zero, stray], ZZ)
    # the image of a generator p does not use is never checked
    assert evaluate(R, l, [l, stray], ZZ) == l
    assert evaluate(R, l, [l, Polynomial.variable(QQ, 0)], ZZ) == l

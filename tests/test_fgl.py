import math
import random

import pytest

from orcohom.coefficients import ModularRing, NonDivisibleBase, QQ, ZZ, laurent_over
from orcohom import fgl, presented
from orcohom.fgl import (
    FormalGroupLaw,
    check_axioms,
    classifying_map,
    formal_inverse,
    lazard_generators,
    lazard_graded_ranks,
    lazard_ring,
    logarithm,
    make_additive,
    make_multiplicative,
    n_series,
    universal_law,
)
from orcohom.intlinalg import FPModule
from orcohom.polynomials import Polynomial
from orcohom.presented import Degreewise, IllDefinedMap, PresentedRing, compose

from oracles import (
    formal_inverse_reference,
    int_poly,
    lazard_b_gcd,
    lazard_ranks_by_lattice,
    lazard_relations_by_compose,
    partition_count,
    rank_over_Q,
    universal_law_reference,
)


def test_additive_axioms():
    law = make_additive(truncation=8)
    assert check_axioms(law)["passed"]


def test_multiplicative_axioms_and_expansion():
    law = make_multiplicative(truncation=8)
    assert check_axioms(law)["passed"]
    # both association orders equal x+y+z - b(xy+yz+zx) + b^2 xyz
    from orcohom.fgl import series_ring
    base = law.base
    r3 = series_ring(base, ("x", "y", "z"), 8)
    X, Y, Z = (Polynomial.variable(base, i) for i in range(3))
    inner = compose(r3, law.series, [X, Y], base)
    lhs = compose(r3, law.series, [inner, Z], base)
    b = base.generator()
    b2 = base.mul(b, b)
    expected = Polynomial(base, {
        ((0, 1),): base.one(), ((1, 1),): base.one(), ((2, 1),): base.one(),
        ((0, 1), (1, 1)): base.neg(b), ((1, 1), (2, 1)): base.neg(b),
        ((0, 1), (2, 1)): base.neg(b),
        ((0, 1), (1, 1), (2, 1)): b2,
    })
    assert lhs == expected


def test_multiplicative_with_zero_beta_degenerates():
    law = make_multiplicative(ZZ, 0, truncation=6)
    assert check_axioms(law)["passed"]
    assert law.series == make_additive(ZZ, 6).series


def test_multiplicative_accepts_a_nonunit_beta():
    # x + y - 2xy over Z is a group law although 2 is not a unit
    law = make_multiplicative(ZZ, 2, truncation=6)
    assert law.coefficient(1, 1) == -2 and law.coefficient(1, 0) == law.coefficient(0, 1) == 1
    assert check_axioms(law)["passed"]


def test_axiom_failures_detected():
    bad_assoc = FormalGroupLaw(ZZ, int_poly(
        ZZ, {((0, 1),): 1, ((1, 1),): 1, ((0, 2), (1, 2)): 1}), 6)
    rep = check_axioms(bad_assoc)
    assert rep["unit"] and rep["commutative"] and not rep["associative"] and not rep["passed"]
    assert [f["axiom"] for f in rep["failures"]] == ["associativity"]
    bad_comm = FormalGroupLaw(ZZ, int_poly(
        ZZ, {((0, 1),): 1, ((1, 1),): 1, ((0, 1), (1, 2)): 1}), 6)
    rep = check_axioms(bad_comm)
    assert not rep["commutative"]


def test_formal_inverse():
    add = make_additive(truncation=6)
    assert formal_inverse(add) == int_poly(ZZ, {((0, 1),): -1})
    mult = make_multiplicative(truncation=6)
    inv = formal_inverse(mult)
    base = mult.base
    # oracle: -x/(1-bx) = -sum b^(k-1) x^k
    expected = Polynomial(base, {((0, k),): {k - 1: -1} for k in range(1, 7)})
    assert inv == expected
    assert inv.coefficient(()) == base.zero()
    residue = compose(mult.ring2, mult.series, [mult.x(), inv], base)
    assert residue.is_zero()


def test_formal_inverse_matches_the_full_truncation_solve():
    # step k reads only the x^k coefficient of F(x, i(x)), so composing it
    # at truncation k gives the inverse solved at the law's truncation;
    # [-1](x) is that inverse
    from orcohom.coefficients import ModularRing

    laws = [make_multiplicative(truncation=10), make_multiplicative(ModularRing(4), 2, 7),
            make_additive(QQ, 5)] + [universal_law(D) for D in range(1, 8)]
    for law in laws:
        inv = formal_inverse(law)
        assert inv.terms == formal_inverse_reference(law).terms, law
        assert n_series(law, -1).terms == inv.terms, law
        assert compose(law.ring2, law.series, [law.x(), inv], law.base).is_zero(), law


def test_n_series():
    add = make_additive(truncation=6)
    assert n_series(add, 2) == int_poly(ZZ, {((0, 1),): 2})
    assert n_series(add, 0).is_zero()
    mult = make_multiplicative(truncation=6)
    two = n_series(mult, 2)
    base = mult.base
    assert two == Polynomial(base, {((0, 1),): base.from_int(2), ((0, 2),): {1: -1}})


def test_n_series_addition_law():
    rng = random.Random(5)
    mult = make_multiplicative(truncation=6)
    base = mult.base
    for _ in range(6):
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        lhs = n_series(mult, m + n)
        rhs = compose(mult.ring2, mult.series,
                      [n_series(mult, m), n_series(mult, n)], base)
        assert lhs == rhs


def test_logarithm():
    addq = make_additive(QQ, 6)
    assert logarithm(addq) == Polynomial(QQ, {((0, 1),): QQ.one()})
    LB = laurent_over(QQ, "b", -1)
    mult = make_multiplicative(LB, LB.generator(), truncation=6)
    log = logarithm(mult)
    # oracle: -(1/b) log(1 - b x) = sum b^(k-1) x^k / k
    for k in range(1, 7):
        assert log.coefficient(((0, k),)) == {k - 1: QQ.from_int(1) / k}
    # linearization: l(F(x,y)) = l(x) + l(y)
    fx_y = compose(mult.ring2, log, [mult.series, Polynomial.zero(LB)], LB)
    split = compose(mult.ring2, log, [mult.x(), Polynomial.zero(LB)], LB) + \
        compose(mult.ring2, log, [mult.y(), Polynomial.zero(LB)], LB)
    assert fx_y == split
    with pytest.raises(NonDivisibleBase):
        logarithm(make_multiplicative(truncation=6))


def test_logarithm_over_z_mod_n_needs_every_divisor_a_unit():
    def linearizes(law, log):
        zero = Polynomial.zero(law.base)
        at = lambda arg: compose(law.ring2, log, [arg, zero], law.base)
        return at(law.series) == at(law.x()) + at(law.y())

    # over Z/4 the law x + y + 2xy has logarithms x + x^2 and x + 3x^2,
    # since 2 * 1 = 2 * 3; no quotient by 2 is exact, so none is returned
    law = make_multiplicative(ModularRing(4), 2, 6)
    with pytest.raises(NonDivisibleBase, match="integer division fails at weight 2"):
        logarithm(law)
    assert all(linearizes(law, Polynomial(law.base, {((0, 1),): 1, ((0, 2),): c})) for c in (1, 3))
    # over Z/7 every k + 1 <= 6 is a unit, and the logarithm exists
    law = make_multiplicative(ModularRing(7), 2, 6)
    log = logarithm(law)
    assert log.coefficient(((0, 2),)) == 1  # h_1 / 2 = 2 / 2
    assert linearizes(law, log)


def test_logarithm_of_the_universal_law_is_g_inverse():
    # F = g(g^-1(x) + g^-1(y)) has logarithm g^-1, which is integral
    # (its x^2 coefficient is h_1 / 2 = -b_1): so g(log(x)) = x
    for D in range(1, 9):
        law = universal_law(D)
        base = law.base
        log = logarithm(law)
        b1 = base.from_poly(Polynomial.variable(ZZ, 0))
        assert log.coefficient(((0, 2),)) == base.neg(b1)
        g = law.x() + Polynomial(base, {((0, i + 1),): base.from_poly(Polynomial.variable(ZZ, i - 1))
                                       for i in range(1, D + 1)})
        assert compose(law.ring2, g, [log], base) == law.x(), D


def test_universal_law_matches_the_full_truncation_inverse():
    for D in range(1, 11):
        law, ref = universal_law(D), universal_law_reference(D)
        assert law.base == ref.base and law.truncation == ref.truncation
        assert law.series.terms == ref.series.terms, D


def test_lazard_relations_match_composing_the_identity():
    for D in range(1, 14):
        assert list(lazard_ring(D, bound=D).relations) == lazard_relations_by_compose(D), D


def test_lazard_ranks_match_partition_numbers():
    # the per-weight indecomposables check against the HNF of the whole
    # relation lattice: ranks p(w) and no torsion, for every D <= 11
    lattice = lazard_ranks_by_lattice(11)
    assert lattice == [(partition_count(w), []) for w in range(12)]
    assert lazard_graded_ranks(5) == [r for r, _ in lattice[:6]]
    for D in range(1, 12):
        assert lazard_graded_ranks(D, bound=D) == [r for r, _ in lattice[:D + 1]], D


def test_lazard_ranks_need_no_relation_lattice(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the relations were built")

    monkeypatch.setattr(PresentedRing, "graded_basis", fail)
    monkeypatch.setattr(fgl, "lazard_ring", fail)
    monkeypatch.setattr(fgl, "compose", fail)
    monkeypatch.setattr(presented, "compose", fail)
    assert lazard_graded_ranks(24, bound=24) == [partition_count(w) for w in range(25)]


def _linear_parts(ring, relations, n):
    """The weight-n ``relations`` of ``ring``'s generators, as rows over its weight-n generators."""
    cols = [((k, 1),) for k, w in enumerate(ring.weights) if w == n]
    return [[rel.terms.get(m, 0) for m in cols] for rel in relations if ring.homogeneous_weight(rel) == n]


def test_indecomposable_rows_are_the_linear_parts_of_the_relations():
    # the closed form against the composed associator, up to sign, for
    # every D CI runs ``fgl-lazard`` at; the rank check alone
    # accepts C(a + b, a) -> 1 at D = 9
    def up_to_sign(rows):
        return {tuple(r) if next(v for v in r if v) > 0 else tuple(-v for v in r) for r in rows if any(r)}

    for D in range(1, 17):
        ring = lazard_ring(D, bound=D)
        for n in range(1, D + 1):
            rows = fgl._indecomposable_rows(n)
            assert up_to_sign(rows) == up_to_sign(_linear_parts(ring, ring.relations, n)), (D, n)


def _with_relations(monkeypatch, D, relations):
    """Make the rank check read the linear parts of ``relations``, in the
    weight-D generators, instead of those of the associativity relations."""
    ring = lazard_ring(D, bound=D)
    monkeypatch.setattr(fgl, "_indecomposable_rows", lambda n: _linear_parts(ring, relations, n))


def test_lazard_check_refuses_exactly_where_the_lattice_departs(monkeypatch):
    # scale one relation by 2, or drop it: the check refuses exactly the
    # presentations whose dense lattice is not free of rank p(w)
    D = 8
    relations = list(lazard_ring(D, bound=D).relations)
    free = [(partition_count(w), []) for w in range(D + 1)]
    refused = 0
    for k, rel in enumerate(relations):
        for change in ([rel.scale(2)], []):
            mutant = relations[:k] + change + relations[k + 1:]
            lattice_departs = lazard_ranks_by_lattice(D, mutant) != free
            _with_relations(monkeypatch, D, mutant)
            try:
                lazard_graded_ranks(D, bound=D)
            except ArithmeticError:
                assert lattice_departs, (k, change)
                refused += 1
            else:
                assert not lattice_departs, (k, change)
    # both verdicts occur: 14 of the 68 mutants are refused
    assert 0 < refused < 2 * len(relations)


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("change", ["scale", "drop"])
def test_lazard_check_refuses_a_broken_weight(monkeypatch, n, change):
    D = 10
    ring = lazard_ring(D, bound=D)
    at_n = [ring.homogeneous_weight(r) == n for r in ring.relations]
    if change == "scale":
        relations = [r.scale(2) if hit else r for r, hit in zip(ring.relations, at_n)]
    else:
        relations = [r for r, hit in zip(ring.relations, at_n) if not hit]
    _with_relations(monkeypatch, D, relations)
    with pytest.raises(ArithmeticError, match=f"in weight {n}$"):
        lazard_graded_ranks(D, bound=D)


def test_cli_refuses_a_broken_presentation_as_an_internal_error(monkeypatch, capsys):
    from orcohom import cli

    D = 6
    ring = lazard_ring(D, bound=D)
    _with_relations(monkeypatch, D, [r for r in ring.relations if ring.homogeneous_weight(r) != 4])
    assert cli.main(["fgl-lazard", "--truncation", str(D), "--bound", str(D)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ArithmeticError:") and "weight 4" in err


def test_lazard_bound_enforced():
    with pytest.raises(ValueError):
        lazard_ring(9)
    with pytest.raises(ValueError, match="^truncation must be positive$"):
        lazard_graded_ranks(0)
    with pytest.raises(ValueError, match="^truncation 9 exceeds the configured bound 8$"):
        lazard_graded_ranks(9)


def test_generic_law_passes_axioms_at_bound():
    # the universal law over Z[b] is a group law up to its truncation
    # D + 1; adding b_D to the top coefficients of x*y^D and x^D*y keeps
    # it graded and symmetric but breaks associativity once D >= 3 (for
    # D <= 2 the perturbation is a multiple of the symmetric 2-cocycle
    # ((x + y)^(D+1) - x^(D+1) - y^(D+1)) / d, which keeps a group law)
    for D in range(1, 11):
        law = universal_law(D)
        assert law.truncation == D + 1
        assert check_axioms(law)["passed"], D
        if D <= 2:
            continue
        b_top = law.base.from_poly(Polynomial.variable(ZZ, D - 1))
        bumped = law.series + Polynomial(law.base, {((0, 1), (1, D)): b_top, ((0, D), (1, 1)): b_top})
        rep = check_axioms(FormalGroupLaw(law.base, bumped, law.truncation))
        assert rep["unit"] and rep["commutative"] and not rep["associative"], D


def test_classifying_map_additive_and_multiplicative():
    ring = lazard_ring(4)
    add = make_additive(truncation=5)
    cm = classifying_map(add, ring)
    assert all(im.is_zero() for im in cm.images)
    mult = make_multiplicative(truncation=5)
    cm = classifying_map(mult, ring)
    base = mult.base
    assert cm.images[0] == Polynomial.constant(base, base.neg(base.generator()))
    assert all(im.is_zero() for im in cm.images[1:])


def test_classifying_map_generic_identity():
    # well-definedness of a_ij -> (coefficient of the universal law) is
    # the statement that every associativity relation vanishes in Z[b]
    for D in range(1, 11):
        law = universal_law(D)
        cm = classifying_map(law, lazard_ring(D, bound=D))
        for (i, j), im in zip(lazard_generators(D), cm.images):
            assert im.is_constant()
            assert law.base.eq(im.constant_term(), law.coefficient(i, j))


def test_lazard_relations_are_the_kernel_into_z_b():
    # In each weight w <= 10 the relation lattice R of the a-monomials is
    # the integer kernel of their evaluation E into Z[b]_w: R lies in the
    # kernel, rank R + rank E is the monomial count, and Z^n / R is
    # torsion-free, so the kernel (saturated, of the same rank) is R.
    D = 10
    ring, law = lazard_ring(D, bound=D), universal_law(D)
    B = law.base
    images = [law.coefficient(i, j) for i, j in lazard_generators(D)]
    for w in range(1, D + 1):
        monos = ring.monomials_of_weight(w)
        index = {m: k for k, m in enumerate(B.ring.monomials_of_weight(w))}
        evaluation = []
        for m in monos:
            value = B.one()
            for i, e in m:
                for _ in range(e):
                    value = B.mul(value, images[i])
            row = [0] * len(index)
            for bm, c in value.terms.items():
                row[index[bm]] = c
            evaluation.append(row)
        relations = Degreewise().reducer(ring, w)[2].relations
        for r in relations:
            assert all(sum(c * row[k] for c, row in zip(r, evaluation)) == 0 for k in range(len(index)))
        lattice = FPModule(len(monos), relations)
        assert lattice.rank + rank_over_Q(evaluation) == len(monos), w
        assert lattice.rank_torsion() == (len(monos) - lattice.rank, []), w


def test_lazard_b_gcd_matches_universal_law():
    # modulo decomposables the weight-n coefficients a_ij are multiples of
    # b_n, and their gcd is p when n + 1 is a power of the prime p, else 1
    D = 12
    law = universal_law(D)
    for n in range(1, D + 1):
        b_n = ((n - 1, 1),)
        g = 0
        for i in range(1, n + 1):
            g = math.gcd(g, law.coefficient(i, n + 1 - i).coefficient(b_n))
        assert g == lazard_b_gcd(n), n


def test_classifying_map_rejects_invalid_series():
    ring = lazard_ring(4)
    bad = FormalGroupLaw(ZZ, int_poly(
        ZZ, {((0, 1),): 1, ((1, 1),): 1, ((0, 2), (1, 2)): 1}), 5)
    with pytest.raises(IllDefinedMap):
        classifying_map(bad, ring)

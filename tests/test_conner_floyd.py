import pytest

from orcohom.conner_floyd import (
    base_change,
    cobordism_presentation,
    describe_space,
    universal_theory,
    verify_conner_floyd,
)
from orcohom.presented import PresentedRing, QuotientCoefficients
from orcohom.spaces import (
    FlagBundle,
    GrassmannianBundle,
    InfiniteProjectiveSpace,
    ProjectiveSpace,
    cohomology,
    multiplicative_theory,
)

from oracles import (conner_floyd_backward_map, conner_floyd_forward_map, gaussian_binomial_ranks,
                     surjective_by_lattice)


def test_point_presentations():
    left = cobordism_presentation(ProjectiveSpace(0), 6)
    assert left.total_rank() == 1
    assert isinstance(left.base, QuotientCoefficients)
    right = cohomology(multiplicative_theory(6), ProjectiveSpace(0), 6)
    assert right.graded_ranks() == [1, 0, 0, 0, 0, 0, 0]


def test_k_theory_line_is_rank_two():
    ring = cohomology(multiplicative_theory(6), ProjectiveSpace(1), 6)
    assert ring.total_rank() == 2


def test_k_theory_p3_rank_four():
    ring = cohomology(multiplicative_theory(6), ProjectiveSpace(3), 6)
    assert ring.total_rank() == 4


def test_cobordism_grassmannian_gaussian_ranks():
    ring = cobordism_presentation(GrassmannianBundle(2, 4), 6)
    assert ring.graded_ranks(4) == gaussian_binomial_ranks(2, 2)


def test_verify_small_instances():
    for X in (ProjectiveSpace(0), ProjectiveSpace(2), GrassmannianBundle(2, 4), FlagBundle(3)):
        rep = verify_conner_floyd(X, 6)
        assert rep["isomorphism"], rep
        conner_floyd_backward_map(X, 6).check_well_defined()
        assert all(e["cobordism_rank"] == e["k_rank"] for e in rep["per_weight"])


@pytest.mark.parametrize("D", [8, 12])
def test_backward_generator_map_inverts_each_isomorphism(D):
    # a generator-preserving map bijective in every weight has the
    # generator-preserving map back as its inverse, so wherever the suite
    # reports an isomorphism the backward map must be well defined
    from orcohom.cli import STANDARD_CF_INSTANCES
    from orcohom.serialize import space_from_json

    for doc in STANDARD_CF_INSTANCES:
        X = space_from_json(doc)
        assert verify_conner_floyd(X, D)["isomorphism"], doc
        conner_floyd_backward_map(X, D).check_well_defined()


@pytest.mark.parametrize("D", [8, 12])
def test_forward_generator_map_is_onto_in_every_weight(D):
    # the verdict calls the forward map onto without computing it: it
    # sends generators to the same-named generators over the same base
    from orcohom.cli import STANDARD_CF_INSTANCES
    from orcohom.serialize import space_from_json

    for doc in STANDARD_CF_INSTANCES:
        forward = conner_floyd_forward_map(space_from_json(doc), D)
        assert [surjective_by_lattice(forward, w) for w in range(D + 1)] == [True] * (D + 1), doc


def test_unsupported_descriptor():
    with pytest.raises(ValueError):
        cobordism_presentation(InfiniteProjectiveSpace(), 6)
    with pytest.raises(ValueError):
        verify_conner_floyd(ProjectiveSpace(-1), 6)


def test_base_change_functoriality():
    # tensoring along (universal -> Laurent -> Laurent) equals tensoring
    # along the composite, on a presentation with coefficient-laden
    # relations so the check is not vacuous
    from orcohom.conner_floyd import _coefficient_images
    from orcohom.polynomials import Polynomial
    from orcohom.presented import PresentedRing

    target, scalars = _coefficient_images(6)
    theory = universal_theory(6)
    a11 = theory.law.coefficient(1, 1)
    custom = PresentedRing(theory.coefficients, [("l", 1)],
                           [Polynomial(theory.coefficients, {((0, 1),): a11})], 6)

    def laurent_auto(c):
        # the Laurent automorphism inverting the generator
        return {-e: v for e, v in c.items()}

    step1 = base_change(custom, target, scalars)
    relations2 = [Polynomial(target, {m: laurent_auto(c) for m, c in r.terms.items()})
                  for r in step1.relations]
    two_steps = PresentedRing(target, step1.variables, relations2, step1.truncation)
    composite = base_change(custom, target, [laurent_auto(s) for s in scalars])
    assert two_steps == composite
    # and the identity second step reproduces the single change exactly
    assert base_change(custom, target, scalars) == step1


@pytest.mark.parametrize("space", [ProjectiveSpace(0), ProjectiveSpace(3), FlagBundle(3)],
                         ids=["point", "P3", "Flag3"])
def test_base_change_keeps_the_rewrite_route(space):
    # the changed presentation is rebuilt from its relations alone, and
    # those relations rewrite as the cobordism side's do
    from orcohom.conner_floyd import _coefficient_images

    left = cobordism_presentation(space, 8)
    changed = base_change(left, *_coefficient_images(8))
    assert left.route == changed.route == "rewrite"
    assert changed.reduction.leading == left.reduction.leading


def test_universal_theory_cached_and_valid():
    th1 = universal_theory(6)
    th2 = universal_theory(6)
    assert th1 is th2
    from orcohom.fgl import check_axioms
    assert check_axioms(th1.law)["passed"]


def _forbid_universal_law(monkeypatch):
    """Make every binding of ``universal_law`` raise, on fresh theories."""
    import orcohom
    from orcohom import conner_floyd as cf
    from orcohom import fgl

    def refuse(*args, **kwargs):
        raise AssertionError("universal_law was built")

    for module in (orcohom, cf, fgl):
        monkeypatch.setattr(module, "universal_law", refuse)
    monkeypatch.setattr(cf, "_UNIVERSAL_CACHE", {})


def test_suite_never_builds_the_universal_law(monkeypatch):
    # the supported instances have integer relations, so the cobordism
    # side reads only the coefficients
    from orcohom.cli import STANDARD_CF_INSTANCES
    from orcohom.serialize import space_from_json

    _forbid_universal_law(monkeypatch)
    assert len(STANDARD_CF_INSTANCES) == 7
    for doc in STANDARD_CF_INSTANCES:
        assert verify_conner_floyd(space_from_json(doc), 8)["isomorphism"] is True, doc
    theory = universal_theory(6)
    for space, total in ((ProjectiveSpace(4), 5), (GrassmannianBundle(2, 4), 6), (FlagBundle(3), 6)):
        ring = cohomology(theory, space, 6)
        assert ring.base is theory.coefficients
        assert ring.total_rank() == total, space
    with pytest.raises(AssertionError, match="was built"):
        theory.law


@pytest.mark.parametrize("D", range(1, 9))
def test_universal_theory_builds_its_law_on_first_read(D, monkeypatch):
    from orcohom.fgl import universal_law

    monkeypatch.setattr("orcohom.conner_floyd._UNIVERSAL_CACHE", {})
    theory = universal_theory(D)
    assert "law" not in vars(theory)
    law = theory.law
    assert law.base is theory.coefficients
    assert theory.law is law and universal_theory(D) is theory
    assert law.series.terms == universal_law(D).series.terms


def _coefficient_relations(D):
    """A ring over the universal coefficients with one weight-1 generator
    per a_ij of weight <= D and the relation a_ij * l_ij."""
    from orcohom.polynomials import Polynomial
    from orcohom.presented import PresentedRing

    theory = universal_theory(D)
    gens = [(i, w + 1 - i) for w in range(1, D + 1) for i in range(1, (w + 1) // 2 + 1)]
    rels = [Polynomial(theory.coefficients, {((k, 1),): theory.law.coefficient(i, j)})
            for k, (i, j) in enumerate(gens)]
    return gens, PresentedRing(theory.coefficients, [(f"l{i}_{j}", 1) for i, j in gens], rels, D)


@pytest.mark.parametrize("D", range(1, 13))
def test_coefficient_images_classify_the_multiplicative_law(D):
    # b_i -> (-b)^i/(i+1)! sends a1_1 -> -b and every other a_ij -> 0,
    # which is the classifying map of x + y - b*x*y
    from orcohom.conner_floyd import _coefficient_images
    from orcohom.fgl import classifying_map, lazard_generators, lazard_ring, make_multiplicative

    gens, ring = _coefficient_relations(D)
    assert len(ring.relations) == len(gens)  # every a_ij is nonzero in Z[b]
    target, scalars = _coefficient_images(D)
    images = {gens[m[0][0]]: c for r in base_change(ring, target, scalars).relations
              for m, c in r.terms.items()}
    assert images == {(1, 1): target.neg(target.generator())}
    if D <= 8:
        cmap = classifying_map(make_multiplicative(truncation=D + 1), lazard_ring(D))
        assert images == {ij: im.constant_term() for ij, im in zip(lazard_generators(D), cmap.images)
                          if not im.is_zero()}


def test_non_integral_base_change_is_an_internal_error(monkeypatch, capsys):
    # b_1 alone maps to -b/2, outside Z[b, b^-1]: NonDivisibleBase, which
    # the CLI reports as an internal error (exit 3), never as bad input
    from orcohom import cli
    from orcohom import conner_floyd as cf
    from orcohom.coefficients import ZZ, NonDivisibleBase
    from orcohom.polynomials import Polynomial
    from orcohom.presented import PresentedRing

    theory = universal_theory(4)
    b1 = theory.coefficients.from_poly(Polynomial.variable(ZZ, 0))
    ring = PresentedRing(theory.coefficients, [("l", 1)],
                         [Polynomial(theory.coefficients, {((0, 1),): b1})], 4)
    with pytest.raises(NonDivisibleBase, match="outside"):
        base_change(ring, *cf._coefficient_images(4))
    monkeypatch.setattr(cf, "cobordism_presentation", lambda space, D: ring)
    assert cli.main(["conner-floyd", "--space", '{"Pn":0}', "--truncation", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: NonDivisibleBase: coefficient [[[1,0,0,0],\"1\"]]")


def test_describe_space():
    assert describe_space(ProjectiveSpace(0)) == "point"
    assert describe_space(GrassmannianBundle(2, 4)) == "Gr2(A4)"
    assert describe_space(FlagBundle(3)) == "flag(A3)"


@pytest.mark.parametrize("D", [8, 10])
def test_lazard_ranks_at_depth_eight(D):
    # the base-change suite runs over the weight-8 universal coefficients;
    # their graded ranks must be the partition numbers with no torsion,
    # also beyond that depth
    from orcohom.fgl import lazard_ring
    from oracles import partition_count

    ring = lazard_ring(D, bound=D)
    assert ring.graded_ranks(D) == [partition_count(w) for w in range(D + 1)]
    for w in range(1, D + 1):
        assert not ring.graded_basis(w).torsion


def test_universal_chern_tensor_uses_generic_series():
    from orcohom.polynomials import Polynomial
    from orcohom.presented import PresentedRing
    from orcohom.spaces import chern_tensor
    from orcohom import ZZ

    theory = universal_theory(4)
    ring = PresentedRing(theory.coefficients, [("x", 1), ("y", 1)], [], 4)
    t = chern_tensor(theory, ring, ring.var(0), ring.var(1))
    # x + y + a1_1 xy + higher coefficient terms, with a1_1 = 2*b1 in Z[b]
    assert theory.coefficients.is_one(t.coefficient(((0, 1),)))
    a11 = t.coefficient(((0, 1), (1, 1)))
    assert theory.coefficients.eq(
        a11, theory.coefficients.from_poly(Polynomial.variable(ZZ, 0).scale(2)))


def test_unexpected_error_in_isomorphism_check_propagates(monkeypatch, capsys):
    # an error inside the forward check must surface, in the library and
    # as an internal error (exit 3) from the CLI, never as a False verdict
    from orcohom import cli

    def fail(self, w):
        raise ArithmeticError("injected")

    monkeypatch.setattr(PresentedRing, "graded_basis", fail)
    with pytest.raises(ArithmeticError, match="injected"):
        verify_conner_floyd(ProjectiveSpace(1), 4)
    assert cli.main(["conner-floyd", "--space", '{"Pn":1}', "--truncation", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ArithmeticError: injected")

import json

from orcohom.coefficients import ModularRing, QQ, ZZ, laurent_over
from orcohom.fgl import lazard_ring, make_multiplicative
from orcohom.polynomials import Polynomial
from orcohom.presented import PresentedRing, QuotientCoefficients
from orcohom.serialize import (
    base_ring_from_json,
    base_ring_to_json,
    canonical_dumps,
    diagram_to_json,
    fgl_from_json,
    fgl_to_json,
    poly_from_json,
    poly_to_json,
    presented_ring_from_json,
    presented_ring_to_json,
    schemas,
    space_from_json,
    space_to_json,
    telescope_from_json,
    tower_from_json,
)
from orcohom.spaces import GrassmannianBundle, Product, ProjectiveSpace, additive_theory, cohomology
from orcohom.towers import FPModule, GradedFPModule, GradedMap, ModuleTower, TelescopeDiagram

from oracles import int_poly


def roundtrip_bytes(to_json, from_json, obj):
    doc = to_json(obj)
    text = canonical_dumps(doc)
    back = from_json(json.loads(text))
    assert canonical_dumps(to_json(back)) == text
    return back


def test_base_ring_round_trips():
    rings = [ZZ, QQ, ModularRing(6), laurent_over(ZZ, "b", -1),
             QuotientCoefficients(PresentedRing(ZZ, [("l", 1)],
                                                [int_poly(ZZ, {((0, 3),): 1})], 4))]
    for r in rings:
        back = roundtrip_bytes(base_ring_to_json, base_ring_from_json, r)
        assert back == r


def test_polynomial_round_trip_graded_lex():
    L = laurent_over(ZZ, "b", -1)
    p = Polynomial(L, {
        ((0, 1), (1, 1)): L.generator(),
        ((1, 2),): L.from_int(-3),
        (): {-2: ZZ.one()},
    })
    doc = poly_to_json(p, (1, 1), 2)
    assert doc[0][0] in ([1, 1], [0, 2])  # weight-2 monomials lead
    back = poly_from_json(L, doc)
    assert back == p
    assert canonical_dumps(poly_to_json(back, (1, 1), 2)) == canonical_dumps(doc)


def test_presented_ring_round_trip():
    th = additive_theory(truncation=8)
    for space in (ProjectiveSpace(3), GrassmannianBundle(2, 4),
                  Product(ProjectiveSpace(1), ProjectiveSpace(1))):
        ring = cohomology(th, space, 6)
        back = roundtrip_bytes(presented_ring_to_json, presented_ring_from_json, ring)
        assert back == ring
        assert back.graded_ranks() == ring.graded_ranks()


def test_lazard_ring_exports_as_presented_ring():
    ring = lazard_ring(4)
    back = roundtrip_bytes(presented_ring_to_json, presented_ring_from_json, ring)
    assert back.graded_ranks(4) == ring.graded_ranks(4)


def test_fgl_round_trip_with_beta():
    law = make_multiplicative(truncation=6)
    back = roundtrip_bytes(fgl_to_json, fgl_from_json, law)
    assert back.series == law.series
    assert back.base.eq(back.beta, law.beta)


def test_space_round_trips():
    th = additive_theory(truncation=8)
    base = cohomology(th, ProjectiveSpace(2), 6)
    h = Polynomial.variable(ZZ, 0)
    from orcohom.spaces import FlagBundle, ProjectiveBundle
    spaces = [ProjectiveSpace(4), GrassmannianBundle(2, 5),
              Product(ProjectiveSpace(1), GrassmannianBundle(1, 2)),
              FlagBundle(2, [h.scale(ZZ.from_int(3))], base_ring=base),
              ProjectiveBundle(2, [h, h * h], base_ring=base),
              GrassmannianBundle(1, 3, [h.scale(ZZ.from_int(-2))], base_ring=base)]
    for s in spaces:
        doc = canonical_dumps(space_to_json(s))
        back = space_from_json(json.loads(doc))
        assert canonical_dumps(space_to_json(back)) == doc


def test_tower_round_trip():
    gm = GradedFPModule({0: FPModule.modular(8, 1), 1: FPModule.free(2)})
    mp = GradedMap({0: [[2]], 1: [[1, 0], [1, 1]]})
    tower = ModuleTower([gm] * 3, [mp] * 2, periodicity=(0, 1))
    back = roundtrip_bytes(diagram_to_json, tower_from_json, tower)
    assert back.periodicity == (0, 1)
    # an old document's surjectivity key is not written back
    doc = {**diagram_to_json(tower), "surjectivity": [False, False]}
    assert diagram_to_json(tower_from_json(doc)) == diagram_to_json(tower)
    tele = TelescopeDiagram([gm] * 3, [mp] * 2, periodicity=(0, 1))
    roundtrip_bytes(diagram_to_json, telescope_from_json, tele)


def test_schema_versioned():
    s = schemas()
    assert s["schemaVersion"] == 1
    assert "PresentedRing" in s and "ModuleTower" in s

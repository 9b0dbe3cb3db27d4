import json

from orcohom.coefficients import ModularRing, QQ, ZZ, laurent_over
from orcohom.fgl import lazard_ring, make_additive, make_multiplicative
from orcohom.polynomials import Polynomial
from orcohom.presented import PresentedRing, QuotientCoefficients
from orcohom.serialize import (
    base_ring_from_json,
    base_ring_to_json,
    canonical_dumps,
    fgl_from_json,
    poly_from_json,
    poly_to_json,
    presented_ring_from_json,
    presented_ring_to_json,
    schemas,
    space_from_json,
    telescope_from_json,
    tower_from_json,
)
from orcohom.spaces import (
    ClassifyingBGL,
    FlagBundle,
    GrassmannianBundle,
    InfiniteProjectiveSpace,
    Product,
    ProjectiveBundle,
    ProjectiveSpace,
    additive_theory,
    cohomology,
)
from orcohom.towers import ModuleTower, TelescopeDiagram

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


def test_fgl_reader_with_and_without_beta():
    # x + y - b x y over Z[b, 1/b]; an old document's beta key is ignored
    law = fgl_from_json({
        "base": {"kind": "LaurentAdjoined", "base": {"kind": "Integers"}, "symbol": "b", "weight": -1},
        "series": [[[1, 1], "-1@1"], [[1, 0], "1@0"], [[0, 1], "1@0"]],
        "truncation": 6, "beta": "1@1"})
    want = make_multiplicative(truncation=6)
    assert law.base == want.base and law.truncation == 6
    assert law.series == want.series
    # a null, missing or malformed beta leaves the law the same
    for extra in ({"beta": None}, {}, {"beta": "not a coefficient"}):
        law = fgl_from_json({"base": {"kind": "Integers"},
                             "series": [[[1, 0], "1"], [[0, 1], "1"]], "truncation": 4, **extra})
        assert law.base == ZZ and law.truncation == 4
        assert law.series == make_additive(truncation=4).series


# Z[l]/(l^3) truncated at 8, with Chern classes 3l and 2l^2
BASE_DOC = {"base": {"kind": "Integers"}, "variables": [["l", 1]],
            "relations": [[[[3], "1"]]], "truncation": 8}
CHERN_DOC = [[[[1], "3"]], [[[2], "2"]]]


def test_space_reader_decodes_every_tag():
    l = Polynomial.variable(ZZ, 0)
    base = PresentedRing(ZZ, [("l", 1)], [l * l * l], 8)
    chern = (l.scale(ZZ.from_int(3)), (l * l).scale(ZZ.from_int(2)))

    point = space_from_json("point")
    assert type(point) is ProjectiveSpace and point.n == 0
    for doc in ("Pinf", {"Pinf": True}):
        assert type(space_from_json(doc)) is InfiniteProjectiveSpace
    pn = space_from_json({"Pn": 3})
    assert type(pn) is ProjectiveSpace and pn.n == 3
    for doc, n in (({"BGL": "inf"}, None), ({"BGL": None}, None), ({"BGL": 4}, 4)):
        bgl = space_from_json(doc)
        assert type(bgl) is ClassifyingBGL and bgl.n == n

    grass = space_from_json({"Grassmannian": {"m": 2, "n": 5, "base": BASE_DOC, "chern": CHERN_DOC}})
    assert type(grass) is GrassmannianBundle and (grass.m, grass.n) == (2, 5)
    flag = space_from_json({"Flag": {"n": 3, "base": BASE_DOC, "chern": CHERN_DOC}})
    assert type(flag) is FlagBundle and flag.rank == 3
    bundle = space_from_json({"ProjectiveBundle": {"rank": 2, "base": BASE_DOC, "chern": CHERN_DOC}})
    assert type(bundle) is ProjectiveBundle and bundle.rank == 2
    for s in (grass, flag, bundle):
        assert s.base_ring == base
        assert s.chern == chern

    # without a base the classes are read over Z
    plain = space_from_json({"Flag": {"n": 2, "chern": [[[[1], "3"]]]}})
    assert plain.base_ring is None and plain.chern == (l.scale(ZZ.from_int(3)),)
    assert space_from_json({"Grassmannian": {"m": 1, "n": 3}}).chern == ()

    prod = space_from_json({"Product": ["point", {"Product": [{"Pn": 1}, {"BGL": 2}]}]})
    assert type(prod) is Product and type(prod.left) is ProjectiveSpace and prod.left.n == 0
    assert type(prod.right) is Product
    assert (prod.right.left.n, prod.right.right.n) == (1, 2)


DIAGRAM_DOC = {
    "stages": [{"0": {"ngens": 1, "relations": [[8]]}, "1": {"ngens": 2, "relations": []}}] * 3,
    "maps": [{"0": [[2]], "1": [[1, 0], [1, 1]]}] * 2,
    "periodicity": [0, 1],
}


def test_tower_and_telescope_readers():
    # an old document's surjectivity key is ignored
    for reader, kind, doc in ((tower_from_json, ModuleTower, DIAGRAM_DOC),
                              (tower_from_json, ModuleTower, {**DIAGRAM_DOC, "surjectivity": [False, False]}),
                              (telescope_from_json, TelescopeDiagram, DIAGRAM_DOC)):
        diagram = reader(doc)
        assert type(diagram) is kind
        assert diagram.periodicity == (0, 1)
        assert len(diagram.stages) == 3 and len(diagram.maps) == 2
        for stage in diagram.stages:
            assert sorted(stage.pieces) == [0, 1]
            assert (stage.piece(0).ngens, stage.piece(0).relations) == (1, [[8]])
            assert (stage.piece(1).ngens, stage.piece(1).relations) == (2, [])
        for m in diagram.maps:
            assert m.matrices == {0: [[2]], 1: [[1, 0], [1, 1]]}
    assert tower_from_json({**DIAGRAM_DOC, "periodicity": None}).periodicity is None
    assert telescope_from_json({k: v for k, v in DIAGRAM_DOC.items() if k != "periodicity"}).periodicity is None


def test_schema_versioned():
    s = schemas()
    assert s["schemaVersion"] == 1
    assert "PresentedRing" in s and "ModuleTower" in s

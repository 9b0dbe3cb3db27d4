import random

import pytest

from orcohom.spaces import ProjectiveSpace, additive_theory, cohomology
from orcohom.towers import (
    FPModule,
    GradedFPModule,
    GradedMap,
    ModuleTower,
    TelescopeDiagram,
    UndecidableTower,
    random_split_tower,
    random_surjective_tower,
    random_unimodular,
    split_tower_compare,
    telescope_colimit,
    tower_limit_and_lim1,
)

from oracles import mod_p_rank, telescope_stable_ranks


def constant_tower(module, matrix, stages=4):
    gm = GradedFPModule({0: module})
    mp = GradedMap({0: matrix})
    return ModuleTower([gm] * stages, [mp] * (stages - 1), periodicity=(0, 1))


def test_constant_integer_tower():
    t = constant_tower(FPModule.free(1), [[1]])
    lim, lim1 = tower_limit_and_lim1(t, 0)
    assert (lim["rank"], lim["torsion"], lim["exact"]) == (1, [], True)
    assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)


def test_z8_times_two_tower():
    t = constant_tower(FPModule.modular(8, 1), [[2]])
    lim, lim1 = tower_limit_and_lim1(t, 0)
    assert (lim["rank"], lim["torsion"], lim["exact"]) == (0, [], True)
    assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)


@pytest.mark.parametrize("n, m", [(12, 2), (9, 3), (10, 3), (36, 6), (7, 0)])
def test_cyclic_tower_limit_is_the_stable_image(n, m):
    # brute force: iterate the image set of x -> m x on Z/n until it stops
    # shrinking; the limit is that stable image, a cyclic group
    image = set(range(n))
    while True:
        nxt = {m * x % n for x in image}
        if nxt == image:
            break
        image = nxt
    lim, lim1 = tower_limit_and_lim1(constant_tower(FPModule.modular(n, 1), [[m]]), 0)
    assert lim["exact"] and (lim["rank"], lim1["rank"], lim1["torsion"]) == (0, 0, [])
    assert lim["torsion"] == ([len(image)] if len(image) > 1 else [])


def test_truncation_tower_of_projective_spaces():
    th = additive_theory(truncation=6)
    w_max = 3
    stages = []
    for n in range(3, 7):
        ring = cohomology(th, ProjectiveSpace(n), 6)
        pieces = {w: FPModule.free(ring.graded_basis(w).free_rank) for w in range(w_max + 1)}
        stages.append(GradedFPModule(pieces))
    maps = []
    for k in range(3):
        mats = {w: [[1 if i == j else 0 for j in range(stages[k + 1].piece(w).ngens)]
                    for i in range(stages[k].piece(w).ngens)] for w in range(w_max + 1)}
        maps.append(GradedMap(mats))
    tower = ModuleTower(stages, maps, periodicity=(0, 1))
    for w in range(w_max + 1):
        lim, lim1 = tower_limit_and_lim1(tower, w)
        assert (lim["rank"], lim["exact"]) == (1, True)
        assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)


def test_undecidable_tower():
    gm = GradedFPModule({0: FPModule.free(1)})
    mp = GradedMap({0: [[2]]})
    t = ModuleTower([gm] * 3, [mp] * 2, periodicity=None)
    with pytest.raises(UndecidableTower):
        tower_limit_and_lim1(t, 0)


def test_adic_window_is_flagged_partial():
    t = constant_tower(FPModule.free(1), [[2]])
    lim, lim1 = tower_limit_and_lim1(t, 0)
    assert not lim["exact"] and not lim1["exact"]


def test_periodicity_validated():
    gm1 = GradedFPModule({0: FPModule.free(1)})
    gm2 = GradedFPModule({0: FPModule.free(2)})
    mp = GradedMap({0: [[1, 0]]})
    with pytest.raises(ValueError):
        ModuleTower([gm1, gm2, gm1], [mp, GradedMap({0: [[1], [0]]})], periodicity=(0, 1))


def test_randomized_surjective_towers():
    # the generator fixes the limit: the window stage, Z^n or (Z/p)^n
    rng = random.Random(2024)
    for _ in range(100):
        tower = random_surjective_tower(rng)
        lim, lim1 = tower_limit_and_lim1(tower, 0)
        assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)
        stage = tower.stages[tower.periodicity[0]].piece(0)
        if stage.relations:
            p = stage.relations[0][0]
            assert stage.relations == [[p * (i == j) for j in range(stage.ngens)]
                                       for i in range(stage.ngens)]
            expected = (0, [p] * stage.ngens)
        else:
            p = 10 ** 9 + 7  # generic characteristic
            expected = (stage.ngens, [])
        assert (lim["rank"], lim["torsion"], lim["exact"]) == (*expected, True)
        # oracle: every connecting map is onto mod p
        for k in range(len(tower.maps)):
            assert mod_p_rank(tower.map_matrix(k, 0), p) == tower.stages[k].piece(0).ngens


def test_randomized_split_towers():
    rng = random.Random(777)
    for _ in range(20):
        Y, Z, r, s, g = random_split_tower(rng)
        rep = split_tower_compare(Y, Z, r, s, g)
        assert rep["ok"], rep
        for entry in rep["per_weight"]:
            assert entry["complement_self_map_zero"]
            # the complement of (Z/5)^a in (Z/5)^(a+b) is (Z/5)^b
            extra = Y.stages[0].piece(0).ngens - Z.stages[0].piece(0).ngens
            assert (entry["complement_rank"], entry["complement_torsion"]) == (0, [5] * extra)


def test_split_compare_free_complement():
    y = constant_tower(FPModule.free(3), [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    z = constant_tower(FPModule.free(1), [[1]])
    rep = split_tower_compare(y, z, GradedMap({0: [[1, 0, 0]]}), GradedMap({0: [[1], [0], [0]]}))
    entry = rep["per_weight"][0]
    assert (entry["complement_rank"], entry["complement_torsion"]) == (2, [])
    assert entry["complement_self_map_zero"]


def test_split_compare_mixed_torsion_complement():
    # Y = Z/4 + Z/3 retracting onto Z/4 leaves Z/3
    y = constant_tower(FPModule(2, [[4, 0], [0, 3]]), [[1, 0], [0, 0]])
    z = constant_tower(FPModule.modular(4, 1), [[1]])
    rep = split_tower_compare(y, z, GradedMap({0: [[1, 0]]}), GradedMap({0: [[1], [0]]}))
    entry = rep["per_weight"][0]
    assert rep["ok"]
    assert (entry["complement_rank"], entry["complement_torsion"]) == (0, [3])


def test_split_compare_trivial_complement():
    z = constant_tower(FPModule.free(2), [[1, 1], [0, 1]])
    ident = GradedMap({0: [[1, 0], [0, 1]]})
    rep = split_tower_compare(z, z, ident, ident)
    assert rep["ok"]
    assert rep["per_weight"][0]["complement_rank"] == 0
    assert rep["per_weight"][0]["complement_torsion"] == []


def test_split_compare_detects_hypothesis_failure():
    y = constant_tower(FPModule.free(2), [[1, 0], [0, 1]])
    z = constant_tower(FPModule.free(1), [[1]])
    r = GradedMap({0: [[1, 0]]})
    s = GradedMap({0: [[1], [0]]})
    rep = split_tower_compare(y, z, r, s)  # f = id is not s g r
    assert not rep["ok"]
    assert rep["per_weight"][0]["failure"] == "f differs from s g r"


def test_split_compare_weight_missing_from_the_retract():
    # Y lives in weights 0 and 1, Z only in weight 0: in weight 1 the
    # maps r and s are empty, s g r is the zero endomorphism of Z, and
    # f = id differs from it
    y = ModuleTower([GradedFPModule({0: FPModule.free(1), 1: FPModule.free(1)})] * 4,
                    [GradedMap({0: [[1]], 1: [[1]]})] * 3, periodicity=(0, 1))
    z = constant_tower(FPModule.free(1), [[1]])
    rep = split_tower_compare(y, z, GradedMap({0: [[1]]}), GradedMap({0: [[1]]}))
    assert not rep["ok"]
    assert [e["weight"] for e in rep["per_weight"]] == [0, 1]
    assert rep["per_weight"][1]["failure"] == "f differs from s g r"


def test_brute_force_shift_kernel_agrees_on_split_towers():
    # lim of a Z/p split tower equals the stabilized projection of the
    # kernel of (1 - shift) on a long finite window, computed mod p
    rng = random.Random(31)
    for _ in range(10):
        Y, Z, r, s, g = random_split_tower(rng)
        lim, _ = tower_limit_and_lim1(Y, 0)
        p = 5
        f = Y.map_matrix(0, 0)
        n = Y.stages[0].piece(0).ngens
        # kernel projection: x0 with x0 = f x1, x1 = f x2, ... = image of f^K
        from orcohom.towers import compose_matrices
        comp = f
        for _ in range(12):
            comp = compose_matrices(comp, f, n)
        proj_rank = mod_p_rank(comp, p)
        expected_torsion = [p] * proj_rank
        assert lim["torsion"] == expected_torsion


def _random_even_relations(rng, nrel, ngens):
    return [[2 * rng.randint(-4, 4) for _ in range(ngens)] for _ in range(nrel)]


def test_solve_and_contains_on_the_relation_lattice():
    rng = random.Random(5)
    for _ in range(50):
        ngens = rng.randint(1, 5)
        relations = _random_even_relations(rng, rng.randint(0, 5), ngens)
        module = FPModule(ngens, relations)
        h, _ = module.lattice
        coeffs = [rng.randint(-5, 5) for _ in relations]
        vec = [sum(c * rel[j] for c, rel in zip(coeffs, relations)) for j in range(ngens)]
        assert module.contains(vec)
        sol = module.solve(vec)
        assert [sum(c * row[j] for c, row in zip(sol, h)) for j in range(ngens)] == vec
        # every relation entry is even, so an odd coordinate is off the lattice
        off = list(vec)
        off[rng.randrange(ngens)] += 1
        assert not module.contains(off) and module.solve(off) is None


def test_same_presentation_on_two_generating_sets():
    rng = random.Random(11)
    for _ in range(20):
        ngens = rng.randint(1, 4)
        relations = _random_even_relations(rng, rng.randint(1, 4), ngens)
        u = random_unimodular(rng, len(relations))
        mixed = [[sum(u[i][k] * relations[k][j] for k in range(len(relations))) for j in range(ngens)]
                 for i in range(len(relations))]
        redundant = [[a + b for a, b in zip(relations[0], relations[-1])]]
        a = FPModule(ngens, relations)
        b = FPModule(ngens, mixed + redundant)
        assert a.same_presentation(b) and b.same_presentation(a)
        assert a.rank_torsion() == b.rank_torsion()
    assert not FPModule(2, [[2, 0]]).same_presentation(FPModule(2, [[4, 0]]))
    assert not FPModule(2, [[2, 0]]).same_presentation(FPModule(3, [[2, 0, 0]]))


def test_telescope_examples():
    gm = GradedFPModule({0: FPModule.free(1)})
    const = TelescopeDiagram([gm] * 4, [GradedMap({0: [[1]]})] * 3, periodicity=(0, 1))
    rep = telescope_colimit(const, 0)
    assert (rep["rank"], rep["exact"]) == (1, True)
    double = TelescopeDiagram([gm] * 4, [GradedMap({0: [[2]]})] * 3, periodicity=(0, 1))
    rep = telescope_colimit(double, 0)
    assert rep["rank"] == 1 and rep.get("localized_at") == 2
    partial = TelescopeDiagram([gm] * 3, [GradedMap({0: [[3]]})] * 2)
    assert not telescope_colimit(partial, 0)["exact"]
    short = TelescopeDiagram([gm] * 3, [GradedMap({0: [[2]]}), GradedMap({0: [[1]]})],
                             periodicity=(0, 3))
    with pytest.raises(ValueError, match="do not cover the periodic window"):
        telescope_colimit(short, 0)


def _z2_telescope(mat):
    gm = GradedFPModule({0: FPModule.free(len(mat))})
    return TelescopeDiagram([gm] * 4, [GradedMap({0: mat})] * 3, periodicity=(0, 1))


@pytest.mark.parametrize("mat, stable", [
    ([[2, 0], [0, 3]], "s_2=1, s_3=1"),  # Z[1/2] + Z[1/3], not Z[1/6]^2
    ([[2, 0], [0, 1]], "s_2=1"),  # Z[1/2] + Z
    ([[2, 1], [0, 1]], "s_2=1"),
])
def test_telescope_with_a_prime_not_inverted_is_partial(mat, stable):
    rep = telescope_colimit(_z2_telescope(mat), 0)
    assert rep["exact"] is False and "localized_at" not in rep
    assert rep["rank"] == 2
    assert rep["note"].endswith(stable)


def test_telescope_verdict_matches_brute_force_oracle():
    # exact Z[1/d]^n exactly when the window is nilpotent mod every p | d
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        n = rng.choice([2, 3])
        mat = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        stable = telescope_stable_ranks(mat)
        if not stable:
            continue  # determinant 0 or a unit: other regimes
        rep = telescope_colimit(_z2_telescope(mat), 0)
        assert rep["exact"] == (not any(stable.values())), (mat, rep)
        if not rep["exact"]:
            assert rep["note"].endswith(", ".join(f"s_{p}={s}" for p, s in stable.items())), mat
        checked += 1


def test_telescope_bott_system():
    # reduced line-bundle power system: weight piece stabilizes to rank 1
    # once the stage index passes the weight
    th = additive_theory(truncation=6)
    ring = cohomology(th, __import__("orcohom.spaces", fromlist=["InfiniteProjectiveSpace"]).InfiniteProjectiveSpace(), 6)
    w = 0
    stages = []
    for k in range(5):
        rank = ring.graded_basis(w + k).free_rank if w + k >= 1 else 0
        stages.append(GradedFPModule({0: FPModule.free(rank)}))
    maps = []
    for k in range(4):
        src = stages[k].piece(0).ngens
        tgt = stages[k + 1].piece(0).ngens
        maps.append(GradedMap({0: [[1 if i == j else 0 for j in range(src)] for i in range(tgt)]}))
    tele = TelescopeDiagram(stages, maps, periodicity=(1, 1))
    rep = telescope_colimit(tele, 0)
    assert rep["rank"] == 1 and rep["exact"]

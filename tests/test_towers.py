import math
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

from oracles import (finite_stable_image_kill_counts, mod_p_rank, split_complement_by_kernel,
                     stable_image_by_definition, telescope_stable_part, torsion_via_minor_gcd)


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


def _complement(entry):
    return entry["complement_rank"], entry["complement_torsion"]


def _complement_by_kernel(Y, Z, r, w=0):
    """ker(r) by the kernel route, the reference for the image of 1 - s r."""
    ym, zm = Y.stages[0].piece(w), Z.stages[0].piece(w)
    return split_complement_by_kernel(r.matrix(w, zm.ngens, ym.ngens), ym, zm)


def test_randomized_split_towers():
    rng = random.Random(777)
    for _ in range(200):
        Y, Z, r, s, g = random_split_tower(rng)
        rep = split_tower_compare(Y, Z, r, s, g)
        assert rep["ok"], rep
        for entry in rep["per_weight"]:
            # the complement of (Z/5)^a in (Z/5)^(a+b) is (Z/5)^b
            extra = Y.stages[0].piece(0).ngens - Z.stages[0].piece(0).ngens
            assert _complement(entry) == (0, [5] * extra) == _complement_by_kernel(Y, Z, r)


def test_split_compare_free_complement():
    y = constant_tower(FPModule.free(3), [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    z = constant_tower(FPModule.free(1), [[1]])
    r = GradedMap({0: [[1, 0, 0]]})
    rep = split_tower_compare(y, z, r, GradedMap({0: [[1], [0], [0]]}))
    assert _complement(rep["per_weight"][0]) == (2, []) == _complement_by_kernel(y, z, r)


def test_split_compare_skew_section():
    # Z^2 onto Z by (1, 1) with section (0, 1): the image of 1 - s r is
    # spanned by (1, -1), the kernel of r
    y = constant_tower(FPModule.free(2), [[0, 0], [0, 0]])
    z = constant_tower(FPModule.free(1), [[0]])
    r = GradedMap({0: [[1, 1]]})
    rep = split_tower_compare(y, z, r, GradedMap({0: [[0], [1]]}))
    assert rep["ok"], rep
    assert _complement(rep["per_weight"][0]) == (1, []) == _complement_by_kernel(y, z, r)


def test_split_compare_mixed_torsion_complement():
    # Y = Z/4 + Z/3 retracting onto Z/4 leaves Z/3
    y = constant_tower(FPModule(2, [[4, 0], [0, 3]]), [[1, 0], [0, 0]])
    z = constant_tower(FPModule.modular(4, 1), [[1]])
    r = GradedMap({0: [[1, 0]]})
    rep = split_tower_compare(y, z, r, GradedMap({0: [[1], [0]]}))
    assert rep["ok"]
    assert _complement(rep["per_weight"][0]) == (0, [3]) == _complement_by_kernel(y, z, r)


def test_split_compare_trivial_complement():
    z = constant_tower(FPModule.free(2), [[1, 1], [0, 1]])
    ident = GradedMap({0: [[1, 0], [0, 1]]})
    rep = split_tower_compare(z, z, ident, ident)
    assert rep["ok"]
    assert _complement(rep["per_weight"][0]) == (0, []) == _complement_by_kernel(z, z, ident)


def test_split_compare_detects_hypothesis_failure():
    y = constant_tower(FPModule.free(2), [[1, 0], [0, 1]])
    z = constant_tower(FPModule.free(1), [[1]])
    r = GradedMap({0: [[1, 0]]})
    s = GradedMap({0: [[1], [0]]})
    rep = split_tower_compare(y, z, r, s)  # f = id is not s g r
    assert not rep["ok"]
    assert rep["per_weight"][0]["failure"] == "f differs from s g r"


def test_split_compare_detects_a_section_that_is_not_split():
    # r s = 2 on Z: the verdict names the failed hypothesis r s = 1
    # before looking at f = s g r
    y = constant_tower(FPModule.free(2), [[1, 0], [0, 1]])
    z = constant_tower(FPModule.free(1), [[1]])
    rep = split_tower_compare(y, z, GradedMap({0: [[2, 0]]}), GradedMap({0: [[1], [0]]}))
    assert rep == {"ok": False, "per_weight": [{"weight": 0, "failure": "r s is not the identity"}]}


@pytest.mark.parametrize("which", ["Y", "Z"])
def test_split_compare_refuses_a_window_other_than_0_1(which):
    # both towers must be constant: a window starting at stage 1 is refused
    # even when the stages agree from stage 0
    towers = {name: constant_tower(FPModule.free(1), [[1]]) for name in ("Y", "Z")}
    gm = GradedFPModule({0: FPModule.free(1)})
    towers[which] = ModuleTower([gm] * 4, [GradedMap({0: [[1]]})] * 3, periodicity=(1, 1))
    with pytest.raises(ValueError, match=f"{which} must be a constant periodic tower"):
        split_tower_compare(towers["Y"], towers["Z"], GradedMap({0: [[1]]}), GradedMap({0: [[1]]}))


@pytest.mark.parametrize("cls", [ModuleTower, TelescopeDiagram])
@pytest.mark.parametrize("nmaps", [1, 3])
def test_stage_systems_need_one_map_per_adjacent_pair(cls, nmaps):
    gm = GradedFPModule({0: FPModule.free(1)})
    with pytest.raises(ValueError, match="need one connecting map per adjacent stage pair"):
        cls([gm] * 3, [GradedMap({0: [[1]]})] * nmaps)


@pytest.mark.parametrize("cls", [ModuleTower, TelescopeDiagram])
@pytest.mark.parametrize("window", [(-1, 1), (0, 0)])
def test_stage_systems_refuse_a_negative_start_or_empty_period(cls, window):
    # the stored stages and maps are constant, so only the window is wrong
    gm = GradedFPModule({0: FPModule.free(1)})
    with pytest.raises(ValueError, match="periodicity window must have k0 >= 0, rho >= 1"):
        cls([gm] * 3, [GradedMap({0: [[1]]})] * 2, periodicity=window)


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2)])
def test_graded_map_refuses_a_matrix_of_the_wrong_shape(rows, cols):
    gm = GradedMap({0: [[1, 0]]})
    assert gm.matrix(0, 1, 2) == [[1, 0]]
    assert gm.matrix(1, 2, 1) == [[0], [0]]  # a missing weight is the zero map
    with pytest.raises(ValueError, match="matrix shape mismatch in weight 0"):
        gm.matrix(0, rows, cols)


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


def _window_telescope(module, mat):
    gm = GradedFPModule({0: module})
    return TelescopeDiagram([gm] * 4, [GradedMap({0: mat})] * 3, periodicity=(0, 1))


def _z2_telescope(mat):
    return _window_telescope(FPModule.free(len(mat)), mat)


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


@pytest.mark.parametrize("mat, d", [
    ([[10000019 * 10000079]], 10000019 * 10000079),  # trial division to sqrt(d) took a second
    ([[6, 0], [0, 6]], 36),
    ([[4, 0], [0, 2]], 8),
])
def test_exact_localization_does_not_factor_d(monkeypatch, mat, d):
    import orcohom.towers as towers

    def refuse(n):
        raise AssertionError(f"{n} was factored")
    monkeypatch.setattr(towers, "_prime_divisors", refuse)
    rep = telescope_colimit(_z2_telescope(mat), 0)
    assert (rep["rank"], rep["exact"], rep["localized_at"]) == (len(mat), True, d)


def _random_windows(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([2, 3])
        yield [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]


def test_telescope_verdict_matches_brute_force_oracle():
    # Z^r when h is unimodular on its stable image, else exact Z[1/d]^r
    # exactly when the window is nilpotent mod every p | d; singular
    # windows included
    singular = 0
    for mat in _random_windows(16, 80):
        r, d, stable = telescope_stable_part(mat)
        rep = telescope_colimit(_z2_telescope(mat), 0)
        assert rep["rank"] == r, (mat, rep)
        assert rep["exact"] == (not any(stable.values())), (mat, rep)
        assert rep.get("localized_at") == (d if rep["exact"] and d > 1 else None), (mat, rep)
        if not rep["exact"]:
            assert rep["note"].endswith(", ".join(f"s_{p}={s}" for p, s in stable.items())), mat
        singular += r < len(mat)
    assert singular >= 10


def test_tower_verdict_matches_the_principal_minor_oracle():
    # exact lim = Z^r, lim1 = 0 exactly when h is unimodular on its
    # stable image; otherwise partial, naming that determinant
    singular = 0
    for mat in _random_windows(19, 80):
        r, d, _ = telescope_stable_part(mat)
        lim, lim1 = tower_limit_and_lim1(constant_tower(FPModule.free(len(mat)), mat), 0)
        if d == 1:
            assert (lim["rank"], lim["torsion"], lim["exact"]) == (r, [], True), mat
            assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True), mat
        else:
            assert not lim["exact"] and not lim1["exact"], mat
            assert lim["note"] == f"partial: window determinant {d}; limit is an adic object", mat
        singular += r < len(mat)
    assert singular >= 10


@pytest.mark.parametrize("mat, rank, localized_at", [
    ([[2, 0], [0, 0]], 1, 2),  # Z[1/2]
    ([[1, 0], [0, 0]], 1, None),  # Z
    ([[0, 1], [0, 0]], 0, None),  # nilpotent: 0
])
def test_telescope_singular_windows_are_exact(mat, rank, localized_at):
    rep = telescope_colimit(_z2_telescope(mat), 0)
    assert (rep["rank"], rep["torsion"], rep["exact"]) == (rank, [], True)
    assert rep.get("localized_at") == localized_at


def test_tower_singular_windows():
    lim, lim1 = tower_limit_and_lim1(constant_tower(FPModule.free(2), [[1, 0], [0, 0]]), 0)
    assert (lim["rank"], lim["torsion"], lim["exact"]) == (1, [], True)
    assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)
    lim, lim1 = tower_limit_and_lim1(constant_tower(FPModule.free(2), [[2, 0], [0, 0]]), 0)
    assert not lim["exact"] and not lim1["exact"]
    assert lim["note"] == "partial: window determinant 2; limit is an adic object"


def _behind_a_z_stage(tower, rng):
    """The tower with a Z stage put before stage 0 in weight 0, reached by
    a zero map or, from a free stage, by twice the first coordinate."""
    first = tower.stages[0].piece(0)
    row = [0] * first.ngens
    if not first.relations and rng.random() < 0.5:
        row[0] = 2
    z = GradedFPModule({0: FPModule.free(1)})
    k0, rho = tower.periodicity
    return ModuleTower([z] + tower.stages, [GradedMap({0: [row]})] + tower.maps,
                       periodicity=(k0 + 1, rho))


def test_stages_before_the_window_leave_the_limits_unchanged():
    rng = random.Random(41)
    towers = [random_surjective_tower(rng) for _ in range(30)]
    towers += [random_split_tower(rng)[0] for _ in range(10)]
    for tower in towers:
        longer = _behind_a_z_stage(tower, rng)
        assert not longer.map_surjective(0, 0)
        for before, after in zip(tower_limit_and_lim1(tower, 0), tower_limit_and_lim1(longer, 0)):
            assert (after["rank"], after["torsion"], after["exact"]) == \
                (before["rank"], before["torsion"], True)
    # Z <-0- Z/2 <-1- Z/2 <-1- ...: the limit is Z/2, exact
    z2 = constant_tower(FPModule.modular(2, 1), [[1]])
    lim, lim1 = tower_limit_and_lim1(_behind_a_z_stage(z2, rng), 0)
    assert (lim["rank"], lim["torsion"], lim["exact"]) == (0, [2], True)
    assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)


def test_towers_without_a_window():
    # surjective or finite stages give lim1 = 0 exactly, but no limit
    z4 = GradedFPModule({0: FPModule.modular(4, 1)})
    onto = ModuleTower([z4] * 3, [GradedMap({0: [[1]]})] * 2)
    lim, lim1 = tower_limit_and_lim1(onto, 0)
    assert lim == {"rank": 0, "torsion": [4], "exact": False,
                   "note": "partial: surjectivity without a periodic window"}
    assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)
    finite = ModuleTower([z4] * 3, [GradedMap({0: [[2]]})] * 2)
    lim, lim1 = tower_limit_and_lim1(finite, 0)
    assert lim == {"rank": None, "torsion": None, "exact": False,
                   "note": "partial: finite stages without a periodic window"}
    assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True)


def test_mixed_window_and_torsion_telescope_are_partial():
    # Z + Z/2 under diag(2, 1), as a tower and as a telescope
    window = FPModule(2, [[0, 2]])
    lim, lim1 = tower_limit_and_lim1(constant_tower(window, [[2, 0], [0, 1]]), 0)
    assert lim["note"] == lim1["note"] == "partial: mixed free/torsion non-surjective window"
    assert not lim["exact"] and not lim1["exact"]
    rep = telescope_colimit(_window_telescope(window, [[2, 0], [0, 1]]), 0)
    assert rep == {"rank": 1, "torsion": [2], "exact": False,
                   "note": "partial: torsion telescope outside the supported regimes"}


@pytest.mark.parametrize("modulus, mat, torsion", [
    (4, [[2]], []),  # nilpotent: 0
    (12, [[2]], [3]),  # Z/4 + Z/3, h kills Z/4 eventually: Z/3
    (8, [[1, 0], [0, 2]], [8]),
    (6, [[0, 1], [0, 0]], []),
])
def test_finite_telescope_windows_are_stable_images(modulus, mat, torsion):
    rep = telescope_colimit(_window_telescope(FPModule.modular(modulus, len(mat)), mat), 0)
    assert rep == {"rank": 0, "torsion": torsion, "exact": True,
                   "note": "stable image of the window composite"}


def test_finite_telescope_windows_match_the_orbit_oracle():
    # the colimit of a finite window is its stable image under h: compare
    # the count of elements killed by each divisor with a brute force
    rng = random.Random(23)
    for _ in range(60):
        modulus, n = rng.randint(2, 12), rng.choice([1, 2])
        mat = [[rng.randrange(modulus) for _ in range(n)] for _ in range(n)]
        rep = telescope_colimit(_window_telescope(FPModule.modular(modulus, n), mat), 0)
        assert rep["exact"] and rep["rank"] == 0, (modulus, mat)
        counts = {d: math.prod(math.gcd(d, t) for t in rep["torsion"])
                  for d in range(1, modulus + 1) if modulus % d == 0}
        assert counts == finite_stable_image_kill_counts(modulus, mat), (modulus, mat, rep)


def test_onto_window_behind_a_zero_map_names_its_proof():
    # Z <-0- Z/2 <-1- Z/2 <-1- ...: the first map is not onto, so lim1 = 0
    # comes from the window alone, not from a surjective tower
    z, z2 = GradedFPModule({0: FPModule.free(1)}), GradedFPModule({0: FPModule.modular(2, 1)})
    tower = ModuleTower([z, z2, z2], [GradedMap({0: [[0]]}), GradedMap({0: [[1]]})],
                        periodicity=(1, 1))
    assert not tower.map_surjective(0, 0)
    lim, lim1 = tower_limit_and_lim1(tower, 0)
    assert lim == {"rank": 0, "torsion": [2], "exact": True,
                   "note": "stable image of the window composite"}
    assert lim1 == {"rank": 0, "torsion": [], "exact": True,
                    "note": "window images stabilize (Mittag-Leffler)"}


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


def _random_window(rng, kind):
    """(module, h): Z^n modulo a diagonal of moduli (0 for a free
    coordinate), and an endomorphism: h sends torsion to torsion, and its
    entry (i, j) between torsion coordinates is a multiple of
    d_i / gcd(d_i, d_j), so every relation lands in the relations."""
    n = rng.randint(2, 3) if kind == "mixed" else rng.randint(1, 3)
    if kind == "free":
        moduli = [0] * n
    elif kind == "finite":
        moduli = [rng.choice([2, 3, 4, 6, 8, 9, 12]) for _ in range(n)]
    else:
        moduli = [0] + [rng.choice([0, 2, 4, 6, 8]) for _ in range(n - 2)] + [rng.choice([2, 3, 4, 8])]
        rng.shuffle(moduli)
    h = [[rng.randint(-2, 3) * (1 if not dj else 0 if not di else di // math.gcd(di, dj))
          for dj in moduli] for di in moduli]
    return FPModule(n, [[d * (i == j) for j in range(n)] for i, d in enumerate(moduli) if d]), h


def test_window_answers_match_the_stable_image_by_definition():
    # raw powers h^k searched to four times the chain's bound: an exact
    # lim or colimit is the first stable image, a window left partial
    # never stabilizes, and none stabilizes past the bound
    rng = random.Random(36)
    seen = {"exact_mixed": 0, "past_ngens": 0, "partial": 0, "localized": 0}
    for i in range(1050):
        kind = ("free", "finite", "mixed")[i % 3]
        module, h = _random_window(rng, kind)
        bound = module.ngens + sum(v.bit_length() for v in torsion_via_minor_gcd(module.relations,
                                                                                 module.ngens)[1])
        found = stable_image_by_definition(module, h, 4 * bound + 1)
        lim, lim1 = tower_limit_and_lim1(constant_tower(module, h, stages=2), 0)
        colim = telescope_colimit(_window_telescope(module, h), 0)
        case = (module.relations, h, found)
        if found is None:
            assert not lim["exact"] and not lim1["exact"], case
            assert not colim["exact"] or colim.get("localized_at", 1) > 1, case
            seen["partial"] += 1
            seen["localized"] += colim["exact"]
            continue
        k, rank, torsion = found
        assert k <= bound, case
        assert (lim["rank"], lim["torsion"], lim["exact"]) == (rank, torsion, True), case
        assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True), case
        assert (colim["rank"], colim["torsion"], colim["exact"]) == (rank, torsion, True), case
        assert "localized_at" not in colim, case
        seen["exact_mixed"] += kind == "mixed"
        seen["past_ngens"] += k > module.ngens
    assert min(seen.values()) >= 20, seen


def test_mixed_window_whose_images_stop_is_exact():
    # Z + Z/4 under diag(1, 2): the images fall Z + Z/4 > Z + 2Z/4 > Z
    window, mat = FPModule(2, [[0, 4]]), [[1, 0], [0, 2]]
    lim, lim1 = tower_limit_and_lim1(constant_tower(window, mat), 0)
    assert lim == {"rank": 1, "torsion": [], "exact": True,
                   "note": "stable image of the window composite"}
    assert lim1 == {"rank": 0, "torsion": [], "exact": True,
                    "note": "window images stabilize (Mittag-Leffler)"}
    assert telescope_colimit(_window_telescope(window, mat), 0) == {
        "rank": 1, "torsion": [], "exact": True, "note": "stable image of the window composite"}


def test_split_towers_have_the_limits_of_their_retract():
    # the comparison reads its limits off Z alone; computed separately,
    # Y under f = s g r has the same ones, on Z/5 blocks and on mixed Y
    rng = random.Random(8)
    towers = [random_split_tower(rng)[:2] for _ in range(40)]
    for _ in range(60):
        # Y = Z + X with X of the form Z^a + Z/m, Z a random window
        zm, g = _random_window(rng, rng.choice(["free", "finite", "mixed"]))
        a, m = rng.randint(0, 1), rng.choice([2, 3, 4])
        n, extra = zm.ngens, a + 1
        relations = [row + [0] * extra for row in zm.relations] + [[0] * (n + extra - 1) + [m]]
        r = [[int(i == j) for j in range(n + extra)] for i in range(n)]
        s = [[int(i == j) for j in range(n)] for i in range(n + extra)]
        f = [[g[i][j] if i < n and j < n else 0 for j in range(n + extra)] for i in range(n + extra)]
        y, z = constant_tower(FPModule(n + extra, relations), f), constant_tower(zm, g)
        assert split_tower_compare(y, z, GradedMap({0: r}), GradedMap({0: s}))["ok"]
        towers.append((y, z))
    for y, z in towers:
        for from_y, from_z in zip(tower_limit_and_lim1(y, 0), tower_limit_and_lim1(z, 0)):
            assert (from_y["rank"], from_y["torsion"], from_y["exact"]) == \
                (from_z["rank"], from_z["torsion"], from_z["exact"]), (y.maps[0].matrices, from_y, from_z)

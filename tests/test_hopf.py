from orcohom.coefficients import QQ, ModularRing
from orcohom.hopf import (
    additive_maps_identification,
    build_hopf,
    indecomposables,
    primitives,
)
from orcohom.partitions import partitions
from orcohom.spaces import additive_theory

import pytest

from oracles import (coassociativity_check, conjugate_partition, delta_by_duality, dominates,
                     indecomposables_by_products, partition_count, partitions_exactly_k,
                     primitive_by_kernel, zero_one_matrix_count)

TH = additive_theory(truncation=8)


def test_delta_on_generators():
    hd = build_hopf(TH, 6)
    d1 = hd.delta(1)
    assert d1[(1,)] == {((), (1,)): 1, ((1,), ()): 1}
    d2 = hd.delta(2)
    assert d2[(2,)] == {((), (2,)): 1, ((1,), (1,)): 1, ((2,), ()): 1}


def test_delta_is_algebra_map_on_squares():
    hd = build_hopf(TH, 6)
    # Delta(s1^2) must be the square of Delta(s1)
    d2 = hd.delta(2)
    assert d2[(1, 1)] == {((), (1, 1)): 1, ((1,), (1,)): 2, ((1, 1), ()): 1}


def test_coassociativity():
    hd = build_hopf(TH, 6)
    for w in range(1, 6):
        assert coassociativity_check(hd, w)


def test_primitive_ranks_are_one():
    hd = build_hopf(TH, 6)
    for w in range(1, 7):
        assert primitives(hd, w)["rank"] == 1
    hq = build_hopf(additive_theory(QQ, 8), 6)
    for w in range(1, 7):
        assert primitives(hq, w)["rank"] == 1


def test_primitive_weight_two_is_newton_direction():
    hd = build_hopf(TH, 4)
    p2 = primitives(hd, 2)
    vec = {tuple(m): c for m, c in zip(p2["monomials"], p2["basis"][0])}
    assert vec == {(2,): -2, (1, 1): 1}  # p2 = e1^2 - 2 e2


def test_primitives_are_power_sums():
    # the weight-w primitive restricted along s1 -> l has coefficient 1
    hd = build_hopf(TH, 6)
    for w in range(1, 7):
        p = primitives(hd, w)
        ones_index = p["monomials"].index([1] * w)
        assert p["basis"][0][ones_index] == 1


def test_torsion_coefficients_rejected():
    z4 = additive_theory(ModularRing(4), 4)
    with pytest.raises(ValueError, match="torsion coefficients are rejected"):
        build_hopf(z4, 4)


def test_additive_maps_identification():
    hd = build_hopf(TH, 6)
    rep = additive_maps_identification(hd)
    assert rep["ok"]
    assert rep["weight_zero_extra_rank"] == 1
    assert rep["per_weight"] == [{"weight": w, "line_rank": 1} for w in range(1, 7)]


def test_indecomposables():
    hd = build_hopf(TH, 6)
    one = indecomposables(hd, 1)
    assert one["rank"] == 1 and one["squares_rank"] == 0
    two = indecomposables(hd, 2)
    assert two["rank"] == 1 and two["basis"] == [[2]]
    assert two["squares_rank"] == 1  # spanned by b1*b1
    for w in range(1, 4):
        assert indecomposables(hd, w)["pairing_unimodular"]


@pytest.mark.parametrize("w", [0, 5, 18])
def test_indecomposables_refuse_a_weight_before_building_its_transition(w):
    # the weight is checked before the e -> m transition of weight w is built
    hd = build_hopf(TH, 4)
    with pytest.raises(ValueError, match="weight out of range"):
        indecomposables(hd, w)
    assert w not in hd._trans


def test_snake_rank_decomposition():
    # rank of the reduced algebra piece = primitives + dual of squares
    hd = build_hopf(TH, 6)
    for w in range(1, 7):
        total = partition_count(w)
        prim = primitives(hd, w)["rank"]
        squares = indecomposables(hd, w)["squares_rank"]
        assert total == prim + squares


def test_filtration_level_ranks():
    # level n of the filtration is spanned by the partitions with at most n parts
    for w in range(0, 9):
        for n in range(0, w + 1):
            exact = [p for p in partitions(w) if len(p) == n]
            assert len(exact) == partitions_exactly_k(w, n)
        assert len(partitions(w)) == partition_count(w)


@pytest.fixture(scope="module")
def hd14():
    return build_hopf(additive_theory(truncation=14), 14)


def test_indecomposables_match_the_multiplication_table(hd14):
    # the oracle enumerates every product of two positive-weight classes;
    # the library knows I/I^2 is spanned by the one-part partition
    for w in range(1, 15):
        rep = indecomposables(hd14, w)
        basis, squares = indecomposables_by_products(w)
        assert rep["basis"] == [list(p) for p in basis] == [[w]]
        assert rep["squares_rank"] == len(squares) == partition_count(w) - 1
        assert rep["pairing_unimodular"], w


def test_transition_counts_zero_one_matrices(hd14):
    # E[nu][mu] is the number of 0-1 matrices with row sums nu and column
    # sums mu; the oracle enumerates each row's column set directly
    for w in range(0, 10):
        parts, E, _ = hd14.transition(w)
        assert E == [[zero_one_matrix_count(nu, mu) for mu in parts] for nu in parts], w


def test_non_unimodular_transition_is_reported(monkeypatch):
    # a non-unit pivot makes the integer field_rref raise NonDivisibleBase,
    # which the transition reports as a non-unimodular matrix
    import orcohom.hopf as hopf_mod

    real = hopf_mod.field_rref

    def doubled_first_row(rows):
        return real([[2 * v for v in rows[0]]] + rows[1:])

    monkeypatch.setattr(hopf_mod, "field_rref", doubled_first_row)
    with pytest.raises(ArithmeticError, match="not unimodular"):
        build_hopf(TH, 3).transition(2)


def test_delta_matches_whitney_formula(hd14):
    # the library multiplies out Delta(s_n) = sum_i s_i x s_(n-i); the
    # oracle dualizes the homology product through E and Einv
    hd = build_hopf(additive_theory(truncation=14), 14)
    for w in range(0, 15):
        assert hd.delta(w) == delta_by_duality(hd14, w), w
    assert hd._trans == {}


def test_transition_is_unitriangular_up_to_conjugation(hd14):
    # E Einv = I, E[nu][mu] != 0 only for mu <= nu' in dominance, and
    # E[nu][nu'] = 1: the facts that make the inversion integral
    for w in range(0, 15):
        parts, E, Einv = hd14.transition(w)
        k = len(parts)
        for i in range(k):
            assert [sum(E[i][t] * Einv[t][j] for t in range(k)) for j in range(k)] == \
                [int(i == j) for j in range(k)]
        for i, nu in enumerate(parts):
            conj = conjugate_partition(nu)
            assert E[i][parts.index(conj)] == 1
            for j, mu in enumerate(parts):
                if E[i][j]:
                    assert dominates(conj, mu), (nu, mu)


def test_primitives_match_the_coproduct_kernel(hd14):
    # Newton's identity against the integer kernel of the coproduct
    # conditions, sign included; the formula never builds the coproduct
    hd = build_hopf(additive_theory(truncation=14), 14)
    for w in range(1, 15):
        assert primitives(hd, w)["basis"] == [primitive_by_kernel(hd14, w)], w
    assert hd._delta == {}


def test_primitives_returns_fresh_lists():
    # each call builds its own lists; callers must not share them
    hd = build_hopf(TH, 4)
    first = primitives(hd, 3)
    first["basis"][0][0] += 1
    first["monomials"][0].append(9)
    assert primitives(hd, 3) == primitives(build_hopf(TH, 4), 3)

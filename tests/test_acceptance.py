"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line and enforcing its time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from math import comb, factorial

from orcohom.coefficients import QQ, laurent_over
from orcohom.fgl import (
    check_axioms,
    formal_inverse,
    lazard_graded_ranks,
    logarithm,
    make_additive,
    make_multiplicative,
    n_series,
)
from orcohom.hopf import additive_maps_identification, build_hopf, primitives
from orcohom.polynomials import Polynomial
from orcohom.presented import compose
from orcohom.serialize import canonical_dumps, presented_ring_to_json, presented_ring_from_json
from orcohom.spaces import (
    FlagBundle,
    GrassmannianBundle,
    ProjectiveSpace,
    additive_theory,
    cohomology,
)
from orcohom.thom import thom_decompose, thom_product_check
from orcohom.towers import (
    random_split_tower,
    random_surjective_tower,
    split_tower_compare,
    tower_limit_and_lim1,
)
from orcohom.conner_floyd import verify_conner_floyd

from oracles import (
    conner_floyd_backward_map,
    gaussian_binomial_ranks,
    partition_count,
    partitions_exactly_k,
)


def report(n, label, elapsed, budget):
    print(f"ACCEPTANCE {n} PASS: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_projective_space_ranks():
    budget = 1.0
    t0 = time.monotonic()
    th = additive_theory(truncation=8)
    for n in range(0, 9):
        ring = cohomology(th, ProjectiveSpace(n), 8)
        assert ring.is_degreewise_free()
        assert ring.total_rank() == n + 1, n
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(1, "projective-space presentations free of total rank n+1 for n=0..8", elapsed, budget)


def test_criterion_2_flag_and_grassmannian_ranks():
    budget = 10.0
    t0 = time.monotonic()
    th = additive_theory(truncation=16)
    for n in range(1, 6):
        D = max(1, n * (n - 1) // 2)
        ring = cohomology(th, FlagBundle(n), D)
        assert ring.total_rank() == factorial(n), n
    for n in range(1, 7):
        for m in range(1, n + 1):
            D = max(1, m * (n - m))
            ring = cohomology(th, GrassmannianBundle(m, n), D)
            ranks = ring.graded_ranks()
            expected = gaussian_binomial_ranks(m, n - m)
            expected += [0] * (len(ranks) - len(expected))
            assert ranks == expected, (m, n)
            assert ring.total_rank() == comb(n, m), (m, n)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(2, "flag rank n! (n<=5) and Gaussian-binomial Grassmannian ranks (n<=6)",
           elapsed, budget)


def test_criterion_3_group_law_calculus_at_12():
    budget = 5.0
    t0 = time.monotonic()
    add = make_additive(truncation=12)
    mult = make_multiplicative(truncation=12)
    for law in (add, mult):
        rep = check_axioms(law)
        assert rep["unit"] and rep["commutative"] and rep["associative"]
        inv = formal_inverse(law)
        residue = compose(law.ring2, law.series, [law.x(), inv], law.base)
        assert residue.is_zero()
        for m, n in ((2, 3), (-2, 4), (1, -1)):
            lhs = n_series(law, m + n)
            rhs = compose(law.ring2, law.series,
                          [n_series(law, m), n_series(law, n)], law.base)
            assert lhs == rhs
    LB = laurent_over(QQ, "b", -1)
    multq = make_multiplicative(LB, LB.generator(), truncation=12)
    log = logarithm(multq)
    lhs = compose(multq.ring2, log, [multq.series, Polynomial.zero(LB)], LB)
    rhs = compose(multq.ring2, log, [multq.x(), Polynomial.zero(LB)], LB) + \
        compose(multq.ring2, log, [multq.y(), Polynomial.zero(LB)], LB)
    assert lhs == rhs
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(3, "group-law axioms and inverse/iterate/logarithm identities at truncation 12",
           elapsed, budget)


def test_criterion_4_lazard_ranks():
    budget = 60.0
    t0 = time.monotonic()
    ranks = lazard_graded_ranks(5)
    assert ranks[1:] == [1, 2, 3, 5, 7]
    assert ranks[1:] == [partition_count(w) for w in range(1, 6)]
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(4, "universal-coefficient graded ranks 1,2,3,5,7 via Smith normal form",
           elapsed, budget)


def test_criterion_5_hopf_primitives():
    budget = 30.0
    t0 = time.monotonic()
    th = additive_theory(truncation=8)
    hd = build_hopf(th, 6)
    for w in range(1, 7):
        prim = primitives(hd, w)
        assert prim["rank"] == 1, w
        # the primitive restricts along s1 -> l to l^w, a generator
        assert prim["basis"][0][prim["monomials"].index([1] * w)] == 1, w
    ident = additive_maps_identification(hd)
    assert ident["ok"]
    for entry in ident["per_weight"]:
        assert entry["line_rank"] == 1
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(5, "primitive rank equals line-bundle rank 1 in weights 1..6, restriction unimodular",
           elapsed, budget)


def test_criterion_6_thom_decomposition():
    budget = 30.0
    t0 = time.monotonic()
    th = additive_theory(truncation=8)
    dec = thom_decompose(th, 8)
    for w in range(0, 9):
        total = sum(dec.piece_rank(n, w) for n in range(w + 1))
        assert total == partition_count(w)
        for n in range(w + 1):
            assert dec.piece_rank(n, w) == partitions_exactly_k(w, n)
    for p in range(0, 9):
        for q in range(0, 9 - p):
            rep = thom_product_check(dec, p, q)
            assert rep["ok"], (p, q)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(6, "piece ranks sum to p(w) for w<=8 and class multiplicativity for p+q<=8",
           elapsed, budget)


def test_criterion_7_tower_suite():
    budget = 60.0
    t0 = time.monotonic()
    rng = random.Random(0xC0FFEE)
    for trial in range(100):
        tower = random_surjective_tower(rng)
        lim, lim1 = tower_limit_and_lim1(tower, 0)
        assert (lim1["rank"], lim1["torsion"], lim1["exact"]) == (0, [], True), trial
        assert lim["exact"]
    for trial in range(20):
        Y, Z, r, s, g = random_split_tower(rng)
        rep = split_tower_compare(Y, Z, r, s, g)
        assert rep["ok"], trial
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(7, "100 surjective towers have vanishing derived limit; 20 split towers compare",
           elapsed, budget)


def test_criterion_8_conner_floyd_instances():
    budget = 120.0
    t0 = time.monotonic()
    instances = [ProjectiveSpace(0), ProjectiveSpace(1), ProjectiveSpace(2),
                 ProjectiveSpace(3), ProjectiveSpace(4),
                 GrassmannianBundle(2, 4), FlagBundle(3)]
    expected_totals = {"point": 1, "P1": 2, "P2": 3, "P3": 4, "P4": 5,
                       "Gr2(A4)": 6, "flag(A3)": 6}
    for X in instances:
        rep = verify_conner_floyd(X, 8)
        assert rep["isomorphism"], rep["instance"]
        conner_floyd_backward_map(X, 8).check_well_defined()
        assert rep["total_rank"] == expected_totals[rep["instance"]]
        for entry in rep["per_weight"]:
            assert entry["cobordism_rank"] == entry["k_rank"]
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(8, "base-change isomorphism on point, P1..P4, Gr2(A4), flag(A3) at truncation 8",
           elapsed, budget)


def test_criterion_9_determinism_and_round_trip():
    budget = 60.0
    t0 = time.monotonic()
    th = additive_theory(truncation=8)
    ring = cohomology(th, GrassmannianBundle(2, 4), 6)
    doc = canonical_dumps(presented_ring_to_json(ring))
    back = presented_ring_from_json(json.loads(doc))
    assert canonical_dumps(presented_ring_to_json(back)) == doc
    cli = [sys.executable, "-m", "orcohom.cli"]
    for args in (
        ["cohomology", "--space", '{"Grassmannian":{"m":2,"n":4}}', "--truncation", "8",
         "--format", "json"],
        ["fgl-lazard", "--truncation", "5", "--format", "csv"],
        ["conner-floyd", "--space", '{"Pn":2}', "--truncation", "6", "--format", "pretty"],
    ):
        first = subprocess.run(cli + args, capture_output=True)
        second = subprocess.run(cli + args, capture_output=True)
        assert first.stdout == second.stdout and first.stdout
        assert first.returncode == second.returncode == 0
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    report(9, "serializations round-trip byte-exactly and CLI output is byte-identical",
           elapsed, budget)

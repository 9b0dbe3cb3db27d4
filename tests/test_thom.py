import pytest

from orcohom.coefficients import ModularRing
from orcohom.hopf import build_hopf
from orcohom.spaces import additive_theory, multiplicative_theory
from orcohom.thom import thom_decompose, thom_iso_check, thom_product_check

from oracles import partition_count, partitions_exactly_k

TH = additive_theory(truncation=8)


def test_decomposition_piece_ranks():
    dec = thom_decompose(TH, 8)
    assert dec.piece_rank(0, 0) == 1
    assert all(dec.piece_rank(0, w) == 0 for w in range(1, 9))
    for w in range(1, 9):
        assert dec.piece_rank(1, w) == 1
    assert dec.piece_rank(2, 4) == 2  # 2+2 and 3+1
    for w in range(9):
        for n in range(w + 1):
            assert dec.piece_rank(n, w) == partitions_exactly_k(w, n)


def test_decomposition_sources_and_torsion():
    # each source kind gives its truncation; torsion coefficients are rejected
    assert thom_decompose(build_hopf(TH, 5)).truncation == 5
    assert thom_decompose(TH, 7).truncation == 7
    torsion = additive_theory(ModularRing(5), 4)
    with pytest.raises(ValueError):
        thom_decompose(torsion, 4)
    with pytest.raises(ValueError):
        thom_iso_check(torsion, 1, 4)
    with pytest.raises(TypeError):
        thom_decompose(object(), 4)


def test_partition_identity():
    dec = thom_decompose(TH, 8)
    for row in dec.rank_table():
        assert row["total"] == partition_count(row["weight"])


def test_thom_classes():
    dec = thom_decompose(build_hopf(TH, 8), 8)
    assert dec.thom_class(0) == ()
    assert dec.thom_class(3) == (1, 1, 1)


def test_product_checks():
    dec = thom_decompose(TH, 8)
    for p in range(0, 5):
        for q in range(0, 5 - p):
            rep = thom_product_check(dec, p, q)
            assert rep["ok"], rep
    unit = thom_product_check(dec, 0, 4)
    assert unit["thom_class_multiplicative"]


def test_product_check_verdicts_can_fail(monkeypatch):
    import orcohom.thom as thom_mod
    from orcohom.partitions import sub_partition_splits

    dec = thom_decompose(TH, 6)
    dropped = (dec.piece_basis(1, 2)[0], dec.piece_basis(1, 1)[0])

    def drop_one(mu, parts=None):
        return [split for split in sub_partition_splits(mu, parts) if split != dropped]

    monkeypatch.setattr(thom_mod, "sub_partition_splits", drop_one)
    rep = thom_product_check(dec, 1, 1)
    assert not rep["commuting_square"] and not rep["ok"]
    assert rep["thom_class_multiplicative"]

    def no_ones_split(mu, parts=None):
        return [(a, b) for a, b in sub_partition_splits(mu, parts)
                if not (a and b and set(a + b) == {1})]

    monkeypatch.setattr(thom_mod, "sub_partition_splits", no_ones_split)
    rep = thom_product_check(dec, 2, 1)
    assert not rep["thom_class_multiplicative"] and not rep["ok"]


def test_product_check_bounds():
    dec = thom_decompose(TH, 4)
    with pytest.raises(ValueError):
        thom_product_check(dec, 3, 3)


def test_shift_isomorphism():
    for n in range(0, 4):
        rep = thom_iso_check(TH, n, 8)
        assert rep["ok"], rep
    # also over the Laurent-based multiplicative theory
    rep = thom_iso_check(multiplicative_theory(6), 2, 6)
    assert rep["ok"]

import random
from fractions import Fraction

import pytest

from orcohom.coefficients import QQ, ZZ, LaurentRing, ModularRing, NonDivisibleBase, laurent_over
from orcohom.intlinalg import (
    FPModule,
    NonConfluentPresentation,
    det_bareiss_ring,
    field_rref,
    hnf,
    kernel_basis,
    snf_invariants,
)

from oracles import (
    det_cofactor,
    field_rref_over,
    integer_span_contains,
    rank_over_Q,
    reduce_against_hnf,
    torsion_via_minor_gcd,
)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def rank(m):
    return len(hnf(m)[1])


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_hnf_rank_matches_fraction_elimination():
    rng = random.Random(101)
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        assert rank(m) == rank_over_Q(m)


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(202)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        free, torsion = FPModule(cols, m).rank_torsion()
        ofree, otorsion = torsion_via_minor_gcd(m, cols)
        assert (free, torsion) == (ofree, otorsion)


def test_snf_worked_examples():
    assert FPModule(1, [[2]]).rank_torsion() == (0, [2])
    assert FPModule(3).rank_torsion() == (3, [])
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert snf_invariants(m) == [2, 2, 156]


def test_kernel_basis_annihilates():
    rng = random.Random(303)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        kern = kernel_basis(m, cols)
        assert len(kern) == cols - rank(m)
        # saturated: Z^cols modulo the kernel is torsion-free
        assert torsion_via_minor_gcd(kern, cols) == (cols - len(kern), [])
        for v in kern:
            prod = matmul(m, [[x] for x in v])
            assert not any(any(r) for r in prod)


def test_det_bareiss_matches_cofactor():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert det_bareiss_ring(m) == det_cofactor(m)


def test_cokernel_splits_unit_pivots_off_a_torsion_residual():
    # Unit pivots mixed with a torsion block, hidden by a unimodular
    # change of rows and columns; checked against the minor-gcd oracle.
    rng = random.Random(606)
    residual_rows = []
    for _ in range(40):
        units, tors_rows, cols = rng.randint(1, 3), rng.randint(0, 2), rng.randint(4, 6)
        m = [[int(i == j) for j in range(cols)] for i in range(units)]
        for _ in range(tors_rows):
            d = rng.choice([2, 3, 4, 6])
            m.append([d * rng.randint(-2, 2) for _ in range(cols)])
        for _ in range(6):
            if len(m) > 1:
                i, j = rng.sample(range(len(m)), 2)
                m[i] = [a + rng.choice([-1, 1]) * b for a, b in zip(m[i], m[j])]
            c1, c2 = rng.sample(range(cols), 2)
            for row in m:
                row[c1] += row[c2]
        module = FPModule(cols, m)
        h, pivots = module.lattice
        invs = snf_invariants(m)
        torsion = [d for d in invs if d != 1]
        assert (cols - len(invs), torsion) == torsion_via_minor_gcd(m, cols)
        assert module.rank_torsion() == torsion_via_minor_gcd(m, cols)
        residual_rows.append(sum(1 for row, c in zip(h, pivots) if row[c] != 1))
    # the cases exercise both a torsion residual and an empty one
    assert max(residual_rows) > 0 and min(residual_rows) == 0


def test_cokernel_of_a_unimodular_hnf_is_free():
    assert FPModule(3, [[1, 2, 3], [0, 1, 4]]).rank_torsion() == (1, [])
    assert FPModule(0).rank_torsion() == (0, [])
    module = FPModule(3, [[1, 1, 0], [0, 2, 2]])
    assert module.rank_torsion() == (1, [2])
    # invariants 1, 2, 0: the unit pivot's 1 is neither free nor torsion,
    # so over Z/2 only the 2 and the missing invariant are free
    assert module.rank_torsion(ModularRing(2)) == (2, [])


def _shaped_matrix(rng, rows, cols):
    """Random matrix with, now and then, a zero row, a zero column, a
    repeated row or a scaled row."""
    m = random_matrix(rng, rows, cols, -6, 6)
    if rows and cols:
        kind = rng.randrange(5)
        i, j = rng.randrange(rows), rng.randrange(rows)
        if kind == 0:
            m[i] = [0] * cols
        elif kind == 1:
            c = rng.randrange(cols)
            for row in m:
                row[c] = 0
        elif kind == 2:
            m[i] = list(m[j])
        elif kind == 3:
            k = rng.choice([2, 3, 4, 6])
            m[i] = [k * v for v in m[j]]
    return m


def test_snf_invariants_match_minor_gcds_and_rank():
    rng = random.Random(707)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (7, 7), (7, 3), (3, 7)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(60)]
    for rows, cols in shapes:
        m = _shaped_matrix(rng, rows, cols)
        invs = snf_invariants(m)
        assert all(d > 0 for d in invs)
        assert all(b % a == 0 for a, b in zip(invs, invs[1:]))
        assert len(invs) == rank_over_Q(m)
        assert (cols - len(invs), [d for d in invs if d != 1]) == torsion_via_minor_gcd(m, cols)


def test_snf_invariants_of_nonsingular_matrices_multiply_to_the_determinant():
    rng = random.Random(808)
    done = 0
    while done < 8:
        n = rng.randint(10, 20)
        m = random_matrix(rng, n, n, -3, 3)
        for i in rng.sample(range(n), 3):
            m[i] = [rng.choice([2, 3, 4]) * v for v in m[i]]
        det = det_bareiss_ring(m)
        if det == 0:
            continue
        invs = snf_invariants(m)
        assert len(invs) == n
        assert all(b % a == 0 for a, b in zip(invs, invs[1:]))
        product = 1
        for d in invs:
            product *= d
        assert product == abs(det)
        done += 1


def _classify(invs, zero, unit):
    """(free rank, torsion) from Smith invariants, by the rule rank_torsion states."""
    return (sum(1 for d in invs if zero(d)),
            [d for d in invs if not zero(d) and not unit(d)])


@pytest.mark.parametrize("base, zero, unit", [
    (ZZ, lambda d: d == 0, lambda d: d == 1),
    (QQ, lambda d: d == 0, lambda d: True),
    (ModularRing(4), lambda d: d % 4 == 0, lambda d: d % 2 == 1),
    (ModularRing(5), lambda d: d % 5 == 0, lambda d: True),
    (laurent_over(ZZ, "b", -1), lambda d: d == 0, lambda d: d == 1),
], ids=["Z", "Q", "Z4", "Z5", "Zb"])
def test_cokernel_classifies_invariants_over_the_base(base, zero, unit):
    rng = random.Random(909)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = _shaped_matrix(rng, rows, cols)
        for i in range(rows):  # torsion the bases tell apart
            m[i] = [rng.choice([1, 2, 4, 5, 8]) * v for v in m[i]]
        free, torsion = torsion_via_minor_gcd(m, cols)
        units = cols - free - len(torsion)
        invs = [1] * units + torsion + [0] * free
        assert FPModule(cols, m).rank_torsion(base) == _classify(invs, zero, unit)


def _random_element(rng, base):
    """A small element of the base; over Z[b, b^-1] now and then a power of b."""
    k = rng.randint(-9, 9)
    if base == QQ:
        return Fraction(k, rng.choice([1, 1, 2, 3]))
    if isinstance(base, LaurentRing) and k and rng.random() < 0.1:
        return {rng.choice([-1, 1]): k}
    return base.from_int(k)


BASES = [ZZ, ModularRing(4), ModularRing(6), QQ, laurent_over(ZZ, "b", -1)]


@pytest.mark.parametrize("base", BASES, ids=["Z", "Z4", "Z6", "Q", "Zb"])
def test_reduce_matches_the_reference_loop(base):
    rng = random.Random(1001)
    pivots_above_one = 0
    for _ in range(80):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _shaped_matrix(rng, rows, cols)
        if isinstance(base, ModularRing):
            m += FPModule.modular(base.n, cols).relations
        module = FPModule(cols, m)
        h, pivots = module.lattice
        pivots_above_one += any(row[c] != 1 for row, c in zip(h, pivots))
        vec = [_random_element(rng, base) for _ in range(cols)]
        try:
            want = reduce_against_hnf(h, pivots, vec, base)
        except NonConfluentPresentation:
            with pytest.raises(NonConfluentPresentation, match="against a torsion pivot"):
                module.reduce(vec, base)
            continue
        assert module.reduce(vec, base)[1] == want
    # over Q such a pivot is divided out, elsewhere it is a torsion pivot
    assert pivots_above_one > 10


def test_reduce_over_z_decides_membership_and_rebuilds_the_vector():
    rng = random.Random(1002)
    members = 0
    for _ in range(120):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _shaped_matrix(rng, rows, cols)
        module = FPModule(cols, m)
        h, pivots = module.lattice
        if m and rng.random() < 0.5:  # a vector on the lattice
            coeffs = [rng.randint(-3, 3) for _ in m]
            vec = [sum(a * row[j] for a, row in zip(coeffs, m)) for j in range(cols)]
        else:
            vec = [rng.randint(-9, 9) for _ in range(cols)]
        q, r = module.reduce(vec)
        assert (not any(r)) == module.contains(vec) == integer_span_contains(m, vec)
        assert module.solve(vec) == (q if module.contains(vec) else None)
        assert [sum(a * row[j] for a, row in zip(q, h)) + r[j] for j in range(cols)] == vec
        assert all(0 <= r[c] < row[c] for row, c in zip(h, pivots))
        members += module.contains(vec)
    assert 10 < members < 110


def _field_rref_full_width(rows, ring):
    """Reduced row echelon form that scales every pivot row and subtracts
    over whole rows: the reference for field_rref_over's support-only steps."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    r = 0
    pivots = []
    for c in range(len(m[0])):
        sel = next((i for i in range(r, len(m)) if not ring.is_zero(m[i][c])), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = ring.inv_unit(m[r][c])
        m[r] = [ring.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not ring.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


@pytest.mark.parametrize("ring", [QQ, ModularRing(7)], ids=["Q", "Z7"])
def test_field_rref_matches_full_width_elimination(ring):
    rng = random.Random(211)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        # sparse entries, so pivot rows have short supports, and some ones
        m = [[ring.from_int(rng.choice([0, 0, 0, 1, 1, -1, 2, 3, -4]))
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            m.append(list(m[0]))  # a dependent row
        assert field_rref_over(m, ring) == _field_rref_full_width(m, ring)


def test_field_rref_over_z_needs_unit_pivots():
    red, pivots = field_rref([[1, 2, 0], [3, 7, 1]])
    assert (red, pivots) == ([[1, 0, -2], [0, 1, 1]], [0, 1])
    assert field_rref([[0, -1, 2], [1, 4, 0]]) == ([[1, 0, 8], [0, 1, -2]], [0, 1])
    assert field_rref([]) == ([], [])
    with pytest.raises(NonDivisibleBase):
        field_rref([[2, 1], [0, 1]])
    with pytest.raises(NonDivisibleBase):
        field_rref([[1, 1], [1, 3]])  # the second pivot is 2


def _unit_pivot_matrix(rng):
    """(L U, pivot columns, pivots) with U in echelon form on pivots +-1
    and L unit lower triangular, so elimination meets U's pivots; one
    column may be zero throughout, and combinations of the rows are
    appended as dependent rows."""
    rank, cols = rng.randint(1, 5), rng.randint(2, 8)
    zero_col = rng.choice([None, rng.randrange(cols)])
    pivot_cols = sorted(rng.sample([c for c in range(cols) if c != zero_col], min(rank, cols - 1)))
    u = []
    for c in pivot_cols:
        row = [0] * c + [rng.choice([1, -1])] + [rng.randint(-3, 3) for _ in range(cols - c - 1)]
        if zero_col is not None:
            row[zero_col] = 0
        u.append(row)
    rows = []
    for i, ui in enumerate(u):
        ls = [rng.randint(-3, 3) for _ in range(i)]
        rows.append([x + sum(l * uk[j] for l, uk in zip(ls, u)) for j, x in enumerate(ui)])
    for _ in range(rng.randint(0, 2)):
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.append([a * x + b * y for x, y in zip(rng.choice(rows), rng.choice(rows))])
    return rows, pivot_cols, [row[c] for row, c in zip(u, pivot_cols)]


def test_integer_field_rref_matches_the_ring_reference():
    # the integer elimination must give what the ring-generic reference
    # gives over ZZ.  Where the reference meets a non-unit pivot in row
    # order, the answer depends only on the row lattice: its HNF when
    # every pivot there is 1, else NonDivisibleBase
    rng = random.Random(283)
    negated = dependent = 0
    for _ in range(150):
        m, pivot_cols, signs = _unit_pivot_matrix(rng)
        assert field_rref(m) == field_rref_over(m, ZZ)
        assert field_rref(m)[1] == pivot_cols
        negated += -1 in signs
        dependent += len(m) > len(pivot_cols)
    assert negated > 50 and dependent > 50
    lattice_only = raised = 0
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = [[rng.choice([0, 0, 0, 1, 1, -1, -1, 2, -3]) for _ in range(cols)] for _ in range(rows)]
        try:
            want = field_rref_over(m, ZZ)
        except NonDivisibleBase:
            h, pivots = hnf(m)
            if all(row[c] == 1 for row, c in zip(h, pivots)):
                assert field_rref(m) == (h, pivots)
                lattice_only += 1
            else:
                with pytest.raises(NonDivisibleBase):
                    field_rref(m)
                raised += 1
        else:
            assert field_rref(m) == want
    assert lattice_only > 5 and raised > 5
    # [[2], [1]] spans Z as [[1], [2]] does, so both reduce to [[1]]
    assert field_rref([[2], [1]]) == field_rref([[1], [2]]) == ([[1]], [0])

"""Towers of finitely presented graded modules: inverse limits, the
first derived limit, telescope colimits, and the split-tower comparison.

Modules are presented over the integers (torsion relations encode
finite coefficients such as Z/n), one finitely presented piece per
weight.  Each piece is an ``intlinalg.FPModule``, which answers
membership, coefficients over its relations, invariants, quotients and
presentation equality; this module composes integer matrices and asks
those questions.

A periodic system is answered from its window alone: lim, lim1 and the
colimit depend only on a cofinal subsystem (Milnor, Pacific J. Math. 12,
1962; Weibel, *An Introduction to Homological Algebra*, 3.5), so the
module M at the window's start and the composite h once around the
window decide them.  A tower without a window is answered from its
stored stages: surjective or finite stages kill the derived limit
(Mittag-Leffler).

Where no hypothesis decides, the answer is flagged partial rather than
wrong: the derived limit of a non-Mittag-Leffler tower of infinite
modules (the adic example) is not finitely presentable, so no
presentation is reported for it.
"""

from __future__ import annotations

from .intlinalg import FPModule, det_bareiss_ring, snf_invariants


class UndecidableTower(ValueError):
    """No finiteness, periodicity or surjectivity hypothesis available."""


def _eye(rows: int, cols: int) -> list[list[int]]:
    """The rows x cols matrix with ones on the diagonal: an identity,
    inclusion or projection."""
    return [[int(i == j) for j in range(cols)] for i in range(rows)]


def _apply(matrix, vec) -> list[int]:
    return [sum(a * b for a, b in zip(row, vec)) for row in matrix]


def map_is_zero(matrix, target: FPModule) -> bool:
    """Is the given integer matrix zero as a map into the target module?"""
    return all(target.contains(col) for col in zip(*matrix))


def map_well_defined(matrix, source: FPModule, target: FPModule) -> bool:
    """Images of source relations must land in the target relation span."""
    return all(target.contains(_apply(matrix, rel)) for rel in source.relations)


def map_surjective(matrix, target: FPModule) -> bool:
    """Onto exactly when the target modulo the image columns is zero."""
    return target.quotient(zip(*matrix)).rank_torsion() == (0, [])


def compose_matrices(a, b, ncols: int):
    """a @ b for integer row-major matrices (a applied after b); b has
    ``ncols`` columns, a shape a matrix without rows cannot carry."""
    k = len(b)
    return [[sum(row[t] * b[t][j] for t in range(k)) for j in range(ncols)] for row in a]


def _submodule_presentation(gens, module: FPModule) -> FPModule:
    """Presentation of the submodule of ``module`` generated by the
    vectors ``gens``: (generator span + relation span)/relation span,
    on the HNF basis of the combined lattice, with the module's
    relations solved over that basis as relations.
    """
    combined = FPModule(module.ngens, list(gens) + module.relations)
    return FPModule(combined.rank, [combined.solve(rel) for rel in module.relations])


def _weights(stages) -> list[int]:
    return sorted(set().union(*(s.pieces for s in stages)))


class GradedFPModule:
    """Weight-indexed family of finitely presented pieces (zero if absent)."""

    def __init__(self, pieces: dict[int, FPModule]):
        self.pieces = dict(pieces)

    def piece(self, w: int) -> FPModule:
        return self.pieces.get(w, FPModule(0))


class GradedMap:
    """Weight-indexed integer matrices, rows indexed by target generators."""

    def __init__(self, matrices: dict[int, list[list[int]]]):
        self.matrices = dict(matrices)

    def matrix(self, w: int, target_ngens: int, source_ngens: int):
        m = self.matrices.get(w)
        if m is None:
            return [[0] * source_ngens for _ in range(target_ngens)]
        if len(m) != target_ngens or any(len(r) != source_ngens for r in m):
            raise ValueError(f"matrix shape mismatch in weight {w}")
        return m


class _StageSystem:
    """Stages joined by one map per adjacent pair, with an optional
    periodicity (k0, rho): stage and map data repeat with period rho
    from index k0 on.  Construction checks the map count, that each map
    is well defined in every weight, and the periodicity on the stored
    window.  Map k runs from stage k to k+1 when ``forward``, else back.
    """

    forward = True

    def __init__(self, stages, maps, periodicity: tuple[int, int] | None = None):
        self.stages = list(stages)
        self.maps = list(maps)
        self.periodicity = periodicity
        if len(self.maps) != len(self.stages) - 1:
            raise ValueError("need one connecting map per adjacent stage pair")
        for k in range(len(self.maps)):
            source, target = self.ends(k)
            for w in _weights((source, target)):
                if not map_well_defined(self.map_matrix(k, w), source.piece(w), target.piece(w)):
                    raise ValueError(f"map {k} does not respect relations in weight {w}")
        if periodicity is not None:
            k0, rho = periodicity
            if k0 < 0 or rho < 1:
                raise ValueError("periodicity window must have k0 >= 0, rho >= 1")
            for k in range(k0, len(self.stages) - rho):
                for w in _weights((self.stages[k], self.stages[k + rho])):
                    if not self.stages[k].piece(w).same_presentation(self.stages[k + rho].piece(w)):
                        raise ValueError(f"declared periodicity fails at stage {k}, weight {w}")
            for k in range(k0, len(self.maps) - rho):
                if self.maps[k].matrices != self.maps[k + rho].matrices:
                    raise ValueError(f"declared periodicity fails on map {k}")

    def ends(self, k: int):
        """(source, target) stages of map k."""
        near, far = self.stages[k], self.stages[k + 1]
        return (near, far) if self.forward else (far, near)

    def weights(self):
        return _weights(self.stages)

    def map_matrix(self, k: int, w: int):
        source, target = self.ends(k)
        return self.maps[k].matrix(w, target.piece(w).ngens, source.piece(w).ngens)

    def window_composite(self, w: int):
        """(module, matrix) of the composite map once around the window."""
        k0, rho = self.periodicity
        if k0 + rho > len(self.maps):
            raise ValueError("stored stages do not cover the periodic window")
        module = self.stages[k0].piece(w)
        mat = _eye(module.ngens, module.ngens)
        window = range(k0, k0 + rho)
        for k in window if self.forward else reversed(window):  # in the order they apply
            mat = compose_matrices(self.map_matrix(k, w), mat, module.ngens)
        return module, mat


class ModuleTower(_StageSystem):
    """Inverse system M_0 <- M_1 <- ... with optional periodicity window.

    ``maps[k]`` sends stage k+1 to stage k.  A declared periodicity is
    verified on the stored window.
    """

    forward = False

    def map_surjective(self, k: int, w: int) -> bool:
        return map_surjective(self.map_matrix(k, w), self.stages[k].piece(w))


def _power(mat, k: int, n: int):
    """h^k for an n x n integer matrix h."""
    power = _eye(n, n)
    for _ in range(k):
        power = compose_matrices(mat, power, n)
    return power


def _stable_image(module: FPModule, mat) -> tuple[int, list[int]]:
    """Rank and torsion of the stable image of an endomorphism h of a finite
    module M: the image of h^L, L the total bit length of M's invariants
    d1 | d2 | ...  Each strict step of the falling chain of images at least
    halves the order, so L steps reach its bottom.  The last invariant
    kills M, so the entries of the powers are reduced modulo it."""
    n, invariants = module.ngens, module.rank_torsion()[1]
    power = _eye(n, n)
    for _ in range(sum(v.bit_length() for v in invariants)):
        power = [[v % invariants[-1] for v in row] for row in compose_matrices(mat, power, n)]
    return _submodule_presentation(zip(*power), module).rank_torsion()


def _stable_part(mat, n: int) -> tuple[int, int]:
    """(r, d) for h on Z^n: r the rank of the stable image L = h^n(Z^n)
    and d = |det| of h on L, on the HNF basis of L.  The ranks of the
    powers of h stop falling by h^n, so h maps L into itself injectively
    and d > 0 (d = 1 when r = 0)."""
    stable = FPModule(n, [list(col) for col in zip(*_power(mat, n, n))])
    basis = stable.lattice[0]
    return len(basis), abs(det_bareiss_ring([stable.solve(_apply(mat, b)) for b in basis]))


def _exact(rank, torsion, note: str, **extra) -> dict:
    return {"rank": rank, "torsion": torsion, "exact": True, **extra, "note": note}


def _partial(note: str, rank=None, torsion=None) -> dict:
    return {"rank": rank, "torsion": torsion, "exact": False, "note": note}


def tower_limit_and_lim1(tower: ModuleTower, weight: int) -> tuple[dict, dict]:
    """The limit and first derived limit of the weight slice.

    Results are descriptors {rank, torsion, exact, note}; ``exact`` is
    False only for flagged partial answers, which happens when no
    hypothesis pins down the tail behavior.
    """
    # lim and lim1 are the kernel and cokernel of (1 - shift) on the
    # infinite product, and depend only on a cofinal subsystem: for a
    # periodic tower, the constant tower of the window composite h on the
    # window module M.  An onto h is bijective (Hopfian); on a finite M
    # the images of h stabilize; on a free M they stabilize at the stable
    # image L when h is unimodular on L.  Each case is eventually a tower
    # of isomorphisms, so lim is the stable image and Mittag-Leffler
    # kills lim1.  Otherwise (the adic example) neither is determined by
    # finite data, so the answer is flagged partial, not fabricated.
    #
    # Connecting maps are single weight-preserving matrices per stage:
    # the suspension shift and the periodicity unit cancel against each
    # other in the collapsed grading, so no degree bookkeeping appears
    # in the matrices themselves.
    w = weight
    finite_note = "finite stages: images stabilize (Mittag-Leffler)"
    if tower.periodicity is None:
        mods = [stage.piece(w) for stage in tower.stages]
        if all(tower.map_surjective(k, w) for k in range(len(tower.maps))):
            return (_partial("partial: surjectivity without a periodic window", *mods[-1].rank_torsion()),
                    _exact(0, [], "surjective tower: Mittag-Leffler"))
        if all(m.is_finite() for m in mods):
            return _partial("partial: finite stages without a periodic window"), _exact(0, [], finite_note)
        raise UndecidableTower(
            "need finite stages, a periodic window, or surjectivity to compute limits")

    module, mat = tower.window_composite(w)
    if map_surjective(mat, module):
        return (_exact(*module.rank_torsion(), "surjective window composite is bijective (Hopfian)"),
                _exact(0, [], "window composite onto: eventually isomorphisms (Mittag-Leffler)"))
    if module.is_finite():
        return _exact(*_stable_image(module, mat), "stable image of the window composite"), \
            _exact(0, [], finite_note)
    if not module.relations:
        rank, d = _stable_part(mat, module.ngens)
        if d == 1:
            return (_exact(rank, [], "window composite unimodular on its stable image"),
                    _exact(0, [], "free stages: images stabilize (Mittag-Leffler)"))
        return (_partial(f"partial: window determinant {d}; limit is an adic object"),
                _partial("partial: derived limit not finitely presentable"))
    note = "partial: mixed free/torsion non-surjective window"
    return _partial(note), _partial(note)


def split_tower_compare(Y: ModuleTower, Z: ModuleTower, r: GradedMap, s: GradedMap,
                        g: GradedMap | None = None) -> dict:
    """Compare the self-map towers Y (under f) and Z (under g) through a
    retraction r with section s satisfying f = s g r.

    Both towers must be constant periodic (window at 0 of period 1), and
    r, s and g must respect relations in every weight (ValueError
    otherwise).  Verifies r s = 1 and f = s g r per weight and checks
    that limit and derived limit descriptors agree.  The complement
    ker(r) is the image of 1 - s r once r s = 1, and f kills it:
    f (1 - s r) = s g (1 - r s) r = 0.  ``complement_rank`` and
    ``complement_torsion`` are its free rank and torsion as a submodule
    of Y's stage: (Z/5)^5 retracting onto (Z/5)^3 leaves (0, [5, 5]),
    Z^3 onto Z leaves (2, []).
    """
    for t, name in ((Y, "Y"), (Z, "Z")):
        if t.periodicity != (0, 1):
            raise ValueError(f"{name} must be a constant periodic tower (window (0, 1))")
    if g is None:
        g = Z.maps[0]
    pieces = {}
    for w in sorted(set(Y.weights()) | set(Z.weights())):
        ym, zm = Y.stages[0].piece(w), Z.stages[0].piece(w)
        r_mat = r.matrix(w, zm.ngens, ym.ngens)
        s_mat = s.matrix(w, ym.ngens, zm.ngens)
        g_mat = g.matrix(w, zm.ngens, zm.ngens)
        for name, mat, source, target in (("r", r_mat, ym, zm), ("s", s_mat, zm, ym),
                                          ("g", g_mat, zm, zm)):
            if not map_well_defined(mat, source, target):
                raise ValueError(f"{name} does not respect relations in weight {w}")
        pieces[w] = ym, zm, r_mat, s_mat, g_mat
    per_weight = []
    ok = True
    for w, (ym, zm, r_mat, s_mat, g_mat) in pieces.items():
        f_mat = Y.map_matrix(0, w)
        entry = {"weight": w}
        rs = compose_matrices(r_mat, s_mat, zm.ngens)
        diff = [[rs[i][j] - (i == j) for j in range(zm.ngens)] for i in range(zm.ngens)]
        if not map_is_zero(diff, zm):
            entry["failure"] = "r s is not the identity"
            per_weight.append(entry)
            ok = False
            break
        sgr = compose_matrices(s_mat, compose_matrices(g_mat, r_mat, ym.ngens), ym.ngens)
        diff = [[f_mat[i][j] - sgr[i][j] for j in range(ym.ngens)] for i in range(ym.ngens)]
        if not map_is_zero(diff, ym):
            entry["failure"] = "f differs from s g r"
            per_weight.append(entry)
            ok = False
            break
        lim_y, lim1_y = tower_limit_and_lim1(Y, w)
        lim_z, lim1_z = tower_limit_and_lim1(Z, w)
        agree = (lim_y["rank"], lim_y["torsion"]) == (lim_z["rank"], lim_z["torsion"]) and \
                (lim1_y["rank"], lim1_y["torsion"]) == (lim1_z["rank"], lim1_z["torsion"])
        sr = compose_matrices(s_mat, r_mat, ym.ngens)
        complement = [[(i == j) - sr[i][j] for i in range(ym.ngens)] for j in range(ym.ngens)]
        comp_rank, comp_torsion = _submodule_presentation(complement, ym).rank_torsion()
        entry.update({
            "limits_agree": agree,
            "lim_Y": lim_y, "lim_Z": lim_z,
            "lim1_Y": lim1_y, "lim1_Z": lim1_z,
            "complement_rank": comp_rank,
            "complement_torsion": comp_torsion,
        })
        ok = ok and agree
        per_weight.append(entry)
    return {"ok": ok, "per_weight": per_weight}


def random_unimodular(rng, n: int):
    """Random unimodular integer matrix built from elementary operations."""
    mat = _eye(n, n)
    for _ in range(12):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        if max(abs(mat[j][k] + c * mat[i][k]) for k in range(n)) > 50:
            continue
        for k in range(n):
            mat[j][k] += c * mat[i][k]
    if rng.random() < 0.5 and n:
        i = rng.randrange(n)
        for k in range(n):
            mat[i][k] = -mat[i][k]
    return mat


def random_surjective_tower(rng) -> ModuleTower:
    """Eventually periodic five-stage tower in weight 0 with surjective
    connecting maps.

    The periodic window is a constant free or modular stage whose
    composite is invertible; a short prefix of genuinely rectangular
    surjective maps sits in front.
    """
    modular = rng.random() < 0.5
    p = rng.choice([2, 3, 5, 7]) if modular else None
    n = rng.randint(1, 3)
    prefix = rng.randint(0, 2)
    window = random_unimodular(rng, n)
    if modular:
        window = [[v % p for v in row] for row in window]
        if det_bareiss_ring(window) % p == 0:
            window = _eye(n, n)
    towers_stages = []
    towers_maps = []
    # the periodic tail has constant size n; the prefix shrinks toward
    # the base so every connecting map can be onto
    sizes = [max(1, n - (prefix - k)) for k in range(prefix)] + [n] * (5 - prefix)
    for size in sizes:
        mod = FPModule.modular(p, size) if modular else FPModule.free(size)
        towers_stages.append(GradedFPModule({0: mod}))
    for k in range(len(sizes) - 1):
        tgt, srcn = sizes[k], sizes[k + 1]
        if k < prefix:
            u = random_unimodular(rng, tgt)
            v = random_unimodular(rng, srcn)
            mat = compose_matrices(compose_matrices(u, _eye(tgt, srcn), srcn), v, srcn)
            if modular:
                mat = [[val % p for val in row] for row in mat]
        else:
            mat = window
        towers_maps.append(GradedMap({0: mat}))
    return ModuleTower(towers_stages, towers_maps, periodicity=(prefix, 1))


def random_split_tower(rng):
    """(Y, Z, r, s, g): four-stage weight-0 towers with Y = Z + X over
    Z/5 and f = s g r.

    The retraction r is the projection onto the first block, s the
    inclusion, g an arbitrary endomorphism of the Z block; the self-map
    of Y is forced to s g r, so the complement X carries zero.
    """
    p = 5
    a = rng.randint(1, 3)
    b = rng.randint(1, 2)
    g_mat = [[rng.randrange(p) for _ in range(a)] for _ in range(a)]
    r_mat = _eye(a, a + b)
    s_mat = _eye(a + b, a)
    f_mat = compose_matrices(s_mat, compose_matrices(g_mat, r_mat, a + b), a + b)
    Y = ModuleTower([GradedFPModule({0: FPModule.modular(p, a + b)})] * 4,
                    [GradedMap({0: f_mat})] * 3, periodicity=(0, 1))
    Z = ModuleTower([GradedFPModule({0: FPModule.modular(p, a)})] * 4,
                    [GradedMap({0: g_mat})] * 3, periodicity=(0, 1))
    return Y, Z, GradedMap({0: r_mat}), GradedMap({0: s_mat}), GradedMap({0: g_mat})


class TelescopeDiagram(_StageSystem):
    """Direct system M_0 -> M_1 -> ... with an optional periodic self-map:
    ``maps[k]`` sends stage k to stage k+1."""


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def telescope_colimit(t: TelescopeDiagram, weight: int) -> dict:
    """Weight piece of the colimit.

    Eventually isomorphic systems give the stable value exactly.  A
    periodic window with self-map h on Z^n has the colimit of h on its
    stable image L, of rank r, where h has determinant d != 0: Z^r
    exactly when d = 1, and Z[1/d]^r exactly when, for every prime
    p | d, the rank s_p of h^n mod p is 0 (h is nilpotent mod p).  That
    holds when d divides a power of the first Smith invariant of h^n, so
    d is factored only otherwise: then some p is not invertible on the
    colimit (Z^2 under diag(2, 3) gives Z[1/2] + Z[1/3]) and the answer
    is partial, with each s_p in the note.  A finite M is the stable
    image plus a part h kills (Fitting), so that image is the colimit
    (Z/12 under 2 gives Z/3).  Anything else is the last stored stage
    flagged partial.
    """
    w = weight
    if t.periodicity is None:
        return _partial("partial: truncated colimit over stored stages",
                        *t.stages[-1].piece(w).rank_torsion())
    # the window's maps and its periodicity were checked when t was built,
    # so the composite is a well-defined endomorphism of the window module
    module, mat = t.window_composite(w)
    rank, torsion = module.rank_torsion()
    if map_surjective(mat, module):
        return _exact(rank, torsion, "eventually isomorphic system: stable value")
    if module.is_finite():
        return _exact(*_stable_image(module, mat), "stable image of the window composite")
    if module.relations:
        return _partial("partial: torsion telescope outside the supported regimes", rank, torsion)
    rank, d = _stable_part(mat, module.ngens)
    if d == 1:
        return _exact(rank, [], "stable value on the stable image of the window")
    # s_p counts the Smith invariants of h^n that p does not divide; all
    # are multiples of the first, so every s_p is 0 exactly when d divides
    # a power of it, and a bit length of d bounds each prime's exponent
    invariants = snf_invariants(_power(mat, module.ngens, module.ngens))
    if pow(invariants[0], d.bit_length(), d) == 0:
        return _exact(rank, [], f"rank {rank} over the base with {d} inverted", localized_at=d)
    stable = {p: sum(1 for v in invariants if v % p) for p in _prime_divisors(d)}
    ranks = ", ".join(f"s_{p}={s}" for p, s in stable.items())
    return _partial(f"partial: {d} is not invertible on the colimit; "
                    f"ranks of the window power mod p: {ranks}", rank, [])

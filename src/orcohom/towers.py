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
window decide them.  One rule covers every window: once the images
h^k(M) stop falling, h is bijective on them, so that stable image is the
limit and the colimit and Mittag-Leffler kills lim1.  A tower without a
window is answered from its stored stages: surjective or finite stages
kill the derived limit.

Where no hypothesis decides, the answer is flagged partial rather than
wrong: the derived limit of a non-Mittag-Leffler tower of infinite
modules (the adic example) is not finitely presentable, so no
presentation is reported for it.
"""

from __future__ import annotations

from math import prod

from .intlinalg import FPModule, hnf, snf_invariants


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


def _same_map(a, b, target: FPModule) -> bool:
    """Do two integer matrices agree as maps into the target module?"""
    return map_is_zero([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], target)


def map_well_defined(matrix, source: FPModule, target: FPModule) -> bool:
    """Images of source relations must land in the target relation span."""
    return all(target.contains(_apply(matrix, rel)) for rel in source.relations)


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
    from index k0 on.  Construction checks the map count, the
    periodicity on the stored window, and that each map is well defined
    in every weight; a map from k0 + rho on equals a checked one between
    equal presentations, so only the maps before it are proved.  Map k
    runs from stage k to k+1 when ``forward``, else back.
    """

    forward = True

    def __init__(self, stages, maps, periodicity: tuple[int, int] | None = None):
        self.stages = list(stages)
        self.maps = list(maps)
        self.periodicity = periodicity
        if len(self.maps) != len(self.stages) - 1:
            raise ValueError("need one connecting map per adjacent stage pair")
        proved = len(self.maps)
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
            proved = min(proved, k0 + rho)
        for k in range(proved):
            source, target = self.ends(k)
            for w in _weights((source, target)):
                if not map_well_defined(self.map_matrix(k, w), source.piece(w), target.piece(w)):
                    raise ValueError(f"map {k} does not respect relations in weight {w}")

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
        """Is map k onto in weight w: is its target modulo the image zero?"""
        target = self.stages[k].piece(w)
        return target.quotient(zip(*self.map_matrix(k, w))).rank_torsion() == (0, [])


def _image_chain(module: FPModule, h):
    """HNFs (I_N, I_(N+1)) of the images I_k = h^k(M) + R in Z^n of the
    window module M = Z^n / R under its composite h: equal once the chain
    stops, the pair at the bound otherwise.

    The chain starts at Z^n, its own HNF, so step 0 is the HNF of the
    columns of h with R, and an onto h stops there; step k maps the HNF
    basis of I_k through h.  Once I_(N+1) = I_N, h maps I_N onto itself,
    hence bijectively (Vasconcelos, Trans. AMS 138, 1969).  A chain that
    stops does so within n plus the total bit length of M's torsion
    invariants: its image in the free quotient loses rank at every step
    until it stops, and then each strict step at least halves the
    torsion of I_k.  Past that bound h has determinant other than +-1 on
    the stable lattice of the free quotient, and the chain never stops.
    """
    n, relations = module.ngens, module.lattice[0]
    image, following = _eye(n, n), hnf([list(col) for col in zip(*h)] + relations)[0]
    if following != image:  # step 0 settles every onto window; only then the bound
        for _ in range(n + sum(v.bit_length() for v in module.rank_torsion()[1])):
            image, following = following, hnf([_apply(h, row) for row in following] + relations)[0]
            if following == image:
                break
    return image, following


def _index(lattice, sublattice) -> int:
    """Index of a sublattice of the same rank, as HNFs: they share their
    pivot columns, so it is the quotient of their pivot products."""
    return prod(next(v for v in row if v) for row in sublattice) // \
        prod(next(v for v in row if v) for row in lattice)


def _image_module(image, module: FPModule) -> FPModule:
    """I / R for a lattice I of Z^n containing R; M itself for I = Z^n."""
    if image == _eye(module.ngens, module.ngens):
        return module
    return _submodule_presentation(image, module)


def _exact(rank, torsion, note: str, **extra) -> dict:
    return {"rank": rank, "torsion": torsion, "exact": True, **extra, "note": note}


def _partial(note: str, rank=None, torsion=None) -> dict:
    return {"rank": rank, "torsion": torsion, "exact": False, "note": note}


def _window_limits(module: FPModule, mat) -> tuple[dict, dict]:
    """lim and lim1 of the constant tower of ``mat`` on ``module``."""
    image, following = _image_chain(module, mat)
    if image == following:
        return (_exact(*_image_module(image, module).rank_torsion(),
                       "stable image of the window composite"),
                _exact(0, [], "window images stabilize (Mittag-Leffler)"))
    if module.relations:
        note = "partial: mixed free/torsion non-surjective window"
        return _partial(note), _partial(note)
    d = _index(image, following)
    return (_partial(f"partial: window determinant {d}; limit is an adic object"),
            _partial("partial: derived limit not finitely presentable"))


def tower_limit_and_lim1(tower: ModuleTower, weight: int) -> tuple[dict, dict]:
    """The limit and first derived limit of the weight slice.

    Results are descriptors {rank, torsion, exact, note}; ``exact`` is
    False only for flagged partial answers, which happens when no
    hypothesis pins down the tail behavior.
    """
    # lim and lim1 are the kernel and cokernel of (1 - shift) on the
    # infinite product, and depend only on a cofinal subsystem: for a
    # periodic tower, the constant tower of the window composite h on the
    # window module M.  When the images of h stop falling, the tower is
    # eventually one of isomorphisms on the stable image, so that image
    # is the limit and Mittag-Leffler kills lim1.  Otherwise (the adic
    # example) neither is determined by finite data, so the answer is
    # flagged partial, not fabricated.
    #
    # Connecting maps are single weight-preserving matrices per stage:
    # the suspension shift and the periodicity unit cancel against each
    # other in the collapsed grading, so no degree bookkeeping appears
    # in the matrices themselves.
    w = weight
    if tower.periodicity is not None:
        return _window_limits(*tower.window_composite(w))
    mods = [stage.piece(w) for stage in tower.stages]
    if all(tower.map_surjective(k, w) for k in range(len(tower.maps))):
        return (_partial("partial: surjectivity without a periodic window", *mods[-1].rank_torsion()),
                _exact(0, [], "surjective tower: Mittag-Leffler"))
    if all(m.is_finite() for m in mods):
        return (_partial("partial: finite stages without a periodic window"),
                _exact(0, [], "finite stages: images stabilize (Mittag-Leffler)"))
    raise UndecidableTower("need finite stages, a periodic window, or surjectivity to compute limits")


def split_tower_compare(Y: ModuleTower, Z: ModuleTower, r: GradedMap, s: GradedMap,
                        g: GradedMap | None = None) -> dict:
    """Compare the self-map towers Y (under f) and Z (under g) through a
    retraction r with section s satisfying f = s g r.

    Both towers must be constant periodic (window at 0 of period 1), and
    r, s and g must respect relations in every weight (ValueError
    otherwise).  ``ok`` says that r s = 1 and f = s g r hold in every
    weight.  They make (Y, f) and (Z, g) pro-isomorphic: r f = g r and
    f s = s g, r s = 1, and f (1 - s r) = 0 makes s r the identity after
    one step.  So the towers share their limits, and each weight reports
    one ``lim`` and ``lim1``, computed on Z under g.  The complement
    ker(r) is the image of 1 - s r once r s = 1, and f kills it:
    f (1 - s r) = s g (1 - r s) r = 0.  ``complement_rank`` and
    ``complement_torsion`` are its free rank and torsion as a submodule
    of Y's stage: (Z/5)^5 retracting onto (Z/5)^3 leaves (0, [5, 5]),
    Z^3 onto Z leaves (2, []).
    """
    for t, name in ((Y, "Y"), (Z, "Z")):
        if t.periodicity != (0, 1):
            raise ValueError(f"{name} must be a constant periodic tower (window (0, 1))")
    prove_g = g is not None  # an omitted g is Z's map, proved when Z was built
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
            if (name != "g" or prove_g) and not map_well_defined(mat, source, target):
                raise ValueError(f"{name} does not respect relations in weight {w}")
        pieces[w] = ym, zm, r_mat, s_mat, g_mat
    per_weight = []
    for w, (ym, zm, r_mat, s_mat, g_mat) in pieces.items():
        sgr = compose_matrices(s_mat, compose_matrices(g_mat, r_mat, ym.ngens), ym.ngens)
        if not _same_map(compose_matrices(r_mat, s_mat, zm.ngens), _eye(zm.ngens, zm.ngens), zm):
            failure = "r s is not the identity"
        elif not _same_map(Y.map_matrix(0, w), sgr, ym):
            failure = "f differs from s g r"
        else:
            lim, lim1 = _window_limits(zm, g_mat)
            sr = compose_matrices(s_mat, r_mat, ym.ngens)
            complement = [[(i == j) - sr[i][j] for i in range(ym.ngens)] for j in range(ym.ngens)]
            comp_rank, comp_torsion = _submodule_presentation(complement, ym).rank_torsion()
            per_weight.append({"weight": w, "lim": lim, "lim1": lim1,
                               "complement_rank": comp_rank, "complement_torsion": comp_torsion})
            continue
        per_weight.append({"weight": w, "failure": failure})
        return {"ok": False, "per_weight": per_weight}
    return {"ok": True, "per_weight": per_weight}


def random_unimodular(rng, n: int):
    """Random unimodular integer matrix built from elementary operations
    and a sign flip: its determinant +-1 is a unit modulo every prime."""
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

    A periodic window module M with composite h has the colimit of h on
    its stable image when the images of h stop falling: every element
    lands there, and h is bijective on it (Z/12 under 2 gives Z/3).  When
    they keep falling on M = Z^n, h is injective with determinant d, the
    index of I_(N+1) in I_N, on the last image I_N, of rank r.  The
    colimit is Z[1/d]^r exactly when, for every prime p | d, the rank
    s_p of h^(N+1) mod p is 0 (h is nilpotent mod p).  That holds when d
    divides a power of the first Smith invariant of I_(N+1), so d is
    factored only otherwise: then some p is not invertible on the
    colimit (Z^2 under diag(2, 3) gives Z[1/2] + Z[1/3]) and the answer
    is partial, with each s_p in the note.  A falling chain with torsion,
    or a system without a window, is its last stage flagged partial.
    """
    w = weight
    if t.periodicity is None:
        return _partial("partial: truncated colimit over stored stages",
                        *t.stages[-1].piece(w).rank_torsion())
    # the window's maps and its periodicity were checked when t was built,
    # so the composite is a well-defined endomorphism of the window module
    module, mat = t.window_composite(w)
    image, following = _image_chain(module, mat)
    if image == following:
        return _exact(*_image_module(image, module).rank_torsion(),
                      "stable image of the window composite")
    if module.relations:
        return _partial("partial: torsion telescope outside the supported regimes",
                        *module.rank_torsion())
    rank, d = len(image), _index(image, following)
    # s_p counts the Smith invariants that p does not divide; all are
    # multiples of the first, so every s_p is 0 exactly when d divides a
    # power of it, and a bit length of d bounds each prime's exponent
    invariants = snf_invariants(following)
    if pow(invariants[0], d.bit_length(), d) == 0:
        return _exact(rank, [], f"rank {rank} over the base with {d} inverted", localized_at=d)
    stable = {p: sum(1 for v in invariants if v % p) for p in _prime_divisors(d)}
    ranks = ", ".join(f"s_{p}={s}" for p, s in stable.items())
    return _partial(f"partial: {d} is not invertible on the colimit; "
                    f"ranks of the window power mod p: {ranks}", rank, [])

"""Module towers, telescopes, and the base-change comparison.

Walks the three canonical tower examples, a mixed free/torsion window,
a split comparison, a localizing telescope, and the full base-change
suite at truncation 8.
"""

import random

from orcohom import (
    FPModule,
    FlagBundle,
    GradedFPModule,
    GradedMap,
    GrassmannianBundle,
    ModuleTower,
    ProjectiveSpace,
    TelescopeDiagram,
    random_split_tower,
    split_tower_compare,
    telescope_colimit,
    tower_limit_and_lim1,
    verify_conner_floyd,
)

print("== towers ==")
gm = GradedFPModule({0: FPModule.free(1)})
ident = GradedMap({0: [[1]]})
constant = ModuleTower([gm] * 4, [ident] * 3, periodicity=(0, 1))
lim, lim1 = tower_limit_and_lim1(constant, 0)
print("constant Z tower:   lim rank", lim["rank"], "| lim1", lim1["rank"], "-", lim1["note"])

m8 = GradedFPModule({0: FPModule.modular(8, 1)})
two = GradedMap({0: [[2]]})
doubling = ModuleTower([m8] * 4, [two] * 3, periodicity=(0, 1))
lim, lim1 = tower_limit_and_lim1(doubling, 0)
print("Z/8 by-2 tower:     lim", (lim["rank"], lim["torsion"]), "| lim1", lim1["rank"])

adic = ModuleTower([gm] * 4, [two] * 3, periodicity=(0, 1))
lim, lim1 = tower_limit_and_lim1(adic, 0)
print("Z by-2 tower:       flagged partial:", lim1["note"])

mixed = GradedFPModule({0: FPModule(2, [[0, 4]])})
halving = ModuleTower([mixed] * 4, [GradedMap({0: [[1, 0], [0, 2]]})] * 3, periodicity=(0, 1))
lim, lim1 = tower_limit_and_lim1(halving, 0)
print("Z+Z/4 by diag(1,2): lim", (lim["rank"], lim["torsion"]), "-", lim["note"])

print()
print("== split comparison ==")
rng = random.Random(1)
Y, Z, r, s, g = random_split_tower(rng)
rep = split_tower_compare(Y, Z, r, s, g)
entry = rep["per_weight"][0]
print("random split tower: r s = 1 and f = s g r:", rep["ok"],
      "| lim, computed on Z:", (entry["lim"]["rank"], entry["lim"]["torsion"]),
      "| complement, the image of 1 - s r:", (entry["complement_rank"], entry["complement_torsion"]))

print()
print("== telescopes ==")
tele = TelescopeDiagram([gm] * 4, [two] * 3, periodicity=(0, 1))
print("Z ->2 Z ->2 ...:", telescope_colimit(tele, 0))

print()
print("== base change: universal coefficients to the Laurent domain ==")
for X in (ProjectiveSpace(0), ProjectiveSpace(2), ProjectiveSpace(4),
          GrassmannianBundle(2, 4), FlagBundle(3)):
    rep = verify_conner_floyd(X, 8)
    ranks = [e["cobordism_rank"] for e in rep["per_weight"]]
    print(f"{rep['instance']:>9}: isomorphism={rep['isomorphism']} ranks={ranks} "
          f"total={rep['total_rank']}")

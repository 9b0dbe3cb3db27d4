"""Exact symbolic calculus for oriented cohomology rings, formal group
laws, filtered classifying-space algebra and Bott-inverted towers.

The package is organized around a small exact-arithmetic kernel
(coefficient domains, sparse polynomials, presented graded rings and
integer linear algebra) on which the mathematical layers are built:
group-law calculus with the truncated universal coefficients,
presentations for projective spaces, bundles and classifying spaces,
the Hopf-algebra primitives of the stable classifying space, the
filtration-quotient decomposition, module-tower limits, and the
base-change comparison between the universal and multiplicative
presentations.
"""

from .coefficients import (
    BaseRing,
    IntegerRing,
    LaurentRing,
    ModularRing,
    NonDivisibleBase,
    QQ,
    RationalRing,
    ZZ,
    laurent_over,
)
from .polynomials import Polynomial
from .presented import (
    GradedPiece,
    IllDefinedMap,
    NonConfluentPresentation,
    PresentedRing,
    QuotientCoefficients,
    RingMap,
    compose,
    scalar_ring,
)
from .fgl import (
    FormalGroupLaw,
    check_axioms,
    classifying_map,
    formal_inverse,
    lazard_generators,
    lazard_graded_ranks,
    lazard_ring,
    logarithm,
    make_additive,
    make_multiplicative,
    n_series,
    universal_law,
)
from .spaces import (
    ClassifyingBGL,
    FlagBundle,
    GrassmannianBundle,
    InfiniteProjectiveSpace,
    OrientedTheory,
    Product,
    ProjectiveBundle,
    ProjectiveSpace,
    additive_theory,
    chern_dual,
    chern_tensor,
    cohomology,
    homology_dual,
    multiplicative_theory,
    restriction_map,
)
from .hopf import (
    HopfData,
    additive_maps_identification,
    build_hopf,
    indecomposables,
    primitives,
)
from .thom import ThomDecomposition, thom_decompose, thom_iso_check, thom_product_check
from .towers import (
    FPModule,
    GradedFPModule,
    GradedMap,
    ModuleTower,
    TelescopeDiagram,
    UndecidableTower,
    random_split_tower,
    random_surjective_tower,
    split_tower_compare,
    telescope_colimit,
    tower_limit_and_lim1,
)
from .conner_floyd import (
    base_change,
    cobordism_presentation,
    universal_theory,
    verify_conner_floyd,
)

__version__ = "0.1.0"

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

Importing the package registers every library module in ``sys.modules``
and binds it here, but a module's code runs only on its first attribute
access (``importlib.util.LazyLoader``), so a CLI call executes just the
modules it reaches.  The public names below are served the same way.
``orcohom.cli`` is imported normally: every process that imports it runs it.
"""

# module -> the public names read from it
_PUBLIC = {
    "coefficients": ("BaseRing", "IntegerRing", "LaurentRing", "ModularRing", "NonDivisibleBase",
                     "QQ", "RationalRing", "ZZ", "laurent_over"),
    "polynomials": ("Polynomial",),
    "presented": ("GradedPiece", "IllDefinedMap", "NonConfluentPresentation", "PresentedRing",
                  "QuotientCoefficients", "RingMap", "compose", "scalar_ring"),
    "fgl": ("FormalGroupLaw", "check_axioms", "classifying_map", "formal_inverse",
            "lazard_generators", "lazard_graded_ranks", "lazard_ring", "logarithm",
            "make_additive", "make_multiplicative", "n_series", "universal_law"),
    "spaces": ("ClassifyingBGL", "FlagBundle", "GrassmannianBundle", "InfiniteProjectiveSpace",
               "OrientedTheory", "Product", "ProjectiveBundle", "ProjectiveSpace",
               "additive_theory", "chern_dual", "chern_tensor", "cohomology", "homology_dual",
               "multiplicative_theory", "restriction_map"),
    "hopf": ("HopfData", "additive_maps_identification", "build_hopf", "indecomposables",
             "primitives"),
    "thom": ("ThomDecomposition", "thom_decompose", "thom_iso_check", "thom_product_check"),
    "towers": ("FPModule", "GradedFPModule", "GradedMap", "ModuleTower", "TelescopeDiagram",
               "UndecidableTower", "random_split_tower", "random_surjective_tower",
               "split_tower_compare", "telescope_colimit", "tower_limit_and_lim1"),
    "conner_floyd": ("base_change", "cobordism_presentation", "universal_theory",
                     "verify_conner_floyd"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def _register_lazily(names) -> None:
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in names:
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register_lazily([*_PUBLIC, "partitions", "intlinalg", "serialize"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})

"""The package registers its modules lazily: what a process executes.

``import orcohom`` puts every library module in ``sys.modules`` but runs
one only on its first attribute access, so a subcommand executes just the
modules it reaches.  A module that has run is a plain ``types.ModuleType``;
one still waiting is importlib's lazy subclass.  The benchmark's span
recorder (``bench/spans.py``) looks its targets up in ``sys.modules`` and
reads them with ``getattr``, which runs them, so it still finds every one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orcohom

ROOT = Path(__file__).resolve().parent.parent

LIBRARY = {"coefficients", "conner_floyd", "fgl", "hopf", "intlinalg", "partitions",
           "polynomials", "presented", "serialize", "spaces", "thom", "towers"}

# the names the package re-exports, by the module that defines them
PUBLIC = {
    "coefficients": "BaseRing IntegerRing LaurentRing ModularRing NonDivisibleBase QQ RationalRing "
                    "ZZ laurent_over",
    "polynomials": "Polynomial",
    "presented": "GradedPiece IllDefinedMap NonConfluentPresentation PresentedRing "
                 "QuotientCoefficients RingMap compose scalar_ring",
    "fgl": "FormalGroupLaw check_axioms classifying_map formal_inverse lazard_generators "
           "lazard_graded_ranks lazard_ring logarithm make_additive make_multiplicative "
           "n_series universal_law",
    "spaces": "ClassifyingBGL FlagBundle GrassmannianBundle InfiniteProjectiveSpace OrientedTheory "
              "Product ProjectiveBundle ProjectiveSpace additive_theory chern_dual chern_tensor "
              "cohomology homology_dual multiplicative_theory restriction_map",
    "hopf": "HopfData additive_maps_identification build_hopf indecomposables primitives",
    "thom": "ThomDecomposition thom_decompose thom_iso_check thom_product_check",
    "towers": "FPModule GradedFPModule GradedMap ModuleTower TelescopeDiagram UndecidableTower "
              "random_split_tower random_surjective_tower split_tower_compare telescope_colimit "
              "tower_limit_and_lim1",
    "conner_floyd": "base_change cobordism_presentation universal_theory verify_conner_floyd",
}


def run_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


# prints (registered modules, executed modules) after running the CLI on ARGV
MODULE_SETS = """
import contextlib, io, json, sys, types
from orcohom import cli
if ARGV:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(ARGV) == 0
mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items() if k.startswith("orcohom.")}
print(json.dumps([sorted(mods), sorted(k for k, m in mods.items() if type(m) is types.ModuleType)]))
"""


def module_sets(*argv: str):
    registered, executed = json.loads(run_python(f"ARGV = {list(argv)!r}\n{MODULE_SETS}"))
    return set(registered), set(executed)


def test_cli_import_registers_every_module_and_executes_none_of_the_layers():
    registered, executed = module_sets()
    assert registered == LIBRARY | {"cli"}
    assert "cli" in executed
    assert not executed & {"fgl", "spaces", "hopf", "thom", "towers", "conner_floyd", "serialize"}


@pytest.mark.parametrize("argv, executed", [
    (["schema"], {"cli", "serialize", "coefficients", "polynomials"}),
    (["tower", "--random-check", "split", "--trials", "3"],
     {"cli", "serialize", "coefficients", "polynomials", "intlinalg", "towers"}),
])
def test_subcommand_executes_only_the_modules_it_reaches(argv, executed):
    # a top-level from-import of a layer in cli or serialize would widen these sets
    assert module_sets(*argv)[1] == executed


def test_public_names_are_served_from_their_modules():
    names = {name: module for module, listed in PUBLIC.items() for name in listed.split()}
    assert sorted(orcohom.__all__) == sorted(names)
    assert set(names) <= set(dir(orcohom))
    for name, module in names.items():
        assert getattr(orcohom, name) is getattr(getattr(orcohom, module), name), name
    with pytest.raises(AttributeError):
        orcohom.no_such_name


def test_library_modules_are_bound_on_the_package():
    for name in LIBRARY:
        assert getattr(orcohom, name) is sys.modules[f"orcohom.{name}"]


def test_span_recorder_finds_every_target_and_sees_calls():
    # the benchmark installs its recorder right after `import orcohom.cli`
    code = f"""
import sys
sys.path.insert(0, {str(ROOT / "bench")!r})
import orcohom.cli
import orcohom
import spans

rec = spans.Recorder()
rec.install()
assert rec.missing == [], rec.missing

def calls(name):
    return rec.name_ids.count(rec.name_id(name))

# through the package, as the launcher calls it
theory = orcohom.additive_theory(truncation=1)
ring = orcohom.cohomology(theory, orcohom.ProjectiveSpace(1), 1)
assert calls("spaces.cohomology") == 1
# through spaces' own `from .presented import compose`; at truncation 1 the
# formal inverse composes nothing, so the one span is chern_dual's
before = calls("presented.compose")
orcohom.chern_dual(theory, ring, ring.var(0))
assert calls("presented.compose") == before + 1
print("ok")
"""
    assert run_python(code).strip() == "ok"

"""The benchmark's workloads: the cases each one runs and how each is checked.

A case is one process.  ``schubert``, ``lazard`` and ``hopf`` are one
library call chain each; ``cli`` is one process per subcommand.  The seed
shapes only generated inputs: the tower and telescope JSON files and the
``--seed`` of the random tower checks.  Every check compares against
:mod:`oracles` or against a value the generator put into the input, never
against a value the library computed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracles

# Sizes per workload.  ``full`` is what the benchmark measures; ``tiny``
# is the smoke mode, which checks plumbing and metric names only.
SIZES = {
    "full": {
        "schubert": {"grassmannian": [3, 7, 10], "flag": [6, 15]},
        "lazard": {"lazard": 9, "conner_floyd": 8},
        "hopf": {"truncation": 11},
        "cli": {"D": 6, "lazard": 8, "trials": 100},
    },
    "tiny": {
        "schubert": {"grassmannian": [2, 4, 4], "flag": [3, 3]},
        "lazard": {"lazard": 4, "conner_floyd": 3},
        "hopf": {"truncation": 4},
        "cli": {"D": 3, "lazard": 3, "trials": 3},
    },
}

# The seven instances of the CLI's Conner-Floyd suite, copied so that the
# workload stays fixed if the CLI's list changes.
CF_SPACES = [
    {"Pn": 0}, {"Pn": 1}, {"Pn": 2}, {"Pn": 3}, {"Pn": 4},
    {"Grassmannian": {"m": 2, "n": 4}}, {"Flag": {"n": 3}},
]

CLI_SUBCOMMANDS = ["fgl-check", "fgl-lazard", "cohomology", "restriction", "hopf-primitives",
                   "thom-decompose", "tower", "telescope", "conner-floyd", "schema"]

CLI_CASES = ["fgl-check", "fgl-lazard", "cohomology", "restriction", "hopf-primitives",
             "thom-decompose", "tower-surjective", "tower-split", "tower-input", "telescope",
             "conner-floyd", "schema"]


@dataclass
class Case:
    name: str
    argv: list[str]          # launcher arguments after META and TRACE
    expect_status: int
    check: Callable[[bytes], str | None]   # stdout -> error message or None


def _need(cond: bool, message: str) -> str | None:
    return None if cond else message


def _json_check(fn):
    def check(stdout: bytes):
        try:
            data = json.loads(stdout)
        except ValueError as e:
            return f"stdout is not JSON: {e}"
        try:
            return fn(data)
        except (KeyError, TypeError, IndexError) as e:
            return f"unexpected output shape: {e!r}"
    return check


# ---------------------------------------------------------------------------
# library workloads


def schubert_cases(size: dict) -> list[Case]:
    m, n, d_gr = size["grassmannian"]
    k, d_flag = size["flag"]
    want_gr = oracles.grassmannian_ranks(m, n, d_gr)
    want_flag = oracles.flag_ranks(k, d_flag)

    def check(data):
        return (_need(data["grassmannian"] == want_gr, f"Gr({m},{n}) ranks {data['grassmannian']}")
                or _need(data["flag"] == want_flag, f"Flag({k}) ranks {data['flag']}")
                or _need(2 * d_flag < k * (k - 1) or sum(data["flag"]) == math.factorial(k),
                         f"Flag({k}) total is not {k}!"))
    return [Case("schubert", ["lib", "schubert", json.dumps(size)], 0, _json_check(check))]


def lazard_cases(size: dict) -> list[Case]:
    d_lazard, d_cf = size["lazard"], size["conner_floyd"]
    params = {"lazard": d_lazard, "conner_floyd": d_cf, "spaces": CF_SPACES}
    want_cf = [{"total_rank": oracles.conner_floyd_total(s, d_cf), "isomorphism": True}
               for s in CF_SPACES]

    def check(data):
        return (_need(data["lazard"] == oracles.lazard_ranks(d_lazard),
                      f"Lazard ranks {data['lazard']}")
                or _need(data["conner_floyd"] == want_cf,
                         f"Conner-Floyd reports {data['conner_floyd']}"))
    return [Case("lazard", ["lib", "lazard", json.dumps(params)], 0, _json_check(check))]


def hopf_cases(size: dict) -> list[Case]:
    D = size["truncation"]

    def check(data):
        return (_need(data["primitive_ranks"] == [1] * D, f"primitive ranks {data['primitive_ranks']}")
                or _need(data["indecomposable_ranks"] == [1] * D,
                         f"indecomposable ranks {data['indecomposable_ranks']}")
                or _need(data["pairings_unimodular"], "a primitive pairing is not unimodular")
                or _need(data["identification_ok"], "additive identification failed")
                or _need(data["thom_piece_ranks"] == [oracles.thom_piece_ranks(w) for w in range(D + 1)],
                         "Thom piece ranks differ from partitions into exactly n parts")
                or _need([sum(r) for r in data["thom_piece_ranks"]] == oracles.lazard_ranks(D),
                         "Thom totals differ from p(w)")
                or _need(data["thom_products_ok"], "a Thom product check failed"))
    return [Case("hopf", ["lib", "hopf", json.dumps({"truncation": D})], 0, _json_check(check))]


def escapes_case(size: dict) -> Case:
    """Counts the normal forms outside the reported basis; reported, not checked."""
    params = {"grassmannian": size["grassmannian"]}
    return Case("basis_escapes", ["lib", "basis_escapes", json.dumps(params)], 0,
                _json_check(lambda data: None))


# ---------------------------------------------------------------------------
# cli workload


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice([-1, 1, 2])
        mat[j] = [a + c * b for a, b in zip(mat[j], mat[i])]
    return mat


def tower_input(rng: random.Random):
    """A periodic tower and the limits it must have, weight by weight.

    Weight 0: Z/n under a unit (surjective, lim = Z/n).  Weight 1: Z^r
    under a unimodular matrix (lim = Z^r).  Weight 2: Z/p^k under
    multiplication by p (finite, the stable image is 0).
    """
    p = rng.choice([2, 3, 5, 7])
    n = p ** rng.randint(1, 3)
    unit = rng.choice([u for u in range(1, n) if u % p])
    r = rng.randint(1, 3)
    q = rng.choice([2, 3, 5])
    qk = q ** rng.randint(2, 3)
    stage = {"0": {"ngens": 1, "relations": [[n]]},
             "1": {"ngens": r, "relations": []},
             "2": {"ngens": 1, "relations": [[qk]]}}
    maps = {"0": [[unit]], "1": _unimodular(rng, r), "2": [[q]]}
    doc = {"stages": [stage] * 4, "maps": [maps] * 3, "periodicity": [0, 1],
           "surjectivity": None}
    want = {0: (0, [n]), 1: (r, []), 2: (0, [])}
    return doc, want


def telescope_input(rng: random.Random):
    """Weight 0: Z under multiplication by d (Z[1/d]).  Weight 1: Z^r under
    a unimodular matrix (stable value Z^r)."""
    d = rng.randint(2, 12)
    r = rng.randint(1, 3)
    stage = {"0": {"ngens": 1, "relations": []}, "1": {"ngens": r, "relations": []}}
    maps = {"0": [[d]], "1": _unimodular(rng, r)}
    doc = {"stages": [stage] * 4, "maps": [maps] * 3, "periodicity": [0, 1]}
    return doc, {0: (1, d), 1: (r, None)}


def cli_cases(size: dict, seed: int, workdir: str) -> list[Case]:
    rng = random.Random(seed)
    D, DL, trials = size["D"], size["lazard"], size["trials"]
    tower_doc, tower_want = tower_input(rng)
    tele_doc, tele_want = telescope_input(rng)
    check_seed = str(rng.randrange(1, 10 ** 6))
    tower_path = os.path.join(workdir, "tower.json")
    tele_path = os.path.join(workdir, "telescope.json")
    for path, doc in ((tower_path, tower_doc), (tele_path, tele_doc)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    gr = {"Grassmannian": {"m": 2, "n": 5}}

    def fgl_check(data):
        return _need(data["axioms"]["passed"] and data["inverse_identity"], "axioms failed")

    def fgl_lazard(data):
        return _need(data["graded_ranks"] == oracles.lazard_ranks(DL), f"ranks {data['graded_ranks']}")

    def cohomology(data):
        return _need(data["graded_ranks"] == oracles.grassmannian_ranks(2, 5, D),
                     f"Gr(2,5) ranks {data['graded_ranks']}")

    def restriction(data):
        return _need(all(e["surjective"] for e in data["surjectivity"]), "restriction not onto")

    def hopf_primitives(data):
        return _need([e["rank"] for e in data["primitives"]] == [1] * D
                     and [e["rank"] for e in data["indecomposables"]] == [1] * D
                     and data["ok"], "primitive or indecomposable ranks differ from 1")

    def thom(data):
        return _need([e["piece_ranks"] for e in data["rank_table"]]
                     == [oracles.thom_piece_ranks(w) for w in range(D + 1)]
                     and data["ok"], "Thom piece ranks differ from the partition counts")

    def random_check(data):
        return _need(data["ok"] and len(data["results"]) == trials, "random tower check failed")

    def tower(data):
        got = {e["weight"]: (e["lim"]["rank"], e["lim"]["torsion"], e["lim1"]["rank"])
               for e in data["weights"]}
        want = {w: (rank, torsion, 0) for w, (rank, torsion) in tower_want.items()}
        return _need(got == want, f"tower limits {got}, expected {want}")

    def telescope(data):
        got = {e["weight"]: (e["colimit"]["rank"], e["colimit"].get("localized_at"))
               for e in data["weights"]}
        return _need(got == tele_want, f"telescope colimits {got}, expected {tele_want}")

    def conner_floyd(data):
        return _need(data["verdict"] == "isomorphism"
                     and data["reports"][0]["total_rank"] == oracles.conner_floyd_total({"Pn": 2}, D),
                     "Conner-Floyd verdict or total rank")

    def schema(data):
        return _need(sorted(data["operationCoverage"]) == sorted(CLI_SUBCOMMANDS),
                     "schema does not cover the ten subcommands")

    def cli(*args):
        return ["cli", *args, "--format", "json"]

    ds = ["--truncation", str(D)]
    specs = [
        ("fgl-check", cli("fgl-check", "--law", "multiplicative", *ds), fgl_check),
        # explicit --bound: the default bound (6) is below the default truncation (8)
        ("fgl-lazard", cli("fgl-lazard", "--truncation", str(DL), "--bound", str(DL)), fgl_lazard),
        ("cohomology", cli("cohomology", "--space", json.dumps(gr), *ds), cohomology),
        ("restriction", cli("restriction", "--bigger", '{"Pn":3}', "--smaller", '{"Pn":2}', *ds),
         restriction),
        ("hopf-primitives", cli("hopf-primitives", *ds), hopf_primitives),
        ("thom-decompose", cli("thom-decompose", *ds), thom),
        ("tower-surjective", cli("tower", "--random-check", "surjective", "--trials", str(trials),
                                 "--seed", check_seed), random_check),
        ("tower-split", cli("tower", "--random-check", "split", "--trials", str(trials),
                            "--seed", check_seed), random_check),
        ("tower-input", cli("tower", "--input", tower_path), tower),
        ("telescope", cli("telescope", "--input", tele_path), telescope),
        ("conner-floyd", cli("conner-floyd", "--space", '{"Pn":2}', *ds), conner_floyd),
        ("schema", cli("schema"), schema),
    ]
    assert [name for name, _, _ in specs] == CLI_CASES
    return [Case(name, argv, 0, _json_check(fn)) for name, argv, fn in specs]


def build(workload: str, size_name: str, seed: int, workdir: str) -> list[Case]:
    size = SIZES[size_name][workload]
    if workload == "cli":
        return cli_cases(size, seed, workdir)
    return {"schubert": schubert_cases, "lazard": lazard_cases, "hopf": hopf_cases}[workload](size)

"""Batch command line interface.

Each operation in OPERATION_COVERAGE has exactly one subcommand; others,
such as ``chern_dual``, are library-only.  Output is byte-deterministic
for fixed inputs and seed.  Exit codes: 0 success or verified, 1
verification failure, 2 input error, 3 internal error (any other
exception, reported on stderr with its type; nothing goes to stdout).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import repeat

from . import conner_floyd as cf
from . import fgl as fgl_mod
from . import hopf as hopf_mod
from . import serialize as ser
from . import spaces as sp
from . import thom as thom_mod
from . import towers as tw
from .coefficients import NonDivisibleBase
from .partitions import partition_count
from .polynomials import Polynomial
from .presented import IllDefinedMap

OPERATION_COVERAGE = {
    "fgl-check": ["make_additive", "make_multiplicative", "check_axioms",
                  "formal_inverse", "n_series", "logarithm"],
    "fgl-lazard": ["lazard_ring", "lazard_graded_ranks", "classifying_map"],
    "cohomology": ["cohomology", "normal_form", "graded_basis", "chern_tensor", "homology_dual"],
    "restriction": ["restriction_map", "apply", "is_graded_isomorphism"],
    "hopf-primitives": ["build_hopf", "primitives", "additive_maps_identification",
                        "indecomposables"],
    "thom-decompose": ["thom_decompose", "thom_product_check", "thom_iso_check"],
    "tower": ["tower_limit_and_lim1", "split_tower_compare"],
    "telescope": ["telescope_colimit"],
    "conner-floyd": ["cobordism_presentation", "verify_conner_floyd"],
    "schema": ["schema"],
}

STANDARD_CF_INSTANCES = [
    {"Pn": 0}, {"Pn": 1}, {"Pn": 2}, {"Pn": 3}, {"Pn": 4},
    {"Grassmannian": {"m": 2, "n": 4}}, {"Flag": {"n": 3}},
]


class InputError(ValueError):
    pass


def _load_json(args, inline: str | None = None):
    if inline is not None:
        try:
            return json.loads(inline)
        except json.JSONDecodeError as e:
            raise InputError(f"malformed JSON: {e.msg} at position {e.pos}") from e
    if args.input is None:
        raise InputError("an --input file or inline JSON argument is required")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"input file not found: {args.input}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON: {e.msg} at position {e.pos}") from e


# the --theory choices of `cohomology` and `restriction`, each built at the truncation
_THEORIES = {
    "additive": lambda D: sp.additive_theory(truncation=D),
    "multiplicative": lambda D: sp.multiplicative_theory(truncation=D),
    "universal": cf.universal_theory,
}


# ---------------------------------------------------------------------------
# handlers return (result dict, verified bool | None, csv rows); main adds schemaVersion


def run_fgl_check(args):
    D = args.truncation
    if args.input:
        law = ser.fgl_from_json(_load_json(args))
    elif args.law == "additive":
        law = fgl_mod.make_additive(truncation=D)
    else:
        law = fgl_mod.make_multiplicative(truncation=D)
    axioms = fgl_mod.check_axioms(law)
    inv = fgl_mod.formal_inverse(law)
    from .presented import compose
    residue = compose(law.ring2, law.series, [law.x(), inv], law.base)
    inverse_ok = residue.is_zero()
    two = fgl_mod.n_series(law, 2)
    result = {
        "axioms": axioms,
        "inverse_identity": inverse_ok,
        "formal_inverse": ser.poly_to_json(inv, (1, 1), 2),
        "two_series": ser.poly_to_json(two, (1, 1), 2),
        "minus_one_series": ser.poly_to_json(inv, (1, 1), 2),  # [-1](x) = i(x)
    }
    try:
        log = fgl_mod.logarithm(law)
        result["logarithm"] = ser.poly_to_json(log, (1, 1), 2)
    except NonDivisibleBase as e:
        result["logarithm"] = f"unavailable: {e}"
    verified = axioms["passed"] and inverse_ok
    csv_rows = ([["axiom", "ok"]] + [[k, axioms[k]] for k in ("unit", "commutative", "associative")]
                + [["inverse", inverse_ok]])
    return result, verified, csv_rows


def run_fgl_lazard(args):
    D = args.truncation
    if D > args.bound:
        raise InputError(f"truncation {D} exceeds --bound {args.bound}")
    ranks = fgl_mod.lazard_graded_ranks(D, args.bound)
    ring = fgl_mod.lazard_ring(D, args.bound)
    law = fgl_mod.make_multiplicative(truncation=D + 1)
    cmap = fgl_mod.classifying_map(law, ring)
    images = {name: cmap.target.base.coeff_str(im.constant_term())
              for name, im in zip(ring.names, cmap.images)}
    result = {
        "truncation": D,
        "generators": list(ring.names),
        "relation_count": len(ring.relations),
        "graded_ranks": ranks,
        "multiplicative_classifying_images": images,
        "presentation": ser.presented_ring_to_json(ring),
    }
    csv_rows = [["weight", "rank"]] + [[w, r] for w, r in enumerate(ranks)]
    return result, True, csv_rows  # the ranks and the classifying map raise on a wrong presentation


def run_cohomology(args):
    D = args.truncation
    theory = _THEORIES[args.theory](D)
    space_doc = _load_json(args, args.space)
    space = ser.space_from_json(space_doc)
    ring = sp.cohomology(theory, space, D)
    ranks = ring.graded_ranks()
    result = {
        "space": space_doc,
        "theory": args.theory,
        "truncation": D,
        "variables": [[n, w] for n, w in ring.variables],
        "route": ring.route,
        "graded_ranks": ranks,
        "total_rank": sum(ranks),
        "basis": {str(w): [ring.poly_str(Polynomial(ring.base, {m: ring.base.one()}))
                           for m in ring.graded_basis(w).basis]
                  for w in range(min(D, 6) + 1)},
    }
    if args.reduce:
        poly = ser.poly_from_json(ring.base, _load_json(args, args.reduce))
        nf = ring.normal_form(poly)
        result["reduced"] = ser.poly_to_json(nf, ring.weights, ring.nvars)
        result["reduced_pretty"] = ring.poly_str(nf)
    if args.tensor:
        names = args.tensor.split(",")
        if len(names) != 2:
            raise InputError("--tensor expects two generator names")
        t = sp.chern_tensor(theory, ring, ring.var(names[0].strip()), ring.var(names[1].strip()))
        result["tensor_class"] = ring.poly_str(t)
    if args.dual:
        result["homology_dual_ranks"] = sp.homology_dual(ring)
    csv_rows = [["weight", "rank"]] + [[w, r] for w, r in enumerate(ranks)]
    return result, None, csv_rows


def run_restriction(args):
    D = args.truncation
    theory = _THEORIES[args.theory](D)
    bigger = ser.space_from_json(_load_json(args, args.bigger))
    smaller = ser.space_from_json(_load_json(args, args.smaller))
    rmap = sp.restriction_map(theory, bigger, smaller, D)
    # restriction_map sends generators to generators, so it is onto in every weight
    surj = [{"weight": w, "surjective": True} for w in range(D + 1)]
    result = {
        "truncation": D,
        "images": [rmap.target.poly_str(im) for im in rmap.images],
        "well_defined": True,
        "surjectivity": surj,
    }
    verified = None
    if args.apply:
        poly = ser.poly_from_json(rmap.source.base, _load_json(args, args.apply))
        image = rmap.apply(poly)
        result["applied"] = rmap.target.poly_str(image)
    if args.iso:
        ok, per_weight = rmap.is_graded_isomorphism()
        result["isomorphism"] = ok
        result["per_weight"] = per_weight
        verified = ok
    csv_rows = [["weight", "surjective"]] + [[e["weight"], e["surjective"]] for e in surj]
    return result, verified, csv_rows


def run_hopf(args):
    D = args.truncation
    hd = hopf_mod.build_hopf(sp.additive_theory(truncation=D), D)
    prim = [hopf_mod.primitives(hd, w) for w in range(1, D + 1)]
    ident = hopf_mod.additive_maps_identification(hd)
    indec = [hopf_mod.indecomposables(hd, w) for w in range(1, D + 1)]
    delta2 = {str(k): v for k, v in sorted(hd.delta(2)[(2,)].items())} if D >= 2 else {}
    verified = ident["ok"] and all(e["pairing_unimodular"] for e in indec)
    result = {
        "truncation": D,
        "primitives": prim,
        "additive_identification": ident,
        "indecomposables": indec,
        "delta_weight2_sample": delta2,
        "ok": verified,
    }
    csv_rows = [["weight", "primitive_rank", "indecomposable_rank"]]
    csv_rows += [[w + 1, prim[w]["rank"], indec[w]["rank"]] for w in range(D)]
    return result, verified, csv_rows


def run_thom(args):
    D = args.truncation
    theory = sp.additive_theory(truncation=D)
    dec = thom_mod.thom_decompose(theory, D)
    table = dec.rank_table()
    products = []
    ok = True
    for p in range(0, D + 1):
        for q in range(p, D + 1 - p):
            rep = thom_mod.thom_product_check(dec, p, q)
            ok = ok and rep["ok"]
            products.append({"p": p, "q": q, "ok": rep["ok"]})
    isos = []
    for n in range(0, min(3, D) + 1):
        rep = thom_mod.thom_iso_check(theory, n, D)
        ok = ok and rep["ok"]
        isos.append({"n": n, "ok": rep["ok"]})
    labels = {}
    for w in range(min(D, 6) + 1):
        labels[str(w)] = {str(n): ["+".join(map(str, p)) or "()"
                                   for p in dec.piece_basis(n, w)]
                          for n in range(w + 1)}
    result = {
        "truncation": D,
        "rank_table": table,
        "piece_basis_labels": labels,
        "partition_totals": [partition_count(w) for w in range(D + 1)],
        "product_checks": products,
        "shift_checks": isos,
        "ok": ok,
    }
    csv_rows = [["weight", "total_rank"]] + [[e["weight"], e["total"]] for e in table]
    return result, ok, csv_rows


def run_tower(args):
    rng = random.Random(args.seed)
    if args.random_check:
        trials = args.trials
        if trials < 1:
            raise InputError(f"--trials must be at least 1, got {trials}")
        surjective = args.random_check == "surjective"
        verdicts = []
        for _ in range(trials):
            if surjective:
                _, lim1 = tw.tower_limit_and_lim1(tw.random_surjective_tower(rng), 0)
                verdicts.append(lim1["rank"] == 0 and lim1["torsion"] == [] and lim1["exact"])
            else:
                verdicts.append(tw.split_tower_compare(*tw.random_split_tower(rng))["ok"])
        key = "lim1_zero" if surjective else "ok"
        ok = all(verdicts)
        result = {"check": args.random_check, "trials": trials, "seed": args.seed,
                  "results": [{"trial": t, key: v} for t, v in enumerate(verdicts)], "ok": ok}
        return result, ok, [["trial", "ok"]] + [[t, v] for t, v in enumerate(verdicts)]
    data = _load_json(args)
    if args.compare:
        Y = ser.tower_from_json(data["Y"])
        Z = ser.tower_from_json(data["Z"])
        r = ser._graded_map_from_json(data["r"])
        s = ser._graded_map_from_json(data["s"])
        g = ser._graded_map_from_json(data["g"]) if "g" in data else None
        rep = tw.split_tower_compare(Y, Z, r, s, g)
        result = {"comparison": rep}
        csv_rows = [["weight", "ok"]] + [[e["weight"], "failure" not in e]
                                         for e in rep["per_weight"]]
        return result, rep["ok"], csv_rows
    tower = ser.tower_from_json(data)
    weights = [args.weight] if args.weight is not None else tower.weights()
    entries = []
    for w in weights:
        lim, lim1 = tw.tower_limit_and_lim1(tower, w)
        entries.append({"weight": w, "lim": lim, "lim1": lim1})
    result = {"weights": entries}
    csv_rows = [["weight", "lim_rank", "lim1_rank"]]
    csv_rows += [[e["weight"], e["lim"]["rank"], e["lim1"]["rank"]] for e in entries]
    return result, None, csv_rows


def run_telescope(args):
    data = _load_json(args)
    tele = ser.telescope_from_json(data)
    weights = [args.weight] if args.weight is not None else tele.weights()
    entries = [{"weight": w, "colimit": tw.telescope_colimit(tele, w)} for w in weights]
    result = {"weights": entries}
    csv_rows = [["weight", "rank"]] + [[e["weight"], e["colimit"]["rank"]] for e in entries]
    return result, None, csv_rows


def run_conner_floyd(args):
    D = args.truncation
    if args.suite:
        spaces_json = STANDARD_CF_INSTANCES
    elif args.space:
        spaces_json = [_load_json(args, args.space)]
    else:
        raise InputError("conner-floyd needs --space JSON or --suite")
    descriptors = [ser.space_from_json(s) for s in spaces_json]
    reports = [cf.verify_conner_floyd(X, D) for X in descriptors]
    ok = all(r["isomorphism"] for r in reports)
    result = {"truncation": D, "reports": reports,
              "verdict": "isomorphism" if ok else "mismatch"}
    csv_rows = [["instance", "total_rank", "isomorphism"]]
    csv_rows += [[r["instance"], r["total_rank"], r["isomorphism"]] for r in reports]
    return result, ok, csv_rows


def run_schema(args):
    result = ser.schemas()
    result["operationCoverage"] = OPERATION_COVERAGE
    return result, None, [["schemaVersion"], [ser.SCHEMA_VERSION]]


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orcohom",
                                     description="exact oriented-cohomology calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *shared):
        # --format, and only those of the shared flags the handler reads
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
        if "input" in shared:
            p.add_argument("--input", help="path to a JSON input file")
        if "truncation" in shared:
            p.add_argument("--truncation", "-D", type=int, default=8)
        if "theory" in shared:
            p.add_argument("--theory", choices=list(_THEORIES), default="additive")

    p = sub.add_parser("fgl-check", help="group-law axioms and calculus")
    common(p, "input", "truncation")
    p.add_argument("--law", choices=["additive", "multiplicative"], default="multiplicative")
    p.set_defaults(handler=run_fgl_check)

    p = sub.add_parser("fgl-lazard", help="universal-coefficient presentation and ranks")
    common(p, "truncation")
    p.add_argument("--bound", type=int, default=fgl_mod.LAZARD_DEFAULT_BOUND)
    p.set_defaults(handler=run_fgl_lazard)

    p = sub.add_parser("cohomology", help="presentations for spaces and bundles")
    common(p, "input", "truncation", "theory")
    p.add_argument("--space", help="inline space JSON")
    p.add_argument("--reduce", help="polynomial JSON to put in normal form")
    p.add_argument("--tensor", help="two generator names for the product line bundle class")
    p.add_argument("--dual", action="store_true", help="report homology dual ranks")
    p.set_defaults(handler=run_cohomology)

    p = sub.add_parser("restriction", help="restriction maps along canonical inclusions")
    common(p, "truncation", "theory")
    p.add_argument("--bigger", required=True)
    p.add_argument("--smaller", required=True)
    p.add_argument("--apply", help="polynomial JSON to push through the map")
    p.add_argument("--iso", action="store_true", help="check graded bijectivity")
    p.set_defaults(handler=run_restriction)

    p = sub.add_parser("hopf-primitives", help="primitives and indecomposables")
    common(p, "truncation")
    p.set_defaults(handler=run_hopf)

    p = sub.add_parser("thom-decompose", help="filtration quotients and multiplicativity")
    common(p, "truncation")
    p.set_defaults(handler=run_thom)

    p = sub.add_parser("tower", help="inverse limits and the derived limit")
    common(p, "input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight", type=int)
    p.add_argument("--compare", action="store_true", help="input holds a split comparison")
    p.add_argument("--random-check", choices=["surjective", "split"])
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(handler=run_tower)

    p = sub.add_parser("telescope", help="telescope colimits")
    common(p, "input")
    p.add_argument("--weight", type=int)
    p.set_defaults(handler=run_telescope)

    p = sub.add_parser("conner-floyd", help="base-change isomorphism on instances")
    common(p, "truncation")
    p.add_argument("--space", help="inline space JSON")
    p.add_argument("--suite", action="store_true", help="run the standard instance suite")
    p.set_defaults(handler=run_conner_floyd)

    p = sub.add_parser("schema", help="print all JSON schemas")
    common(p)
    p.set_defaults(handler=run_schema)
    return parser


def _emit_pretty(result: dict) -> None:
    """Nested keys and list items, one per line; leaves as ``json.dumps`` writes them."""
    encode = json.JSONEncoder(sort_keys=True).encode
    fast = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
            bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}
    lines = []

    def walk(obj, pad):
        heads = [(f"{k}:", obj[k]) for k in sorted(obj)] if isinstance(obj, dict) else zip(repeat("-"), obj)
        for head, v in heads:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{head}\n")
                walk(v, pad + "  ")
            else:
                lines.append(f"{pad}{head} {fast.get(type(v), encode)(v)}\n")

    walk(result, "")
    sys.stdout.write("".join(lines))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        result, verified, csv_rows = args.handler(args)
    except IllDefinedMap as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    result["schemaVersion"] = ser.SCHEMA_VERSION
    if args.format == "json":
        out.write(ser.canonical_dumps(result) + "\n")
    elif args.format == "csv":
        for row in csv_rows:
            out.write(",".join(str(v) for v in row) + "\n")
    else:
        _emit_pretty(result)
    return 0 if verified in (True, None) else 1


if __name__ == "__main__":
    sys.exit(main())

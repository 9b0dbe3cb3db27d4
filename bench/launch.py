"""One benchmark case in a fresh interpreter.

    python bench/launch.py META TRACE lib WORKLOAD PARAMS_JSON
    python bench/launch.py META TRACE cli ARG...

The launcher imports ``orcohom.cli``, builds the case's inputs and writes
to META the monotonic time at which that set-up finished.  With TRACE
other than ``-`` it then installs the span wrappers and writes the spans
to TRACE when the case ends.  A ``lib`` case prints its results as JSON
on stdout; a ``cli`` case is ``orcohom.cli.main`` with the given
arguments, so its stdout and exit status are the command's own.

A ``lib`` case reaches the library through the package at call time
(``o.cohomology``, not a name imported into the launcher), so that the
span wrappers, installed after set-up, also see the launcher's own calls.
"""

from __future__ import annotations

import json
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def schubert(p):
    import orcohom as o

    m, n, d_gr = p["grassmannian"]
    k, d_flag = p["flag"]
    gr_theory, gr = o.additive_theory(truncation=d_gr), o.GrassmannianBundle(m, n)
    flag_theory, flag = o.additive_theory(truncation=d_flag), o.FlagBundle(k)

    def run():
        return {"grassmannian": o.cohomology(gr_theory, gr, d_gr).graded_ranks(),
                "flag": o.cohomology(flag_theory, flag, d_flag).graded_ranks()}
    return run


def lazard(p):
    import orcohom as o
    from orcohom.serialize import space_from_json

    d_lazard = p["lazard"]
    d_cf = p["conner_floyd"]
    spaces = [space_from_json(s) for s in p["spaces"]]

    def run():
        ranks = o.lazard_graded_ranks(d_lazard, bound=d_lazard)
        reports = [o.verify_conner_floyd(x, d_cf) for x in spaces]
        return {"lazard": ranks,
                "conner_floyd": [{"total_rank": r["total_rank"], "isomorphism": r["isomorphism"]}
                                 for r in reports]}
    return run


def hopf(p):
    import orcohom as o

    D = p["truncation"]
    theory = o.additive_theory(truncation=D)

    def run():
        hd = o.build_hopf(theory, D)
        prim = [o.primitives(hd, w) for w in range(1, D + 1)]
        indec = [o.indecomposables(hd, w) for w in range(1, D + 1)]
        ident = o.additive_maps_identification(hd)
        dec = o.thom_decompose(hd, D)
        products = [o.thom_product_check(dec, a, b)["ok"]
                    for a in range(D + 1) for b in range(a, D + 1 - a)]
        return {"primitive_ranks": [e["rank"] for e in prim],
                "indecomposable_ranks": [e["rank"] for e in indec],
                "pairings_unimodular": all(e["pairing_unimodular"] for e in indec),
                "identification_ok": ident["ok"],
                "thom_piece_ranks": [e["piece_ranks"] for e in dec.rank_table()],
                "thom_products_ok": all(products)}
    return run


def basis_escapes(p):
    """Ambient monomials whose normal form leaves the reported basis."""
    import orcohom as o

    m, n, D = p["grassmannian"]
    theory = o.additive_theory(truncation=D)

    def run():
        ring = o.cohomology(theory, o.GrassmannianBundle(m, n), D)
        one = ring.base.one()
        count = 0
        for w in range(D + 1):
            basis = set(ring.graded_basis(w).basis)
            for mono in ring.monomials_of_weight(w):
                nf = ring.normal_form(o.Polynomial(ring.base, {mono: one}))
                count += any(t not in basis for t in nf.terms)
        return {"basis_escapes": count}
    return run


LIB = {"schubert": schubert, "lazard": lazard, "hopf": hopf, "basis_escapes": basis_escapes}


def main(argv) -> int:
    meta_path, trace_path, kind, *rest = argv
    t = now()
    import orcohom.cli as cli
    import_s = now() - t
    if kind == "lib":
        run = LIB[rest[0]](json.loads(rest[1]))
    else:
        run = lambda: cli.main(rest)  # noqa: E731
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_done": now(), "import_s": import_s}, fh)
    recorder = None
    if trace_path != "-":
        import spans

        recorder = spans.Recorder()
        recorder.install()
    try:
        result = run()
    finally:
        if recorder is not None:
            recorder.write(trace_path)
    if kind == "lib":
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
        return 0
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""JSON readers for every input document, writers for what the CLI prints.

Spaces, group laws, towers and telescopes are only read.  Coefficient
domains, presented rings and polynomials are also written, because
subcommands print them.  Writing is bit-exact: terms are listed in
graded-lex order (leading term first), dictionary keys are emitted
sorted, and numbers ride as strings wherever they can leave the integer
range, so a written ring reads back to an equal one whose document is
byte-identical.
"""

from __future__ import annotations

import json
import re

# fgl, presented, spaces and towers are module bindings, read at call time,
# so that a subcommand executes only the modules its documents reach
from . import fgl
from . import presented as pres
from . import spaces as sp
from . import towers as tw
from .coefficients import BaseRing, IntegerRing, LaurentRing, ModularRing, RationalRing, QQ, ZZ
from .polynomials import poly_from_json, poly_to_json

SCHEMA_VERSION = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# coefficient domains


def base_ring_to_json(ring: BaseRing) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "Integers"}
    if isinstance(ring, RationalRing):
        return {"kind": "Rationals"}
    if isinstance(ring, ModularRing):
        return {"kind": "IntegersModuloN", "n": ring.n}
    if isinstance(ring, LaurentRing):
        return {"kind": "LaurentAdjoined", "base": base_ring_to_json(ring.base),
                "symbol": ring.symbol, "weight": ring.weight}
    if isinstance(ring, pres.QuotientCoefficients):
        return {"kind": "PresentedQuotient", "ring": presented_ring_to_json(ring.ring)}
    raise TypeError(f"unknown coefficient domain {ring!r}")


def base_ring_from_json(data: dict) -> BaseRing:
    kind = data["kind"]
    if kind == "Integers":
        return ZZ
    if kind == "Rationals":
        return QQ
    if kind == "IntegersModuloN":
        return ModularRing(_integer(data["n"], "IntegersModuloN n"))
    if kind == "LaurentAdjoined":
        return LaurentRing(base_ring_from_json(data["base"]), data["symbol"],
                           _integer(data["weight"], "LaurentAdjoined weight"))
    if kind == "PresentedQuotient":
        return pres.QuotientCoefficients(presented_ring_from_json(data["ring"]))
    raise ValueError(f"unknown coefficient domain kind {kind!r}")


# ---------------------------------------------------------------------------
# presented rings and maps


def presented_ring_to_json(ring: pres.PresentedRing) -> dict:
    return {
        "base": base_ring_to_json(ring.base),
        "variables": [[n, w] for n, w in ring.variables],
        "relations": [poly_to_json(r, ring.weights, ring.nvars) for r in ring.relations],
        "truncation": ring.truncation,
    }


def presented_ring_from_json(data: dict) -> pres.PresentedRing:
    base = base_ring_from_json(data["base"])
    variables = [(n, _integer(w, f"weight of variable {n!r}")) for n, w in data["variables"]]
    relations = [poly_from_json(base, r) for r in data["relations"]]
    return pres.PresentedRing(base, variables, relations, _integer(data["truncation"], "truncation"))


# ---------------------------------------------------------------------------
# group laws


def fgl_from_json(data: dict) -> fgl.FormalGroupLaw:
    """A group law; a ``beta`` key, which older documents carry, is ignored."""
    base = base_ring_from_json(data["base"])
    series = poly_from_json(base, data["series"])
    return fgl.FormalGroupLaw(base, series, _integer(data["truncation"], "group law truncation"))


# ---------------------------------------------------------------------------
# spaces


def _bundle_payload(payload: dict):
    """The base ring and the Chern classes; without a base the classes are
    read over Z, and ``cohomology`` refuses any that is nonzero."""
    base_ring = presented_ring_from_json(payload["base"]) if "base" in payload else None
    coefficients = ZZ if base_ring is None else base_ring.base
    return base_ring, tuple(poly_from_json(coefficients, c) for c in payload.get("chern", []))


def space_from_json(data) -> object:
    if isinstance(data, str):
        if data == "point":
            return sp.ProjectiveSpace(0)
        if data == "Pinf":
            return sp.InfiniteProjectiveSpace()
        raise ValueError(f"unknown space name {data!r}")
    if not isinstance(data, dict) or len(data) != 1:
        raise ValueError("space descriptor must be a one-key object")
    tag, payload = next(iter(data.items()))
    if tag == "Pn":
        return sp.ProjectiveSpace(_integer(payload, "Pn"))
    if tag == "Pinf":
        return sp.InfiniteProjectiveSpace()
    if tag == "BGL":
        return sp.ClassifyingBGL(None if payload in ("inf", None) else _integer(payload, "BGL"))
    if tag in ("Grassmannian", "Flag", "ProjectiveBundle"):
        if not isinstance(payload, dict):
            raise ValueError(f"{tag} descriptor must be an object, got {payload!r}")
        base_ring, chern = _bundle_payload(payload)

        def size(key):
            if key not in payload:
                raise ValueError(f"{tag} descriptor is missing the field {key!r}")
            return _integer(payload[key], f"{tag} {key}")
        if tag == "Grassmannian":
            return sp.GrassmannianBundle(size("m"), size("n"), chern, base_ring)
        if tag == "Flag":
            return sp.FlagBundle(size("n"), chern, base_ring)
        return sp.ProjectiveBundle(size("rank"), chern, base_ring)
    if tag == "Product":
        if not isinstance(payload, list) or len(payload) != 2:
            raise ValueError(f"Product descriptor must list exactly two factors, got {payload!r}")
        return sp.Product(space_from_json(payload[0]), space_from_json(payload[1]))
    raise ValueError(f"unknown space tag {tag!r}")


# ---------------------------------------------------------------------------
# towers


def _integer(value, what: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _periodicity_from_json(data: dict):
    window = data.get("periodicity")
    if window is None:
        return None
    if not isinstance(window, list) or len(window) != 2:
        raise ValueError(f"periodicity must be [k0, rho] or null, got {window!r}")
    return tuple(_integer(v, "periodicity") for v in window)


def _weight(key: str) -> int:
    if re.fullmatch(r"-?[0-9]+", key) is None:
        raise ValueError(f"weight key must be an integer, got {key!r}")
    if str(int(key)) != key:
        raise ValueError(f"weight key must be written {int(key)}, got {key!r}")
    return int(key)


def _module_from_json(data: dict) -> tw.FPModule:
    return tw.FPModule(_integer(data["ngens"], "ngens"),
                       [[_integer(v, "relation entry") for v in r] for r in data["relations"]])


def _graded_module_from_json(data: dict) -> tw.GradedFPModule:
    return tw.GradedFPModule({_weight(w): _module_from_json(m) for w, m in data.items()})


def _graded_map_from_json(data: dict) -> tw.GradedMap:
    return tw.GradedMap({_weight(w): [[_integer(v, "map entry") for v in r] for r in mat]
                         for w, mat in data.items()})


def _diagram_from_json(kind, data: dict):
    return kind([_graded_module_from_json(s) for s in data["stages"]],
                [_graded_map_from_json(m) for m in data["maps"]],
                _periodicity_from_json(data))


def tower_from_json(data: dict) -> tw.ModuleTower:
    """A tower; a ``surjectivity`` key, which older documents carry, is
    ignored: surjectivity is computed, never declared."""
    return _diagram_from_json(tw.ModuleTower, data)


def telescope_from_json(data: dict) -> tw.TelescopeDiagram:
    return _diagram_from_json(tw.TelescopeDiagram, data)


# ---------------------------------------------------------------------------
# schemas


def schemas() -> dict:
    poly = "[[dense-exponent-vector, coefficient-string], ...] in graded-lex order"
    coeff = ("Integers/IntegersModuloN: decimal string; Rationals: 'n' or 'n/d'; "
             "LaurentAdjoined: 'c@e;c@e;...' sorted by exponent; "
             "PresentedQuotient: canonical JSON text of the inner term list")
    return {
        "schemaVersion": SCHEMA_VERSION,
        "coefficientString": coeff,
        "BaseRing": {
            "kind": "Integers | IntegersModuloN | Rationals | LaurentAdjoined | PresentedQuotient",
            "n": "modulus (IntegersModuloN)",
            "base/symbol/weight": "LaurentAdjoined fields",
            "ring": "PresentedRing (PresentedQuotient)",
        },
        "Polynomial": poly,
        "PresentedRing": {
            "base": "BaseRing",
            "variables": "[[name, positive weight], ...]",
            "relations": "[Polynomial, ...] (weight-homogeneous)",
            "truncation": "positive integer weight bound",
        },
        "FormalGroupLaw": {"base": "BaseRing", "series": poly,
                           "truncation": "int", "beta": "ignored"},
        "Space": {
            "Pn": "int", "Pinf": "true", "BGL": "int or 'inf'",
            "Grassmannian": {"m": "int", "n": "int", "base": "PresentedRing?", "chern": "[Polynomial]?"},
            "Flag": {"n": "int", "base": "PresentedRing?", "chern": "[Polynomial]?"},
            "ProjectiveBundle": {"rank": "int", "base": "PresentedRing?", "chern": "[Polynomial]?"},
            "Product": "[Space, Space]",
        },
        "FPModule": {"ngens": "int", "relations": "[[int, ...], ...]"},
        "ModuleTower": {
            "stages": "[{weight: FPModule}, ...]",
            "maps": "[{weight: matrix rows target x source}, ...] (maps[k]: stage k+1 -> stage k)",
            "periodicity": "[k0, rho] or null",
        },
        "TelescopeDiagram": {
            "stages": "[{weight: FPModule}, ...]",
            "maps": "[{weight: matrix}, ...] (maps[k]: stage k -> stage k+1)",
            "periodicity": "[k0, rho] or null",
        },
    }

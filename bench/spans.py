"""Span recorder for traced benchmark runs.

The launcher installs the wrappers after ``orcohom.cli`` is imported and
before it calls the library.  Each wrapped call records one span: name,
start, end and the index of the enclosing span.  Spans stay in memory, in
four flat arrays, until the launcher exits and writes them out; the
parent process turns them into per-layer self times with
:func:`load_trace`.

A module that did ``from .intlinalg import hnf`` holds its own binding,
so a function is replaced in every ``orcohom`` module that refers to it,
not only in the module that defines it.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

clock = time.perf_counter


def _cells(mat) -> int:
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
    rows = list(mat)
    return len(rows) * len(rows[0]) if rows else 0


def _count_cells(key):
    def before(rec, args):
        rec.count(key, _cells(args[0]))
    return before


def _snf_useful(rec, args, result):
    if any(d != 1 for d in result):
        rec.count("intlinalg.snf_invariants.useful")


def _mul_pairs(rec, args):
    rec.count("polynomials.mul.pairs", len(args[0].terms) * len(args[1].terms))


def _ring_mul_kept(rec, args, result):
    rec.count("presented.mul.pairs", len(args[1].terms) * len(args[2].terms))
    rec.count("presented.mul.kept", len(result.terms))


# (module, attribute path, span name, before hook, after hook).  A span
# name of None records no span, only the hooks' counters.
TARGETS = [
    ("intlinalg", "hnf", "intlinalg.hnf", _count_cells("intlinalg.hnf.cells"), None),
    ("intlinalg", "snf_invariants", "intlinalg.snf_invariants",
     _count_cells("intlinalg.snf_invariants.cells"), _snf_useful),
    ("intlinalg", "field_rref", "intlinalg.field_rref",
     _count_cells("intlinalg.field_rref.cells"), None),
    ("intlinalg", "kernel_basis", "intlinalg.kernel_basis", None, None),
    ("intlinalg", "det_bareiss_ring", "intlinalg.det_bareiss_ring", None, None),
    ("polynomials", "Polynomial.__mul__", "polynomials.mul", _mul_pairs, None),
    ("presented", "PresentedRing.normal_form", "presented.normal_form", None, None),
    ("presented", "PresentedRing.mul", None, None, _ring_mul_kept),
    ("presented", "PresentedRing.graded_basis", "presented.graded_basis", None, None),
    ("presented", "compose", "presented.compose", None, None),
    ("presented", "RingMap.is_graded_isomorphism", "presented.is_graded_isomorphism", None, None),
    ("spaces", "cohomology", "spaces.cohomology", None, None),
    ("fgl", "lazard_ring", "fgl.lazard_ring", None, None),
    ("fgl", "classifying_map", "fgl.classifying_map", None, None),
    ("conner_floyd", "verify_conner_floyd", "conner_floyd.verify_conner_floyd", None, None),
    ("hopf", "HopfData.transition", "hopf.transition", None, None),
    ("hopf", "HopfData.delta", "hopf.delta", None, None),
    ("hopf", "primitives", "hopf.primitives", None, None),
    ("hopf", "indecomposables", "hopf.indecomposables", None, None),
    ("thom", "thom_product_check", "thom.thom_product_check", None, None),
    ("towers", "tower_limit_and_lim1", "towers.tower_limit_and_lim1", None, None),
    ("towers", "split_tower_compare", "towers.split_tower_compare", None, None),
    ("serialize", "canonical_dumps", "serialize.canonical_dumps", None, None),
]

# normal_form spans are named by the reduction route of the ring.
ROUTES = ("rewrite", "degreewise")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, before=None, after=None):
        rec = self
        if name is None:
            def counted(*args, **kwargs):
                if before is not None:
                    before(rec, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, result)
                return result
            return counted
        if name == "presented.normal_form":
            route_ids = {r: self.name_id(f"{name}.{r}") for r in ROUTES}
            name_of = lambda args: route_ids[args[0].route]  # noqa: E731
        else:
            nid = self.name_id(name)
            name_of = lambda args: nid  # noqa: E731
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        def spanned(*args, **kwargs):
            if before is not None:
                before(rec, args)
            i = len(starts)
            name_ids.append(name_of(args))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(rec, args, result)
            return result
        return spanned

    def install(self) -> None:
        """Replace every target in every loaded ``orcohom`` module."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "orcohom" or k.startswith("orcohom."))]
        for mod_name, path, name, before, after in TARGETS:
            owner = sys.modules.get(f"orcohom.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = self.wrap(original, name, before, after)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path: str) -> None:
        header = {"names": self.names, "counters": self.counters,
                  "missing": self.missing, "spans": len(self.starts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load_trace(path: str):
    """({span name: (calls, self seconds)}, counters, missing targets)."""
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    n = header["spans"]
    name_ids, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
    with open(path + ".spans", "rb") as fh:
        for arr in (name_ids, parents, starts, ends):
            arr.fromfile(fh, n)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    names = header["names"]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i in range(n):
        k = name_ids[i]
        calls[k] += 1
        self_s[k] += ends[i] - starts[i] - child[i]
    spans = {name: (calls[k], self_s[k]) for k, name in enumerate(names)}
    return spans, header["counters"], header["missing"]

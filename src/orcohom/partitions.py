"""Partition enumeration used by the filtered symmetric algebra layers:
partitions in a fixed order, their part multiplicities, and their
splits into two sub-multisets."""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby


@lru_cache(maxsize=None)
def partitions(w: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of w with parts bounded by max_part, parts descending.

    Partitions are listed largest-first-part first, which is a fixed
    canonical order relied on by basis indexing.
    """
    if w < 0:
        return ()
    if w == 0:
        return ((),)
    cap = w if max_part is None else min(max_part, w)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(w - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def partitions_exact_parts(w: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in partitions(w) if len(p) == n)


def partition_count(w: int) -> int:
    return len(partitions(w))


def merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset union of two partitions."""
    return tuple(sorted(a + b, reverse=True))


def groups(p: tuple[int, ...]) -> list[tuple[int, int]]:
    """(value, multiplicity) for each distinct part of p, in p's order."""
    return [(v, len(list(g))) for v, g in groupby(p)]


def sub_partition_splits(p: tuple[int, ...], parts: int | None = None):
    """All ordered pairs (alpha, beta) of partitions with union p, or those
    whose alpha has ``parts`` parts.  Of the m parts of p equal to v,
    alpha takes k and beta the other m - k; the k are chosen in
    ``itertools.product`` order, from ((), p) to (p, ()), dropping a
    partial choice that exceeds ``parts``."""
    acc = [(0, (), ())]
    for v, m in groups(p):
        acc = [(n + k, a + (v,) * k, b + (v,) * (m - k)) for n, a, b in acc for k in range(m + 1)
               if parts is None or n + k <= parts]
    return [(a, b) for n, a, b in acc if parts is None or n == parts]

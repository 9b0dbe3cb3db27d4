"""Partition enumeration used by the filtered symmetric algebra layers."""

from __future__ import annotations

from functools import lru_cache


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


def partitions_exact_parts(w: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in partitions(w) if len(p) == n)


def partition_count(w: int) -> int:
    return len(partitions(w))


def merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset union of two partitions."""
    return tuple(sorted(a + b, reverse=True))


def sub_partition_splits(p: tuple[int, ...]):
    """All ordered pairs (alpha, beta) of partitions with union p.

    Splits are produced by distributing the multiplicity of each part
    value; the pair (p, ()) and ((), p) are included.
    """
    from itertools import groupby

    groups = [(v, sum(1 for _ in g)) for v, g in groupby(p)]

    def rec(i: int, left: list[int], right: list[int]):
        if i == len(groups):
            yield tuple(left), tuple(right)
            return
        v, mult = groups[i]
        for k in range(mult + 1):
            yield from rec(i + 1, left + [v] * k, right + [v] * (mult - k))

    yield from rec(0, [], [])

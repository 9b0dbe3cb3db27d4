"""Expected values for the benchmark, computed without the library.

Every function here is a closed formula or a short recursion over
integers.  None of them imports ``orcohom`` or the test suite, so a
defect in the library cannot leak into the value it is checked against.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        total += sign * partition_count(n - k * (3 * k - 1) // 2)
        total += sign * partition_count(n - k * (3 * k + 1) // 2)
        k += 1
    return total


@lru_cache(maxsize=None)
def exact_parts(w: int, n: int) -> int:
    """Partitions of w into exactly n positive parts."""
    if w == 0 and n == 0:
        return 1
    if w <= 0 or n <= 0:
        return 0
    # either a part equals 1 (drop it) or every part is >= 2 (lower each)
    return exact_parts(w - 1, n - 1) + exact_parts(w - n, n)


@lru_cache(maxsize=None)
def box_partitions(w: int, rows: int, cols: int) -> int:
    """Partitions of w with at most `rows` parts, each at most `cols`.

    These are the coefficients of the Gaussian binomial [rows+cols, rows]_q,
    i.e. the graded ranks of the Grassmannian Gr(rows, rows+cols).
    """
    if w == 0:
        return 1
    if w < 0 or rows == 0 or cols == 0:
        return 0
    # fewer than `rows` parts, or exactly `rows` parts (lower each by one)
    return box_partitions(w, rows - 1, cols) + box_partitions(w - rows, rows, cols - 1)


def grassmannian_ranks(m: int, n: int, upto: int) -> list[int]:
    return [box_partitions(w, m, n - m) for w in range(upto + 1)]


def flag_ranks(n: int, upto: int) -> list[int]:
    """Coefficients of the q-factorial [n]_q! (permutations by inversions)."""
    coeffs = [1]
    for k in range(1, n + 1):
        nxt = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j in range(k):
                nxt[i + j] += c
        coeffs = nxt
    return [coeffs[w] if w < len(coeffs) else 0 for w in range(upto + 1)]


def lazard_ranks(upto: int) -> list[int]:
    return [partition_count(w) for w in range(upto + 1)]


def thom_piece_ranks(w: int) -> list[int]:
    return [exact_parts(w, n) for n in range(w + 1)]


def conner_floyd_total(space: dict, truncation: int) -> int:
    """Total rank up to the truncation of the instances the suite uses."""
    (tag, payload), = space.items()
    if tag == "Pn":
        return min(payload, truncation) + 1
    if tag == "Grassmannian":
        return sum(grassmannian_ranks(payload["m"], payload["n"], truncation))
    if tag == "Flag":
        return sum(flag_ranks(payload["n"], truncation))
    raise ValueError(f"no oracle for {space!r}")


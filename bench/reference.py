"""A fixed task that gauges how fast the machine runs right now.

The benchmark runs it in a fresh interpreter before every case and after
the last one, and divides each repetition's wall and CPU time by the mean
of the reference runs around its cases.  On a shared host the speed of a
virtual CPU changes by up to 2x within seconds, and most of that change
cancels in the ratio.  Like a benchmark case, the task is a
cold process that imports modules (the ones the library imports from
outside) and then computes in pure Python (tuple-keyed dicts and
fractions), but it uses no part of the library, so no change to the
library moves it.
"""

import argparse  # noqa: F401
import json  # noqa: F401
from fractions import Fraction

import numpy  # noqa: F401


def main() -> None:
    counts: dict = {}
    x = 1
    for i in range(400000):
        key = (i % 97, x % 13)
        counts[key] = counts.get(key, 0) + i
        x = (x * 1103515245 + 12345) % 2147483648
    acc = Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i % 7, i)
    print(len(counts), acc.denominator % 1000003)


if __name__ == "__main__":
    main()

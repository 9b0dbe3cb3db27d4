from collections import Counter
from math import prod

import pytest

from orcohom.partitions import groups, merge, partitions, sub_partition_splits


def test_groups_counts_each_part_in_order():
    assert groups((3, 3, 2, 1, 1, 1)) == [(3, 2), (2, 1), (1, 3)]
    assert groups(()) == []


@pytest.mark.parametrize("w", range(11))
def test_sub_partition_splits_are_all_the_splits(w):
    for p in partitions(w):
        splits = list(sub_partition_splits(p))
        assert len(splits) == len(set(splits)) == prod(m + 1 for m in Counter(p).values())
        for alpha, beta in splits:
            assert list(alpha) == sorted(alpha, reverse=True)
            assert list(beta) == sorted(beta, reverse=True)
            assert merge(alpha, beta) == p
        assert splits[0] == ((), p) and splits[-1] == (p, ())


@pytest.mark.parametrize("w", range(11))
def test_sub_partition_splits_by_part_count_filter_the_full_enumeration(w):
    for p in partitions(w):
        every = list(sub_partition_splits(p))
        for k in range(len(p) + 2):
            assert list(sub_partition_splits(p, k)) == [s for s in every if len(s[0]) == k]

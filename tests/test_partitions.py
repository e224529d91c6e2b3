"""Partition enumeration and the level-indexing conventions."""

from vircut.verma import enumerate_partitions, partition_count

# first values of the partition function
COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231)


def test_partition_counts():
    for k, expected in enumerate(COUNTS):
        assert partition_count(k) == expected
    assert partition_count(-3) == 0


def test_enumeration_is_reverse_lexicographic():
    parts = enumerate_partitions(6)
    assert parts[0] == (6,)
    assert parts[-1] == (1, 1, 1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)
    assert len(set(parts)) == len(parts)
    # each word is a partition of the level: positive, weakly decreasing parts
    assert all(sum(p) == 6 and min(p) >= 1 and list(p) == sorted(p, reverse=True)
               for p in parts)


def test_level_zero():
    assert enumerate_partitions(0) == [()]

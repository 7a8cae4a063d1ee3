"""Interval partitions: enumeration, blocks and the doubling lift."""

import pytest

from bqf.errors import DomainError
from bqf.partitions import IntervalPartition, enumerate_interval, lift_matching


def test_counts_through_twelve():
    for n in range(1, 13):
        assert len(enumerate_interval(n)) == 2 ** (n - 1)


def test_enumeration_order_n3():
    got = [tuple(sorted(p.cuts)) for p in enumerate_interval(3)]
    assert got == [(), (1,), (2,), (1, 2)]


def test_enumeration_n1_and_n5():
    only = enumerate_interval(1)
    assert len(only) == 1 and only[0].cuts == frozenset()
    assert len(enumerate_interval(5)) == 16


def test_enumeration_distinct_and_deterministic():
    a = enumerate_interval(6)
    b = enumerate_interval(6)
    assert a == b
    assert len(set(a)) == len(a)


def test_invalid_ground_set():
    with pytest.raises(DomainError):
        enumerate_interval(0)
    with pytest.raises(DomainError, match="^ground set size must be positive, got 0$"):
        IntervalPartition(0)
    with pytest.raises(DomainError):
        IntervalPartition(3, {3})
    with pytest.raises(DomainError):
        IntervalPartition(3, {0})


def test_blocks_are_contiguous_cover():
    for p in enumerate_interval(6):
        blocks = p.blocks()
        assert p.num_blocks == len(p.cuts) + 1
        flat = [i for b in blocks for i in b]
        assert flat == list(range(1, 7))
        for b in blocks:
            assert list(b) == list(range(b[0], b[-1] + 1))


def test_lift_examples():
    hat = lift_matching(IntervalPartition(3, {1, 2}))
    assert hat.n == 4 and sorted(hat.cuts) == [1, 3]
    assert [list(b) for b in hat.blocks()] == [[1], [2, 3], [4]]

    assert lift_matching(IntervalPartition(5)) == IntervalPartition(8)

    hat2 = lift_matching(IntervalPartition(4, {2}))
    assert hat2.n == 6 and sorted(hat2.cuts) == [3]
    assert [len(b) for b in hat2.blocks()] == [3, 3]
    assert hat2.block_sizes().count(1) == 0

    with pytest.raises(DomainError):
        lift_matching(IntervalPartition(1))


def test_lift_is_lattice_isomorphism():
    for r in range(1, 6):
        source = enumerate_interval(r + 1)
        # the standard matching (1,2)(3,4)...(2r-1,2r) cuts at the even
        # positions; a join is the one-block partition exactly when the cut
        # sets are disjoint, and refinement is containment of cut sets
        match = frozenset(range(2, 2 * r, 2))
        assert IntervalPartition(2 * r, match).block_sizes() == (2,) * r
        image = {lift_matching(p) for p in source}
        target = {p for p in enumerate_interval(2 * r) if not (p.cuts & match)}
        assert image == target
        for p in source:
            for q in source:
                assert (q.cuts <= p.cuts) == (
                    lift_matching(q).cuts <= lift_matching(p).cuts
                )


def test_lift_block_structure():
    for r in range(1, 6):
        for p in enumerate_interval(r + 1):
            hat = lift_matching(p)
            assert all(c % 2 == 1 for c in hat.cuts)
            blocks = hat.blocks()
            for b in blocks[1:-1] if len(blocks) > 1 else []:
                assert len(b) % 2 == 0
                assert b[0] % 2 == 0
            # endpoint singletons appear exactly when the end cuts exist
            assert (len(blocks[0]) == 1) == (1 in p.cuts)
            assert (len(blocks[-1]) == 1) == (p.n - 1 in p.cuts)


def test_partition_is_hashable_value_object():
    a = IntervalPartition(4, {1, 3})
    b = IntervalPartition(4, frozenset({3, 1}))
    assert a == b and hash(a) == hash(b)
    assert str(a) == "(1)(2,3)(4)"

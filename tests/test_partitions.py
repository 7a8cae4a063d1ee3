"""Interval partition lattice: enumeration, order, matchings."""

import itertools
import random

import pytest

from bqf.errors import DomainError
from bqf.partitions import (
    IntervalPartition,
    enumerate_interval,
    join_is_top,
    kernel_refines,
    lift_matching,
    refines,
    singleton_partition,
    standard_matching,
    top_partition,
)


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
    with pytest.raises(DomainError, match="^pair count must be positive, got 0$"):
        standard_matching(0)
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


def test_refines_examples():
    bottom = singleton_partition(3)
    top = top_partition(3)
    left = IntervalPartition(3, {2})  # (1,2)(3)
    right = IntervalPartition(3, {1})  # (1)(2,3)
    assert refines(bottom, left)
    assert not refines(left, right)
    assert not refines(right, left)
    for p in enumerate_interval(3):
        assert refines(p, top)
    with pytest.raises(DomainError):
        refines(top_partition(3), top_partition(4))


def test_refines_partial_order():
    for n in range(1, 7):
        parts = enumerate_interval(n)
        for p in parts:
            assert refines(p, p)
        for p, q in itertools.combinations(parts, 2):
            if refines(p, q) and refines(q, p):
                assert p == q
        for p in parts:
            for q in parts:
                for s in parts:
                    if refines(p, q) and refines(q, s):
                        assert refines(p, s)


def test_join_is_top_examples():
    a = IntervalPartition(3, {1})
    b = IntervalPartition(3, {2})
    c = IntervalPartition(3, {1, 2})
    assert join_is_top(a, b)
    assert not join_is_top(a, c)
    for p in enumerate_interval(4):
        assert join_is_top(top_partition(4), p)


def test_join_is_top_matches_blockwise_join():
    # the cut-set rule must agree with an explicit coarsening construction
    def joined_is_single_block(p, q):
        cuts = p.cuts & q.cuts
        return not cuts

    for p in enumerate_interval(5):
        for q in enumerate_interval(5):
            assert join_is_top(p, q) == joined_is_single_block(p, q)


def test_standard_matching_shape():
    m = standard_matching(3)
    assert m.n == 6
    assert sorted(m.cuts) == [2, 4]
    assert [len(b) for b in m.blocks()] == [2, 2, 2]


def test_lift_examples():
    hat = lift_matching(IntervalPartition(3, {1, 2}))
    assert hat.n == 4 and sorted(hat.cuts) == [1, 3]
    assert [list(b) for b in hat.blocks()] == [[1], [2, 3], [4]]

    assert lift_matching(top_partition(5)) == top_partition(8)

    hat2 = lift_matching(IntervalPartition(4, {2}))
    assert hat2.n == 6 and sorted(hat2.cuts) == [3]
    assert [len(b) for b in hat2.blocks()] == [3, 3]
    assert hat2.singleton_count == 0

    with pytest.raises(DomainError):
        lift_matching(top_partition(1))


def test_lift_is_lattice_isomorphism():
    for r in range(1, 6):
        source = enumerate_interval(r + 1)
        match = standard_matching(r)
        image = {lift_matching(p) for p in source}
        target = {p for p in enumerate_interval(2 * r) if join_is_top(p, match)}
        assert image == target
        for p in source:
            for q in source:
                assert refines(p, q) == refines(lift_matching(p), lift_matching(q))


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


def test_kernel_examples():
    assert not kernel_refines((1, 2, 1), IntervalPartition(3, {2}))
    for p in enumerate_interval(3):
        assert kernel_refines((7, 7, 7), p)
    assert kernel_refines((1, 2, 2, 1), IntervalPartition(4, {1, 3}))
    with pytest.raises(DomainError):
        kernel_refines((1, 2), top_partition(3))


def test_kernel_against_naive_scan():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 7)
        idx = tuple(rng.randint(1, 3) for _ in range(n))
        for p in enumerate_interval(n):
            naive = all(
                len({idx[i - 1] for i in block}) == 1 for block in p.blocks()
            )
            assert kernel_refines(idx, p) == naive


def test_partition_is_hashable_value_object():
    a = IntervalPartition(4, {1, 3})
    b = IntervalPartition(4, frozenset({3, 1}))
    assert a == b and hash(a) == hash(b)
    assert str(a) == "(1)(2,3)(4)"

"""Interval partitions of {1, ..., n} encoded by their cut positions.

A cut at position c separates c from c+1, so any subset of {1, ..., n-1}
determines a partition of {1, ..., n} into consecutive blocks and every
interval partition arises this way.  The lattice structure then turns into
set algebra on cut sets: refinement is containment of cut sets, the join
of two partitions cuts where both do, and the join is the one-block
partition exactly when the cut sets are disjoint; callers write these
as set expressions on `cuts`.
"""

from collections import namedtuple

from .errors import DomainError, checked_make


class IntervalPartition(namedtuple("IntervalPartition", "n cuts")):
    """An interval partition of {1, ..., n}, stored as its set of cuts."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, n: int, cuts=()):
        if n < 1:
            raise DomainError(f"ground set size must be positive, got {n}")
        cutset = frozenset(int(c) for c in cuts)
        for c in cutset:
            if not 1 <= c <= n - 1:
                raise DomainError(f"cut {c} outside 1..{n - 1}")
        return super().__new__(cls, n, cutset)

    def blocks(self) -> tuple:
        """The blocks as tuples of positions, left to right."""
        out = []
        start = 1
        for c in sorted(self.cuts):
            out.append(tuple(range(start, c + 1)))
            start = c + 1
        out.append(tuple(range(start, self.n + 1)))
        return tuple(out)

    def block_sizes(self) -> tuple:
        bounds = [0] + sorted(self.cuts) + [self.n]
        return tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))

    @property
    def num_blocks(self) -> int:
        return len(self.cuts) + 1

    def __str__(self):
        return "".join("(" + ",".join(map(str, b)) + ")" for b in self.blocks())


def enumerate_interval(n: int) -> list:
    """All 2^(n-1) interval partitions of {1, ..., n}.

    Deterministic order: cut sets as characteristic vectors, cut i being
    bit i-1, counting up from the empty set.  For n = 3 that is
    {}, {1}, {2}, {1,2}.
    """
    if n < 1:
        raise DomainError(f"ground set size must be positive, got {n}")
    out = []
    for mask in range(1 << (n - 1)):
        cuts = [c for c in range(1, n) if mask >> (c - 1) & 1]
        out.append(IntervalPartition(n, cuts))
    return out


def lift_matching(pi: IntervalPartition) -> IntervalPartition:
    """Send a partition of {1, ..., r+1} to one of {1, ..., 2r}.

    Each cut c becomes the odd cut 2c-1.  This is the inverse of the
    bijection between partitions whose join with the standard matching
    (1,2)(3,4)...(2r-1,2r), cut at the even positions, is the one-block
    partition and interval partitions of a ground set half the size plus
    one.  Edge blocks of size s lift to size 2s-1, interior blocks to
    size 2s.
    """
    r = pi.n - 1
    if r < 1:
        raise DomainError("lifting needs a ground set of size at least 2")
    return IntervalPartition(2 * r, (2 * c - 1 for c in pi.cuts))

"""Cumulants of statistics built from squares of linear forms.

One closed form serves two statistics.  The sample variance is the
quadratic form of I - P_n, and the symmetrized-squares statistic that of
c (I - P_n) for a constant c of its weights, so both take all orders from
_centred_cumulants, which cross-checks itself against one pass of the
generic quadratic-form engine for n <= 4 (orders <= 4).  The shifted sum
of squares is s + sum_i Y_i with Boolean independent Y_i = X_i^2 + 2 a_i X_i,
so its cumulants add over the one-variable moment recursion of each Y_i
and take the scalar s by the shift rule.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .cumulants import (
    CumulantSequence,
    cumulants_from_moments,
    moments_from_cumulants,
    shifted_cumulants,
)
from .errors import DomainError, checked_make
from .matrices import (
    _check_iid_order,
    build_special,
    matrix_add,
    matrix_scale,
    qf_cumulants_iid,
)


class LinearFormSpec(namedtuple("LinearFormSpec", "weights")):
    """Weights of a linear form in n >= 2 variables."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, weights):
        w = tuple(Fraction(x) for x in weights)
        if len(w) < 2:
            raise DomainError(f"need at least two weights, got {len(w)}")
        return super().__new__(cls, w)

    @property
    def n(self) -> int:
        return len(self.weights)


class ShiftVector(namedtuple("ShiftVector", "shifts")):
    """A tuple of scalar shifts; s, their sum of squares, is computed."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, shifts):
        sh = tuple(Fraction(x) for x in shifts)
        if not sh:
            raise DomainError("need at least one shift")
        return super().__new__(cls, sh)

    @property
    def s(self) -> Fraction:
        return sum((x * x for x in self.shifts), Fraction(0))


def _centred_cumulants(n: int, c, seq: CumulantSequence, order: int) -> list:
    """K_1, ..., K_order of x*Ax for A = c (I - P_n), order already checked.

    A is zero-sum with constant diagonal g = c (1 - 1/n), so the
    zero-sum cancellation leaves K_r = n g^r K_{2r}.  For n <= 4 one
    engine pass on A (orders <= 4) cross-checks the closed form.
    """
    g = c * (1 - Fraction(1, n))
    values, power = [], Fraction(n)
    for r in range(1, order + 1):
        power *= g
        values.append(power * seq.k(2 * r))
    if n <= 4:
        centring = matrix_add(
            build_special("identity", n), matrix_scale(build_special("P", n), -1)
        )
        engine = qf_cumulants_iid(matrix_scale(centring, c), seq, min(order, 4))
        if engine != values[:4]:
            raise AssertionError(
                f"closed form {values[:4]} disagrees with the engine values {engine}"
            )
    return values


def symmetrized_square_cumulants(form: LinearFormSpec, seq: CumulantSequence, order: int):
    """K_1, ..., K_order of the sum of squared linear forms over all weight
    orderings.

    Requires the weights to sum to zero.  The system matrix sums w_s w_s^T
    over the orderings s: its diagonal is (n-1)! sum w^2 and its
    off-diagonal (n-2)! sum_{i != j} w_i w_j = -(n-2)! sum w^2, so it is
    c (I - P_n) with c = n (n-2)! sum w^2, c times the sample variance's,
    and K_r = n ((n-1)! sum w^2)^r K_{2r}.  The permutations are never
    enumerated.
    """
    _check_iid_order(seq, order)
    weights = form.weights
    n = form.n
    if sum(weights) != 0:
        raise DomainError(
            "weights must sum to zero: the symmetrized squares statistic is "
            "only centered (zero-sum system matrix) in that case"
        )
    ssq = sum((w * w for w in weights), Fraction(0))
    return _centred_cumulants(n, n * math.factorial(n - 2) * ssq, seq, order)


def symmetrized_square_cumulant(form: LinearFormSpec, seq: CumulantSequence, r: int):
    """K_r of the symmetrized squares (see symmetrized_square_cumulants)."""
    return symmetrized_square_cumulants(form, seq, r)[r - 1]


def sample_variance_cumulants(n: int, seq: CumulantSequence, order: int) -> list:
    """K_1, ..., K_order of the (uncorrected, n-scaled) sample variance,
    the quadratic form of I - P_n: K_r = n (1 - 1/n)^r K_{2r}."""
    if n < 2:
        raise DomainError(f"sample variance needs n >= 2, got {n}")
    _check_iid_order(seq, order)
    return _centred_cumulants(n, 1, seq, order)


def sample_variance_cumulant(n: int, seq: CumulantSequence, r: int):
    """K_r of the sample variance (see sample_variance_cumulants)."""
    return sample_variance_cumulants(n, seq, r)[r - 1]


def shifted_sos_cumulants(shifts: ShiftVector, family, order: int) -> list:
    """K_1, ..., K_order of sum_i (X_i + a_i)^2 = s + sum_i Y_i.

    No unit enters Y_i = X_i^2 + 2 a_i X_i, so the Y_i are Boolean
    independent and their cumulants add, and the sum of squares s enters
    by shifted_cumulants.  X_i commutes with itself, so
    phi(Y_i^m) = sum_j C(m, j) (2 a_i)^(m-j) mu_(m+j) from the moments
    mu_0, ..., mu_(2 order) of X_i, computed once per distinct sequence.
    """
    if order < 1:
        raise DomainError(f"cumulant order must be positive, got {order}")
    moments, total = {}, [0] * order
    for i, a in enumerate(shifts.shifts, start=1):
        if i not in family:
            raise DomainError(f"no cumulant sequence for variable {i}")
        seq = family[i]
        if seq not in moments:
            _check_iid_order(seq, order)
            moments[seq] = [1, *moments_from_cumulants(seq, 2 * order)]
        mu = moments[seq]
        ys = [
            sum(math.comb(m, j) * (2 * a) ** (m - j) * mu[m + j] for j in range(m + 1))
            for m in range(1, order + 1)
        ]
        total = [t + k for t, k in zip(total, cumulants_from_moments(ys).values)]
    return list(shifted_cumulants(CumulantSequence(total), shifts.s, order).values)


def shifted_sos_cumulant(shifts: ShiftVector, family, r: int):
    """K_r of sum_i (X_i + a_i)^2 (see shifted_sos_cumulants)."""
    return shifted_sos_cumulants(shifts, family, r)[r - 1]


def kagan_closed_form(s, r: int) -> Fraction:
    """The shift-only closed form for K_r of the shifted sum of squares:
    1 + s at r = 1 and 4 s (1 + s)^(r-2) for r >= 2.

    It sums s^(r + singletons - blocks), with 0^0 = 1, over the partitions
    of {1, ..., 2r} whose join with the standard matching is full, the
    lifts of the partitions of {1, ..., r + 1}, that is of the cut sets of
    its r gaps.  A cut in an end gap adds a block and a lifted singleton; a
    cut in one of the r - 2 inner gaps lowers the exponent r - 1 of the
    uncut partition by one, so the sum is 4 s^(r-1) (1 + 1/s)^(r-2).
    Valid for r >= 2 in the standard-normal-family sense; at r = 1 it
    yields 1 + s while the direct value is n + s, and the function still
    evaluates there so that the discrepancy can be exhibited.
    """
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    s = Fraction(s)
    return 1 + s if r == 1 else 4 * s * (1 + s) ** (r - 2)

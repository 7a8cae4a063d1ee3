"""Cumulants of statistics built from squares of linear forms.

Closed forms live next to the oracle route that justifies them: the
symmetrized-squares statistic and the sample variance each come with an
internal cross-check against the generic quadratic-form engine on small
instances, and the shifted sum of squares is evaluated purely by the
polynomial oracle.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .cumulants import (
    CumulantSequence,
    NCPolynomial,
    element_cumulants,
)
from .errors import DomainError
from .matrices import HermitianMatrix, _check_iid_order, qf_cumulant_iid
from .partitions import enumerate_interval, lift_matching


@dataclass(frozen=True)
class LinearFormSpec:
    """Weights of a linear form in n >= 2 variables."""

    weights: tuple

    def __init__(self, weights):
        w = tuple(Fraction(x) for x in weights)
        if len(w) < 2:
            raise DomainError(f"need at least two weights, got {len(w)}")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ShiftVector:
    """A tuple of scalar shifts together with its cached sum of squares."""

    shifts: tuple
    s: Fraction

    def __init__(self, shifts, s=None):
        sh = tuple(Fraction(x) for x in shifts)
        if not sh:
            raise DomainError("need at least one shift")
        total = sum((x * x for x in sh), Fraction(0))
        if s is not None and Fraction(s) != total:
            raise DomainError(f"cached sum of squares {s} != recomputed {total}")
        object.__setattr__(self, "shifts", sh)
        object.__setattr__(self, "s", total)

    @property
    def sum_squares(self) -> Fraction:
        fresh = sum((x * x for x in self.shifts), Fraction(0))
        if fresh != self.s:
            raise AssertionError(f"cached sum of squares {self.s} drifted from {fresh}")
        return fresh


def symmetrized_square_cumulant(form: LinearFormSpec, seq: CumulantSequence, r: int):
    """K_r of the sum of squared linear forms over all weight orderings.

    Requires the weights to sum to zero: only then is the system matrix of
    the symmetrized statistic zero-sum with constant diagonal, which is
    what collapses K_r to the closed form

        n * ((n-1)!)^r * (sum of squared weights)^r * K_{2r}.

    The permutations are never enumerated; the system matrix only needs
    the two aggregates sum(w_i^2) and sum_{i != j} w_i w_j.
    """
    _check_iid_order(seq, r)
    weights = form.weights
    n = form.n
    if sum(weights) != 0:
        raise DomainError(
            "weights must sum to zero: the symmetrized squares statistic is "
            "only centered (zero-sum system matrix) in that case"
        )
    ssq = sum((w * w for w in weights), Fraction(0))
    value = n * Fraction(math.factorial(n - 1)) ** r * ssq**r * seq.k(2 * r)
    if n <= 3 and r <= 3:
        # Aggregated system matrix: diagonal (n-1)! sum w^2, off-diagonal
        # (n-2)! sum_{i != j} w_i w_j = -(n-2)! sum w^2 for centered weights.
        dval = math.factorial(n - 1) * ssq
        oval = -math.factorial(n - 2) * ssq
        grid = [[dval if i == j else oval for j in range(n)] for i in range(n)]
        engine = qf_cumulant_iid(HermitianMatrix(grid), seq, r).value
        if engine != value:
            raise AssertionError(
                f"closed form {value} disagrees with the engine value {engine}"
            )
    return value


def sample_variance_cumulant(n: int, seq: CumulantSequence, r: int):
    """K_r of the (uncorrected, n-scaled) sample variance statistic.

    The system matrix is the centering projector complement I - P_n:
    zero-sum with constant diagonal 1 - 1/n, giving
    K_r = n (1 - 1/n)^r K_{2r}.
    """
    if n < 2:
        raise DomainError(f"sample variance needs n >= 2, got {n}")
    _check_iid_order(seq, r)
    value = n * (1 - Fraction(1, n)) ** r * seq.k(2 * r)
    if n <= 4 and r <= 4:
        q = Fraction(1, n)
        grid = [[(1 if i == j else 0) - q for j in range(n)] for i in range(n)]
        engine = qf_cumulant_iid(HermitianMatrix(grid), seq, r).value
        if engine != value:
            raise AssertionError(
                f"closed form {value} disagrees with the engine value {engine}"
            )
    return value


def shifted_sos_cumulants(shifts: ShiftVector, family, order: int) -> list:
    """K_1, ..., K_order of sum_i (X_i + a_i)^2, by the polynomial oracle.

    Expands to sum_i (X_i^2 + 2 a_i X_i) plus the scalar sum of squares
    and feeds the result through one element_cumulants call, which
    expands each power once for all orders; no closed form is assumed
    here.
    """
    if order < 1:
        raise DomainError(f"cumulant order must be positive, got {order}")
    poly = NCPolynomial.scalar(shifts.s)
    for i, a in enumerate(shifts.shifts, start=1):
        xi = NCPolynomial.variable(i)
        poly = poly + xi * xi + 2 * a * xi
    return list(element_cumulants(poly, family, order).values)


def shifted_sos_cumulant(shifts: ShiftVector, family, r: int):
    """K_r of sum_i (X_i + a_i)^2 (see shifted_sos_cumulants)."""
    return shifted_sos_cumulants(shifts, family, r)[r - 1]


def kagan_closed_form(s, r: int) -> Fraction:
    """The shift-only closed form for K_r of the shifted sum of squares.

    Sums s^(r + singletons - blocks) over the partitions of {1, ..., 2r}
    whose join with the standard matching is full, with 0^0 = 1.  Valid
    for r >= 2 in the standard-normal-family sense; at r = 1 it yields
    1 + s while the direct value is n + s, and the function still
    evaluates there so that the discrepancy can be exhibited.
    """
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    s = Fraction(s)
    total = Fraction(0)
    for pi in enumerate_interval(r + 1):
        lifted = lift_matching(pi)
        exponent = r + lifted.singleton_count - lifted.num_blocks
        total += s**exponent
    return total

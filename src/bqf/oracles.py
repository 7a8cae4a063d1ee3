"""The independent routes the tests check the production code against.

No production path and no CLI subcommand imports this module; only
HermitianMatrix.entries and QFCumulantReport.contributions reach it, on
first access.  It holds GaussianRational, the entry type of that view; the
per-partition enumeration (_partition_shares) and the projector-closure
route (qf_cumulant_hadamard) of the quadratic-form cumulants; the probes
poisson_qf_check and lemma25_probe; and the tangent polynomials, the
oracle of series.limit_h_series.
"""

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import DomainError, checked_make
from .matrices import (
    CONTRIBUTIONS_MAX_ORDER,
    HermitianMatrix,
    _check_iid_order,
    _dot,
    _matvec,
    _require_real,
    h_series_qf,
)
from .partitions import closure_structure, enumerate_interval, lift_matching
from .series import elementary_series


class GaussianRational(namedtuple("GaussianRational", "re im")):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, re=0, im=0):
        return super().__new__(cls, Fraction(re), Fraction(im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_gaussian(other))

    def __mul__(self, other):
        other = as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__


def as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value, 0)


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)


def _matmul(x, y):
    cols = tuple(zip(*y))
    return tuple(
        tuple(sum((e * f for e, f in zip(row, col) if e and f), GR_ZERO) for col in cols)
        for row in x
    )


def _lifted_cumulant_weight(seq, pi):
    weight = None
    for size in lift_matching(pi).block_sizes():
        k = seq.k(size)
        weight = k if weight is None else weight * k
    return weight


def _partition_shares(a: HermitianMatrix, seq, r: int) -> tuple:
    """The share of every interval partition of {1, ..., r+1}.

    Per partition, the constant-on-blocks entry-product sum is the chain
    1^T D_1 A D_2 A ... A D_p 1 with D_m the diagonal of A raised
    entrywise to (block size m) - 1, times the lifted cumulant product.
    On the integer grids every chain is over den^r, since the block sizes
    sum to r + 1.
    """
    if r > CONTRIBUTIONS_MAX_ORDER:
        raise DomainError(
            f"per-partition contributions stop at order {CONTRIBUTIONS_MAX_ORDER}; "
            f"order {r} has {2**r} partitions"
        )
    n, d = a.n, a.den**r
    g = [a.re[i][i] for i in range(n)]
    gpow = [[x**s for x in g] for s in range(r + 1)]
    shares = []
    for pi in enumerate_interval(r + 1):
        weight = _lifted_cumulant_weight(seq, pi)
        if not weight:
            shares.append((pi, GR_ZERO))
            continue
        sizes = pi.block_sizes()
        u = (gpow[sizes[0] - 1], [0] * n)
        for s in sizes[1:]:
            if not any(map(any, u)):
                break
            u_re, u_im = _matvec(u, a)
            u = (list(map(mul, u_re, gpow[s - 1])), list(map(mul, u_im, gpow[s - 1])))
        total = GaussianRational(Fraction(sum(u[0]), d), Fraction(sum(u[1]), d))
        shares.append((pi, total * weight))
    return tuple(shares)


def qf_cumulant_hadamard(a: HermitianMatrix, seq, r: int):
    """K_r of the quadratic form via projector closures.

    Per partition, the block starts act as plain matrix factors in the
    order they appear (position one contributes J, later positions
    contribute A) while each block's tail is compressed to the entrywise
    product of the tails' diagonals; the partition's share is the trace of
    the resulting chain.  Enumerates all 2^r interval partitions, and its
    totals must agree exactly with qf_cumulant_iid.  It multiplies
    GaussianRational entries itself (_matmul), so its arithmetic shares
    nothing with the integer kernel (_matvec) of the matrix layer.
    """
    _check_iid_order(seq, r)
    n = a.n
    jgrid = tuple((GR_ONE,) * n for _ in range(n))
    agrid = a.entries
    diag = [agrid[i][i] for i in range(n)]
    total = GR_ZERO
    for pi in enumerate_interval(r + 1):
        weight = _lifted_cumulant_weight(seq, pi)
        if not weight:
            continue
        outer = closure_structure(pi).outer
        bounds = outer + (r + 2,)
        # The tail after each block start; positions >= 2 all carry A.
        tails = [range(outer[m] + 1, bounds[m + 1]) for m in range(len(outer))]
        tvecs = []
        for tail in tails:
            vec = (GR_ONE,) * n
            for _ in tail:
                vec = tuple(x * d for x, d in zip(vec, diag))
            tvecs.append(vec)
        grid = jgrid  # block starts begin at position 1
        for m in range(1, len(outer)):
            scaled = tuple(
                tuple(grid[i][j] * tvecs[m - 1][j] for j in range(n))
                for i in range(n)
            )
            grid = _matmul(scaled, agrid)
        share = sum((grid[i][i] * tvecs[-1][i] for i in range(n)), GR_ZERO)
        total = total + share * weight
    return _require_real(total.re, total.im, 1, f"K_{r} of the quadratic form")


def poisson_qf_check(a: HermitianMatrix, rate, jump, order: int) -> bool:
    """Whether Tr(J A^k) = rate * jump^k for k = 1..order."""
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    traces = h_series_qf(a, order).coeffs[1:]
    return all(t == Fraction(rate) * Fraction(jump) ** k for k, t in enumerate(traces, 1))


def lemma25_probe(a: HermitianMatrix, kmax_even: int) -> bool:
    """Whether sum_{j,k} (a_jj a_kk)^m a_jk vanishes for even m <= kmax_even.

    The even powers include m = 0, where the probe degenerates to
    Tr(J A).  Returns True when every probe is zero.
    """
    if kmax_even < 2 or kmax_even % 2:
        raise DomainError(f"kmax_even must be an even number >= 2, got {kmax_even}")
    g = [a.re[i][i] for i in range(a.n)]  # the real diagonal, over den
    for m in range(0, kmax_even + 1, 2):
        w = [x**m for x in g]
        u_re, u_im = _matvec((w, [0] * a.n), a)
        if _dot(u_re, w) or _dot(u_im, w):
            return False
    return True


class RationalPolynomial(namedtuple("RationalPolynomial", "coeffs")):
    """A one-variable polynomial with Fraction coefficients, constant first
    (the shape of tangent_polynomial)."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, coeffs):
        vals = [Fraction(c) for c in coeffs]
        while len(vals) > 1 and not vals[-1]:
            vals.pop()
        if not vals:
            vals = [Fraction(0)]
        return super().__new__(cls, tuple(vals))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def tangent_polynomial(n: int) -> RationalPolynomial:
    """The degree-(n-1) polynomial collecting tan-power coefficients.

    The x^k coefficient is n! times the z^n coefficient of tan(z)^(k+1);
    equivalently these are the coefficients of the exponential generating
    function of tan(z)/(1 - x tan(z)).  The oracle of limit_h_series, which
    reads the same numbers off one series ratio.
    """
    if n < 1:
        raise DomainError(f"index must be positive, got {n}")
    tan = elementary_series("tan", n)
    power = tan
    coeffs = []
    for _ in range(n):
        coeffs.append(math.factorial(n) * power.coefficient(n))
        power = power * tan
    return RationalPolynomial(coeffs)

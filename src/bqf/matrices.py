"""Hermitian matrices over the Gaussian rationals and the quadratic-form
cumulant engine.

A quadratic form T = sum_{j,k} a_{jk} X_j X_k in an independent family has
cumulants given by a sum over interval partitions of {1, ..., r+1}: each
partition contributes the sum of matrix entry products over index tuples
that are constant on its blocks, times a product of cumulants read off the
partition lifted to {1, ..., 2r}.  Constant-on-blocks sums factor into a
chain of vector-matrix products with diagonal weights.

The engine is _qf_dp, behind both qf_cumulant_iid and qf_cumulant_general.
Interval partitions are compositions, so the sum is a dynamic programme
over block ends: r matvecs, polynomial in r and n.
Two routes are kept as oracles for the tests: the per-partition
enumeration behind QFCumulantReport.contributions (2^r partitions, refused
above CONTRIBUTIONS_MAX_ORDER) and qf_cumulant_hadamard, which reaches the
same numbers along a structurally different route (projector closures and
entrywise products) in GaussianRational arithmetic of its own.

All trace functionals against the all-ones matrix J are computed as
1^T A^k 1 by vector iteration on one integer kernel: A as integer (re, im)
columns over one denominator (_int_grids), one row-vector product
(_matvec) and the powers 1^T A^k (_powers).  No matrix power is formed,
one Fraction is built per result, and every chain outside
qf_cumulant_hadamard runs on this kernel, _qf_dp included.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import lcm
from operator import mul

from .errors import DomainError, HermitianError, OrderShortfallError
from .partitions import closure_structure, enumerate_interval, lift_matching
from .rationals import parse_rational
from .series import FormalSeries


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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


@dataclass(frozen=True)
class HermitianMatrix:
    """A self-adjoint square matrix of GaussianRational entries."""

    n: int
    entries: tuple

    def __init__(self, entries):
        rows = tuple(tuple(as_gaussian(e) for e in row) for row in entries)
        n = len(rows)
        if n < 1:
            raise DomainError("matrix must have at least one row")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DomainError(f"row {i + 1} has {len(row)} entries, expected {n}")
        for i in range(n):
            for j in range(i, n):
                if rows[i][j] != rows[j][i].conjugate():
                    raise HermitianError(
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "are not conjugate"
                    )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(self.n))


def build_special(kind: str, n: int) -> HermitianMatrix:
    """The named matrices: J (all ones), P (all 1/n), B (alternating
    imaginary, +i/n above the diagonal), identity."""
    if n < 1:
        raise DomainError(f"size must be positive, got {n}")
    if kind == "J":
        return HermitianMatrix([[1] * n for _ in range(n)])
    if kind == "P":
        q = Fraction(1, n)
        return HermitianMatrix([[q] * n for _ in range(n)])
    if kind == "B":
        q = Fraction(1, n)
        rows = [
            [
                GaussianRational(0, q if j < k else -q) if j != k else GR_ZERO
                for k in range(n)
            ]
            for j in range(n)
        ]
        return HermitianMatrix(rows)
    if kind == "identity":
        return HermitianMatrix([[1 if j == k else 0 for k in range(n)] for j in range(n)])
    raise DomainError(f"unknown special matrix {kind!r}, expected J, P, B or identity")


def matrix_add(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    if a.n != b.n:
        raise DomainError(f"sizes differ: {a.n} vs {b.n}")
    return HermitianMatrix(
        [
            [a.entries[i][j] + b.entries[i][j] for j in range(a.n)]
            for i in range(a.n)
        ]
    )


def matrix_scale(a: HermitianMatrix, c) -> HermitianMatrix:
    """Scale by a real scalar (a complex one would break self-adjointness)."""
    c = Fraction(c)
    return HermitianMatrix([[e * c for e in row] for row in a.entries])


def _matmul(x, y, n: int):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = GR_ZERO
            for k in range(n):
                e = x[i][k]
                if e:
                    f = y[k][j]
                    if f:
                        acc = acc + e * f
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _require_real(value: GaussianRational, what: str):
    if value.im:
        raise AssertionError(f"{what} should be real, got imaginary part {value.im}")
    return value.re


def _int_grids(a: HermitianMatrix):
    """The columns of A as integer (re, im) grids over one denominator."""
    den = lcm(*(x.denominator for row in a.entries for e in row for x in (e.re, e.im)))
    cols = list(zip(*a.entries))
    re = [[e.re.numerator * (den // e.re.denominator) for e in col] for col in cols]
    im = [[e.im.numerator * (den // e.im.denominator) for e in col] for col in cols]
    return re, im, den


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _matvec(u, grids):
    """The row vector u A, for u an integer (re, im) pair and grids from
    _int_grids; the result carries one more factor of their denominator."""
    u_re, u_im = u
    re, im, _ = grids
    return (
        [_dot(u_re, cr) - _dot(u_im, ci) for cr, ci in zip(re, im)],
        [_dot(u_re, ci) + _dot(u_im, cr) for cr, ci in zip(re, im)],
    )


def _powers(grids):
    """The row vectors 1^T A^k for k = 0, 1, 2, ...; the k-th is over den^k."""
    n = len(grids[0])
    u = ([1] * n, [0] * n)
    while True:
        yield u
        u = _matvec(u, grids)


def _total(u, den) -> GaussianRational:
    """The sum of the entries of an integer (re, im) vector over den."""
    return GaussianRational(Fraction(sum(u[0]), den), Fraction(sum(u[1]), den))


def trace_J_power(a: HermitianMatrix, k: int):
    """Tr(J A^k) computed as 1^T A^k 1; real (and returned as such) for
    self-adjoint input."""
    if k < 0:
        raise DomainError(f"power must be nonnegative, got {k}")
    grids = _int_grids(a)
    u = next(islice(_powers(grids), k, None))
    return _require_real(_total(u, grids[2] ** k), f"Tr(J A^{k})")


def omega_moment(a: HermitianMatrix, m: int):
    """The normalized trace-against-J moment Tr(P A^m) = Tr(J A^m)/n."""
    return trace_J_power(a, m) * Fraction(1, a.n)


@dataclass(frozen=True)
class ZeroSumReport:
    """Equivalent zero-row-sum diagnostics, plus the diagonal flag.

    The first three fields are mathematically equivalent for self-adjoint
    matrices and their agreement is asserted on construction; the
    constant_diagonal flag is independent information.
    """

    is_zero_row_sum: bool
    tr_ja2_zero: bool
    tr_jak_zero_upto_2n: bool
    constant_diagonal: bool


def zero_sum_checks(a: HermitianMatrix) -> ZeroSumReport:
    n = a.n
    powers = islice(_powers(_int_grids(a)), 1, 2 * n + 1)
    first = next(powers)  # 1^T A: the row sums, conjugated
    row_sums_zero = not any(map(any, first))
    ja2_zero = not trace_J_power(a, 2)
    upto = not any(sum(re) or sum(im) for re, im in chain([first], powers))
    diag = a.diagonal()
    constant = all(d == diag[0] for d in diag)
    if not (row_sums_zero == ja2_zero == upto):
        raise AssertionError(
            "zero-sum diagnostics disagree: "
            f"rows={row_sums_zero} trJA2={ja2_zero} upto2n={upto}"
        )
    return ZeroSumReport(row_sums_zero, ja2_zero, upto, constant)


# Per-partition enumeration visits 2^r partitions; QFCumulantReport
# refuses to list them above this order.
CONTRIBUTIONS_MAX_ORDER = 12


@dataclass(frozen=True)
class QFCumulantReport:
    """One quadratic-form cumulant with its per-partition breakdown.

    value is the real total, from the composition DP.  contributions
    pairs each interval partition of {1, ..., r+1} with its (possibly
    non-real) share; the shares sum to the total.  They come from the
    per-partition enumeration oracle, run on first access and only up to
    order CONTRIBUTIONS_MAX_ORDER (above it, DomainError).
    """

    order: int
    value: object
    matrix: HermitianMatrix = field(repr=False)
    seq: object = field(repr=False)

    @cached_property
    def contributions(self) -> tuple:
        return _partition_shares(self.matrix, self.seq, self.order)

    def contribution(self, pi):
        for p, value in self.contributions:
            if p == pi:
                return value
        raise DomainError(f"partition {pi} is not over {self.order + 1} points")


def _lifted_cumulant_weight(seq, pi):
    weight = None
    for size in lift_matching(pi).block_sizes():
        k = seq.k(size)
        weight = k if weight is None else weight * k
    return weight


def _partition_shares(a: HermitianMatrix, seq, r: int) -> tuple:
    """Oracle: the share of every interval partition of {1, ..., r+1}.

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
    n = a.n
    grids = _int_grids(a)
    g = [grids[0][i][i] for i in range(n)]
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
            u_re, u_im = _matvec(u, grids)
            u = (list(map(mul, u_re, gpow[s - 1])), list(map(mul, u_im, gpow[s - 1])))
        shares.append((pi, _total(u, grids[2] ** r) * weight))
    return tuple(shares)


def _qf_dp(a: HermitianMatrix, kvec, r: int):
    """K_r of the quadratic form by a DP over compositions of r+1.

    kvec(m) lists K_m of each variable.  The interval partitions of
    {1, ..., r+1} are the compositions of r+1; a block of size s weighs
    K_{2s-1} at either end of the chain, K_{2s} inside it (K_{2r} when it
    is the only block) and the diagonal power d^(s-1), and consecutive
    blocks are joined by one factor A.  V_j sums the weighted chain row
    vectors of all compositions of 1..j, so the whole sum costs r
    matvecs: the Boolean moment-cumulant recursion lifted to vectors.

    Everything runs on Python ints.  With A = A'/dA and K = K'/dK over
    common denominators, a block of size s is scaled by dK^s dA^(s-1)
    and each joining A by dA, so every composition of r+1 is scaled by
    the same dK^(r+1) dA^r.  V_j and W_j = V_j A are then integer vectors
    over dK^j dA^(j-1) and dK^j dA^j, and one Fraction is built at the end.
    """
    n = a.n
    grids = _int_grids(a)
    re, _, da = grids
    ks = [[Fraction(k) for k in kvec(m)] for m in range(1, 2 * r + 1)]
    dk = lcm(*(k.denominator for row in ks for k in row))
    kint = [None] + [[k.numerator * (dk // k.denominator) for k in row] for row in ks]
    g = [re[i][i] * dk for i in range(n)]
    gpow = [[1] * n]
    for _ in range(r):
        gpow.append(list(map(mul, gpow[-1], g)))

    def weight(m, s):  # K'_m (dK d')^(s-1) per variable, d' = dA d
        return list(map(mul, kint[m], gpow[s - 1]))

    edge = [None] + [weight(2 * s - 1, s) for s in range(1, r + 1)]
    inner = [None] + [weight(2 * s, s) for s in range(1, r)]
    total_re = _dot(kint[2 * r], gpow[r])
    total_im = 0
    w = [None]
    for j in range(1, r + 1):
        v_re = edge[j]
        v_im = [0] * n
        for s in range(1, j):
            f = inner[s]
            if any(f):
                w_re, w_im = w[j - s]
                v_re = [x + y * z for x, y, z in zip(v_re, w_re, f)]
                v_im = [x + y * z for x, y, z in zip(v_im, w_im, f)]
        w.append(_matvec((v_re, v_im), grids))
    for s in range(1, r + 1):
        w_re, w_im = w[r + 1 - s]
        total_re += _dot(w_re, edge[s])
        total_im += _dot(w_im, edge[s])
    den = dk ** (r + 1) * da**r
    total = GaussianRational(Fraction(total_re, den), Fraction(total_im, den))
    return _require_real(total, f"K_{r} of the quadratic form")


def qf_cumulant_iid(a: HermitianMatrix, seq, r: int) -> QFCumulantReport:
    """K_r of T = sum a_{jk} X_j X_k for one shared cumulant sequence.

    The value comes from the composition DP (_qf_dp); the report's
    per-partition contributions are left to the enumeration oracle.
    """
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    if seq.order < 2 * r:
        raise OrderShortfallError(
            f"order {r} needs cumulants through {2 * r}, have {seq.order}"
        )
    value = _qf_dp(a, lambda m: (seq.k(m),) * a.n, r)
    return QFCumulantReport(r, value, a, seq)


def qf_cumulant_general(a: HermitianMatrix, family, r: int):
    """K_r of the quadratic form for per-variable cumulant sequences.

    family maps variable index 1..n to its sequence.  A block of an
    interval partition carries one variable, so the composition DP
    (_qf_dp) applies with per-variable weights.
    """
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    n = a.n
    for i in range(1, n + 1):
        if i not in family:
            raise DomainError(f"family has no sequence for variable {i}")
        if family[i].order < 2 * r:
            raise OrderShortfallError(
                f"order {r} needs cumulants through {2 * r}, variable {i} "
                f"has {family[i].order}"
            )
    return _qf_dp(a, lambda m: [family[i].k(m) for i in range(1, n + 1)], r)


def qf_cumulant_hadamard(a: HermitianMatrix, seq, r: int):
    """K_r of the quadratic form via projector closures (an oracle).

    Per partition, the block starts act as plain matrix factors in the
    order they appear (position one contributes J, later positions
    contribute A) while each block's tail is compressed to the entrywise
    product of the tails' diagonals; the partition's share is the trace of
    the resulting chain.  Enumerates all 2^r interval partitions; the
    tests use it as an independent check, and its totals must agree
    exactly with qf_cumulant_iid.  It multiplies GaussianRational entries
    itself (_matmul), so its arithmetic shares nothing with the integer
    kernel (_matvec) that every other chain here runs on.
    """
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    if seq.order < 2 * r:
        raise OrderShortfallError(
            f"order {r} needs cumulants through {2 * r}, have {seq.order}"
        )
    n = a.n
    jgrid = tuple((GR_ONE,) * n for _ in range(n))
    agrid = a.entries
    diag = a.diagonal()
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
            grid = _matmul(scaled, agrid, n)
        share = GR_ZERO
        for i in range(n):
            share = share + grid[i][i] * tvecs[-1][i]
        total = total + share * weight
    return _require_real(total, f"K_{r} of the quadratic form")


def mixed_qf_cumulant(mats) -> object:
    """The length-r mixed quadratic-form cumulant Tr(J A_1 A_2 ... A_r)."""
    mats = list(mats)
    if not mats:
        raise DomainError("need at least one matrix")
    n = mats[0].n
    for m in mats[1:]:
        if m.n != n:
            raise DomainError(f"sizes differ: {n} vs {m.n}")
    u = ([1] * n, [0] * n)
    den = 1
    for m in mats:
        grids = _int_grids(m)
        u = _matvec(u, grids)
        den *= grids[2]
    return _require_real(_total(u, den), "mixed quadratic-form cumulant")


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of the two-sided J A^k B vanishing scan."""

    independent: bool
    witness_power: int | None = None
    witness_side: str | None = None


def independence_check(
    a: HermitianMatrix, b: HermitianMatrix, kmax: int | None = None
) -> IndependenceResult:
    """Scan J A^k B and J B^k A for k up to kmax (default 2n).

    By Cayley-Hamilton a first violation, if any, already occurs at some
    k <= n, so the 2n default is conservative.  For n = 2 only k = 1 is
    informative and the scan stops there.  Reports the smallest violating
    power, checking the A-side before the B-side.
    """
    if a.n != b.n:
        raise DomainError(f"sizes differ: {a.n} vs {b.n}")
    n = a.n
    if kmax is None:
        kmax = 2 * n
    if kmax < 1:
        raise DomainError(f"kmax must be positive, got {kmax}")
    if n == 2:
        kmax = 1
    ga, gb = _int_grids(a), _int_grids(b)
    pa, pb = islice(_powers(ga), 1, None), islice(_powers(gb), 1, None)
    for k, ua, ub in zip(range(1, kmax + 1), pa, pb):
        if any(map(any, _matvec(ua, gb))):
            return IndependenceResult(False, k, "AB")
        if any(map(any, _matvec(ub, ga))):
            return IndependenceResult(False, k, "BA")
    return IndependenceResult(True)


def h_series_qf(a: HermitianMatrix, order: int) -> FormalSeries:
    """The cumulant series of the matrix model: coefficient k is Tr(J A^k),
    constant term zero."""
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    grids = _int_grids(a)
    coeffs = [Fraction(0)]
    for k, u in enumerate(islice(_powers(grids), 1, order + 1), 1):
        coeffs.append(_require_real(_total(u, grids[2] ** k), "Tr(J A^k)"))
    return FormalSeries(coeffs)


def poisson_qf_check(a: HermitianMatrix, rate, jump, order: int) -> bool:
    """Whether Tr(J A^k) = rate * jump^k for k = 1..order."""
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    rate = Fraction(rate)
    jump = Fraction(jump)
    grids = _int_grids(a)
    for k, u in enumerate(islice(_powers(grids), 1, order + 1), 1):
        if _require_real(_total(u, grids[2] ** k), f"Tr(J A^{k})") != rate * jump**k:
            return False
    return True


def lemma25_probe(a: HermitianMatrix, kmax_even: int) -> bool:
    """Whether sum_{j,k} (a_jj a_kk)^m a_jk vanishes for even m <= kmax_even.

    The even powers include m = 0, where the probe degenerates to
    Tr(J A).  Returns True when every probe is zero.
    """
    if kmax_even < 2 or kmax_even % 2:
        raise DomainError(f"kmax_even must be an even number >= 2, got {kmax_even}")
    grids = _int_grids(a)
    g = [grids[0][i][i] for i in range(a.n)]  # the real diagonal, over den
    for m in range(0, kmax_even + 1, 2):
        w = [x**m for x in g]
        u_re, u_im = _matvec((w, [0] * a.n), grids)
        if _dot(u_re, w) or _dot(u_im, w):
            return False
    return True


def matrix_to_json_obj(a: HermitianMatrix) -> dict:
    return {
        "n": a.n,
        "entries": [
            [[str(Fraction(e.re)), str(Fraction(e.im))] for e in row]
            for row in a.entries
        ],
    }


def matrix_from_json_obj(obj) -> HermitianMatrix:
    """Parse the matrix file shape {"n": ..., "entries": [[[re, im], ...], ...]}.

    Entries are row-major pairs of rational strings.  Shape problems and
    self-adjointness violations raise DomainError subclasses naming the
    offending place.
    """
    if not isinstance(obj, dict):
        raise DomainError("matrix JSON must be an object")
    if "n" not in obj or "entries" not in obj:
        raise DomainError('matrix JSON needs keys "n" and "entries"')
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise DomainError(f'"n" must be a positive integer, got {n!r}')
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n:
        raise DomainError(f'"entries" must list {n} rows')
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise DomainError(f"row {i + 1} must list {n} entries")
        parsed = []
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise DomainError(
                    f"entry ({i + 1},{j + 1}) must be a [re, im] pair of rationals"
                )
            parsed.append(GaussianRational(parse_rational(pair[0]), parse_rational(pair[1])))
        rows.append(parsed)
    return HermitianMatrix(rows)


def load_matrix(path) -> HermitianMatrix:
    """Read a matrix file.  A missing file raises FileNotFoundError; any
    other read, decode or parse failure raises DomainError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as exc:
        raise DomainError(f"matrix file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"matrix file {path} cannot be read: {exc}") from exc
    return matrix_from_json_obj(obj)


def save_matrix(a: HermitianMatrix, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matrix_to_json_obj(a), handle, indent=2)
        handle.write("\n")


def random_hermitian(
    rng, n: int, spread: int = 6, complex_entries: bool = True
) -> HermitianMatrix:
    """A random self-adjoint matrix with small rational entries.

    Deterministic given a seeded random.Random; used by sampling tests and
    the oracle-check command.  With complex_entries=False the result is real
    symmetric, which the polynomial oracle (rational coefficients only)
    requires.
    """
    if n < 1:
        raise DomainError(f"size must be positive, got {n}")

    def q():
        return Fraction(rng.randint(-spread, spread), rng.randint(1, 4))

    rows = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(q(), 0)
        for j in range(i + 1, n):
            e = GaussianRational(q(), q() if complex_entries else 0)
            rows[i][j] = e
            rows[j][i] = e.conjugate()
    return HermitianMatrix(rows)

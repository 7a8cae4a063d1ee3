"""Hermitian matrices over the Gaussian rationals and the quadratic-form
cumulant engine.

A quadratic form T = sum_{j,k} a_{jk} X_j X_k in an independent family has
cumulants given by a sum over interval partitions of {1, ..., r+1}: each
partition contributes the sum of matrix entry products over index tuples
that are constant on its blocks, times a product of cumulants read off the
partition lifted to {1, ..., 2r}.  Constant-on-blocks sums factor into a
chain of vector-matrix products with diagonal weights.

The engine is _qf_dp, behind qf_cumulant_iid and qf_cumulant_general and
their one-pass forms qf_cumulants_iid and qf_cumulants_general.  Interval
partitions are compositions, so the sum is a dynamic programme over block
ends whose row vectors do not depend on the order: one chain of R matvecs
yields K_1, ..., K_R, and a single-order call totals only its own order.
The cumulants enter as integers scaled once per call, with no rational
arithmetic per variable.

A HermitianMatrix stores its columns as integer (re, im) grids over one
denominator, the lcm of its entries' denominators.  All trace functionals
against the all-ones matrix J are computed as 1^T A^k 1 by vector
iteration on those grids: one row-vector product (_matvec) and the powers
1^T A^k (_powers).  No matrix power is formed, one Fraction is built per
result, and every chain here runs on this kernel, _qf_dp included.
Matrices are read and written as (re, im) pairs of rationals; the
entrywise view HermitianMatrix.entries is built for bqf.oracles alone, the
home of the routes the tests check the engine against (partition_shares,
the per-partition enumeration, and qf_cumulant_hadamard).
"""

import json
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import gcd, lcm
from operator import mul

from .errors import DomainError, HermitianError, OrderShortfallError
from .rationals import (
    MATRIX_MAX_BYTES,
    MATRIX_MAX_N,
    check_denominators,
    format_rational,
    parse_rational,
)
from .series import FormalSeries


def __getattr__(name):
    # perfbench still reaches these two oracles through this module
    if name in ("GaussianRational", "qf_cumulant_hadamard"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class HermitianMatrix(namedtuple("HermitianMatrix", "re im den")):
    """A self-adjoint square matrix with Gaussian-rational entries.

    Column j is stored as the integer tuples re[j] and im[j] over den, the
    lcm of the entries' denominators, all reduced by their common gcd, so
    equal matrices are equal tuples (re, im, den) and hash alike; the size
    n is read off re.  _make is the one constructor: it refuses grids
    that are not square or not self-adjoint and a den below 1, and
    reduces.  HermitianMatrix(entries) turns rows whose entries are
    rationals or (re, im) pairs of rationals, tuples or lists, into grids
    for it, and _replace, copy and pickle go through it too.  entries is
    the view of bqf.oracles, complex rationals row by row, built on first
    access and kept in the instance dict; no production path reads it.
    """

    def __new__(cls, entries):
        rows = [[e if isinstance(e, (tuple, list)) else (e, 0) for e in row] for row in entries]
        for i, row in enumerate(rows):
            for e in row:
                if len(e) != 2:
                    raise DomainError(f"row {i + 1} has a {len(e)}-part entry, expected (re, im)")
        rows = [[(Fraction(x), Fraction(y)) for x, y in row] for row in rows]
        den = lcm(*(x.denominator for row in rows for e in row for x in e))
        # column i is the conjugate of row i
        re = [[x.numerator * (den // x.denominator) for x, _ in row] for row in rows]
        im = [[-y.numerator * (den // y.denominator) for _, y in row] for row in rows]
        return cls._make((re, im, den))

    @classmethod
    def _make(cls, grids):
        """The matrix of the integer columns (re, im) over den."""
        re, im, den = grids
        n = len(re)
        if n < 1:
            raise DomainError("matrix must have at least one row")
        if len(im) != n:
            raise DomainError(f"im has {len(im)} columns, expected {n}")
        for i, col in chain(enumerate(re), enumerate(im)):
            if len(col) != n:  # column i holds row i, conjugated
                raise DomainError(f"row {i + 1} has {len(col)} entries, expected {n}")
        if den < 1:
            raise DomainError(f"den must be a positive integer, got {den}")
        for i in range(n):
            for j in range(i, n):
                if re[i][j] != re[j][i] or im[i][j] != -im[j][i]:
                    raise HermitianError(
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "are not conjugate"
                    )
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        re, im = (tuple(tuple(x // g for x in col) for col in grid) for grid in (re, im))
        return super().__new__(cls, re, im, den // g)

    def __reduce__(self):  # copy and pickle rebuild from the grids
        return self._make, (tuple(self),)

    @property
    def n(self) -> int:
        return len(self.re)

    @cached_property
    def entries(self) -> tuple:
        from .oracles import GaussianRational

        d = self.den
        return tuple(
            tuple(GaussianRational(Fraction(x, d), Fraction(-y, d)) for x, y in zip(cr, ci))
            for cr, ci in zip(self.re, self.im)
        )


def build_special(kind: str, n: int) -> HermitianMatrix:
    """The named matrices: J (all ones), P (all 1/n), B (alternating
    imaginary, +i/n above the diagonal), identity."""
    if n < 1:
        raise DomainError(f"size must be positive, got {n}")
    ones, zeros = ((1,) * n,) * n, ((0,) * n,) * n
    if kind == "J":
        return HermitianMatrix._make((ones, zeros, 1))
    if kind == "P":
        return HermitianMatrix._make((ones, zeros, n))
    if kind == "B":
        cols = [[(j < k) - (j > k) for j in range(n)] for k in range(n)]
        return HermitianMatrix._make((zeros, cols, n))
    if kind == "identity":
        cols = [[int(j == k) for j in range(n)] for k in range(n)]
        return HermitianMatrix._make((cols, zeros, 1))
    raise DomainError(f"unknown special matrix {kind!r}, expected J, P, B or identity")


def matrix_add(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    if a.n != b.n:
        raise DomainError(f"sizes differ: {a.n} vs {b.n}")
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    re, im = (
        [[p * fa + q * fb for p, q in zip(cx, cy)] for cx, cy in zip(x, y)]
        for x, y in ((a.re, b.re), (a.im, b.im))
    )
    return HermitianMatrix._make((re, im, den))


def matrix_scale(a: HermitianMatrix, c) -> HermitianMatrix:
    """Scale by a real scalar (a complex one would break self-adjointness)."""
    c = Fraction(c)
    re, im = ([[x * c.numerator for x in col] for col in grid] for grid in (a.re, a.im))
    return HermitianMatrix._make((re, im, a.den * c.denominator))


def real_terms(a: HermitianMatrix) -> list:
    """The terms (a_jk, (j, k)) of a real matrix, row by row, 1-based and
    nonzero; an entry with a nonzero imaginary part is a DomainError."""
    terms = []
    # stored column j is row j conjugated: the same real parts
    for j, (col_re, col_im) in enumerate(zip(a.re, a.im), 1):
        for k, (x, y) in enumerate(zip(col_re, col_im), 1):
            if y:
                raise DomainError(
                    "the polynomial oracle needs real entries; entry "
                    f"({j},{k}) has a nonzero imaginary part"
                )
            if x:
                terms.append((Fraction(x, a.den), (j, k)))
    return terms


def _require_real(re, im, den: int, what: str) -> Fraction:
    """re/den, once the imaginary part im/den is checked to be zero."""
    if im:
        raise AssertionError(f"{what} should be real, got imaginary part {Fraction(im, den)}")
    return Fraction(re, den)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _matvec(u, a: HermitianMatrix):
    """The row vector u A, for u an integer (re, im) pair; the result
    carries one more factor of a.den."""
    u_re, u_im = u
    return (
        [_dot(u_re, cr) - _dot(u_im, ci) for cr, ci in zip(a.re, a.im)],
        [_dot(u_re, ci) + _dot(u_im, cr) for cr, ci in zip(a.re, a.im)],
    )


def _powers(a: HermitianMatrix):
    """The row vectors 1^T A^k for k = 0, 1, 2, ...; the k-th is over den^k."""
    u = ([1] * a.n, [0] * a.n)
    while True:
        yield u
        u = _matvec(u, a)


def _real_total(u, den: int, what: str) -> Fraction:
    """The sum of an integer (re, im) vector over den, checked real."""
    return _require_real(sum(u[0]), sum(u[1]), den, what)


def trace_J_power(a: HermitianMatrix, k: int):
    """Tr(J A^k) computed as 1^T A^k 1; real (and returned as such) for
    self-adjoint input."""
    if k < 0:
        raise DomainError(f"power must be nonnegative, got {k}")
    u = next(islice(_powers(a), k, None))
    return _real_total(u, a.den**k, f"Tr(J A^{k})")


def omega_moment(a: HermitianMatrix, m: int):
    """The normalized trace-against-J moment Tr(P A^m) = Tr(J A^m)/n."""
    return trace_J_power(a, m) * Fraction(1, a.n)


class ZeroSumReport(
    namedtuple(
        "ZeroSumReport",
        "is_zero_row_sum tr_ja2_zero tr_jak_zero_upto_2n constant_diagonal",
    )
):
    """Equivalent zero-row-sum diagnostics, plus the diagonal flag.

    The first three fields are mathematically equivalent for self-adjoint
    matrices; zero_sum_checks, which computes them, raises AssertionError
    if they disagree, and the record itself checks nothing.  The
    constant_diagonal flag is independent information.
    """

    __slots__ = ()


def zero_sum_checks(a: HermitianMatrix) -> ZeroSumReport:
    n = a.n
    powers = islice(_powers(a), 1, 2 * n + 1)
    first = next(powers)  # 1^T A: the row sums, conjugated
    row_sums_zero = not any(map(any, first))
    ja2_zero = not trace_J_power(a, 2)
    upto = not any(sum(re) or sum(im) for re, im in chain([first], powers))
    constant = all(a.re[i][i] == a.re[0][0] for i in range(n))
    if not (row_sums_zero == ja2_zero == upto):
        raise AssertionError(
            "zero-sum diagnostics disagree: "
            f"rows={row_sums_zero} trJA2={ja2_zero} upto2n={upto}"
        )
    return ZeroSumReport(row_sums_zero, ja2_zero, upto, constant)


class QFCumulantReport(namedtuple("QFCumulantReport", "order value")):
    """One quadratic-form cumulant: its order r and its real value K_r."""

    __slots__ = ()


def _integer_cumulants(rows):
    """Scale the cumulants to integers; rows[m-1] lists K_m of some
    variables as Fractions.  Returns G and the rows K_m G^ceil(m/2).

    A block of size s in the composition DP weighs K_{2s-1} or K_{2s}, so
    it is scaled by G^s, and every composition of r+1 by the same G^(r+1)
    (the one-block partition's K_{2r} carries G^r and takes one more G).
    G grows greedily until each denominator of K_m divides G^ceil(m/2).
    Per prime it never exceeds the lcm of all the denominators, and when
    they grow geometrically in m, as for Poisson jumps, it does not grow
    with the order: K_1..K_128 of poisson:lambda=3/2,alpha=2/3 give G = 9
    where the lcm is 3^127.
    """
    scale = 1
    for m, row in enumerate(rows, 1):
        d = lcm(*(k.denominator for k in row))
        scale *= d // gcd(d, scale ** ((m + 1) // 2))
    return scale, [
        [k.numerator * (scale ** ((m + 1) // 2) // k.denominator) for k in row]
        for m, row in enumerate(rows, 1)
    ]


def _qf_dp(a: HermitianMatrix, kint, scale: int, orders: range) -> list:
    """K_r of the quadratic form for each r in orders, by one DP over
    compositions.

    kint[m-1] lists K_m G^ceil(m/2) of each variable as integers, for m up
    to 2 max(orders), and scale is G (see _integer_cumulants).  The
    interval partitions of {1, ..., r+1} are the compositions of r+1; a
    block of size s weighs K_{2s-1} at either end of the chain, K_{2s}
    inside it (K_{2r} when it is the only block) and the diagonal power
    d^(s-1), and consecutive blocks are joined by one factor A.  V_j sums
    the weighted chain row vectors of all compositions of 1..j, and
    W_j = V_j A: the Boolean moment-cumulant recursion lifted to vectors.
    Neither depends on r, so one chain of R = max(orders) matvecs serves
    every order, and

        K_r = (one-block term) + sum_{s=1..r} W_{r+1-s} . edge_s,

    with edge_s the end weight of a block of size s.  Only the orders
    asked for are totalled; weights that are zero for every variable are
    skipped.

    Everything runs on Python ints.  With A = A'/dA, a block of size s is
    scaled by G^s dA^(s-1) and each joining A by dA, so every composition
    of r+1 is scaled by the same G^(r+1) dA^r; the one-block term, whose
    K_{2r} carries only G^r, is multiplied by G to match.  V_j and W_j are
    integer vectors over G^j dA^(j-1) and G^j dA^j, and one Fraction is
    built per order.
    """
    n, r = a.n, orders[-1]
    g = [a.re[i][i] for i in range(n)]
    gpow = [[1] * n]
    for _ in range(r):
        gpow.append(list(map(mul, gpow[-1], g)))

    def weight(m, s):  # K_m G^s (dA d)^(s-1) per variable, or None if zero
        k = kint[m - 1]
        return list(map(mul, k, gpow[s - 1])) if any(k) else None

    edge = [None] + [weight(2 * s - 1, s) for s in range(1, r + 1)]
    inner = [None] + [weight(2 * s, s) for s in range(1, r)]
    zero = [0] * n
    w = [None]
    for j in range(1, r + 1):
        v_re = edge[j] or zero
        v_im = zero
        for s in range(1, j):
            f = inner[s]
            if f:
                w_re, w_im = w[j - s]
                v_re = [x + y * z for x, y, z in zip(v_re, w_re, f)]
                v_im = [x + y * z for x, y, z in zip(v_im, w_im, f)]
        w.append(_matvec((v_re, v_im), a))
    values = []
    for q in orders:
        total_re = _dot(kint[2 * q - 1], gpow[q]) * scale
        total_im = 0
        for s in range(1, q + 1):
            f = edge[s]
            if f:
                w_re, w_im = w[q + 1 - s]
                total_re += _dot(w_re, f)
                total_im += _dot(w_im, f)
        den = scale ** (q + 1) * a.den**q
        values.append(_require_real(total_re, total_im, den, f"K_{q} of the quadratic form"))
    return values


def _check_iid_order(seq, r: int):
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    if seq.order < 2 * r:
        raise OrderShortfallError(
            f"order {r} needs cumulants through {2 * r}, have {seq.order}"
        )


def _iid_dp(a: HermitianMatrix, seq, r: int, first: int) -> list:
    """K_first, ..., K_r for a shared sequence: each K_m is scaled once,
    as a scalar, and repeated for the n variables."""
    _check_iid_order(seq, r)
    scale, rows = _integer_cumulants([(k,) for k in seq.values[: 2 * r]])
    return _qf_dp(a, [row * a.n for row in rows], scale, range(first, r + 1))


def qf_cumulants_iid(a: HermitianMatrix, seq, order: int) -> list:
    """K_1, ..., K_order of T = sum a_{jk} X_j X_k for one shared cumulant
    sequence, from one pass of the composition DP (order matvecs)."""
    return _iid_dp(a, seq, order, 1)


def qf_cumulant_iid(a: HermitianMatrix, seq, r: int) -> QFCumulantReport:
    """K_r of T = sum a_{jk} X_j X_k for one shared cumulant sequence.

    The value comes from the composition DP (_qf_dp), which totals only
    order r.
    """
    (value,) = _iid_dp(a, seq, r, r)
    return QFCumulantReport(r, value)


def _general_dp(a: HermitianMatrix, family, r: int, first: int) -> list:
    """K_first, ..., K_r for one cumulant sequence per variable."""
    n = a.n
    if r < 1:
        raise DomainError(f"cumulant order must be positive, got {r}")
    for i in range(1, n + 1):
        if i not in family:
            raise DomainError(f"family has no sequence for variable {i}")
        if family[i].order < 2 * r:
            raise OrderShortfallError(
                f"order {r} needs cumulants through {2 * r}, variable {i} "
                f"has {family[i].order}"
            )
    columns = (family[i].values[: 2 * r] for i in range(1, n + 1))
    scale, kint = _integer_cumulants(list(zip(*columns)))
    return _qf_dp(a, kint, scale, range(first, r + 1))


def qf_cumulants_general(a: HermitianMatrix, family, order: int) -> list:
    """K_1, ..., K_order of the quadratic form for per-variable cumulant
    sequences, from one pass of the composition DP (order matvecs)."""
    return _general_dp(a, family, order, 1)


def qf_cumulant_general(a: HermitianMatrix, family, r: int):
    """K_r of the quadratic form for per-variable cumulant sequences.

    family maps variable index 1..n to its sequence.  A block of an
    interval partition carries one variable, so the composition DP
    (_qf_dp) applies with per-variable weights.
    """
    (value,) = _general_dp(a, family, r, r)
    return value


def mixed_qf_cumulant(mats) -> object:
    """The length-r mixed quadratic-form cumulant Tr(J A_1 A_2 ... A_r).

    Under the Gaussian preset gaussian:c,v with r >= 2 it gives the mixed
    Boolean cumulant K_r(Q_{A_1}, ..., Q_{A_r}) = c^2 v^(r-1) Tr(J A_1 ...
    A_r) of the real quadratic forms: with K_{>=3} = 0 only one interval
    partition survives, singleton ends and one pair across each boundary.
    """
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
        u = _matvec(u, m)
        den *= m.den
    return _real_total(u, den, "mixed quadratic-form cumulant")


class IndependenceResult(
    namedtuple(
        "IndependenceResult",
        "independent witness_power witness_side",
        defaults=(None, None),
    )
):
    """Outcome of the two-sided J A^k B vanishing scan."""

    __slots__ = ()


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
    pa, pb = islice(_powers(a), 1, None), islice(_powers(b), 1, None)
    for k, ua, ub in zip(range(1, kmax + 1), pa, pb):
        if any(map(any, _matvec(ua, b))):
            return IndependenceResult(False, k, "AB")
        if any(map(any, _matvec(ub, a))):
            return IndependenceResult(False, k, "BA")
    return IndependenceResult(True)


def h_series_qf(a: HermitianMatrix, order: int) -> FormalSeries:
    """The cumulant series of the matrix model: coefficient k is Tr(J A^k),
    constant term zero."""
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    coeffs = [Fraction(0)]
    for k, u in enumerate(islice(_powers(a), 1, order + 1), 1):
        coeffs.append(_real_total(u, a.den**k, "Tr(J A^k)"))
    return FormalSeries(coeffs)


def matrix_to_json_obj(a: HermitianMatrix) -> dict:
    d = a.den
    rows = [
        [[format_rational(Fraction(v, d)) for v in (x, -y)] for x, y in zip(cr, ci)]
        for cr, ci in zip(a.re, a.im)
    ]
    return {"n": a.n, "entries": rows}


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
    if type(n) is not int or n < 1:  # bool is an int subclass: true is no size
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
            parsed.append((parse_rational(pair[0]), parse_rational(pair[1])))
        rows.append(parsed)
    # the matrix is stored over the lcm of the denominators: bound it first
    check_denominators((x for row in rows for e in row for x in e), "matrix entries")
    return HermitianMatrix(rows)


def load_matrix(path) -> HermitianMatrix:
    """Read a matrix file.  A missing file raises FileNotFoundError; any
    other read, decode or parse failure raises DomainError, as do a file
    past MATRIX_MAX_BYTES before it is decoded and an integer "n" past
    MATRIX_MAX_N before any entry is parsed."""
    try:
        with open(path, "rb") as handle:
            data = handle.read(MATRIX_MAX_BYTES + 1)
        if len(data) > MATRIX_MAX_BYTES:
            raise DomainError(f"matrix file {path} has more than {MATRIX_MAX_BYTES} bytes")
        obj = json.loads(data.decode("utf-8"))
    except (FileNotFoundError, DomainError):
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"matrix file {path} cannot be read: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an int past the digit limit, or arrays nested
        # past the recursion limit
        raise DomainError(f"matrix file {path} is not valid JSON: {exc}") from exc
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n > MATRIX_MAX_N:
        raise DomainError(
            f"--matrix {path} must be at most {MATRIX_MAX_N} x {MATRIX_MAX_N}, got n = {n}"
        )
    return matrix_from_json_obj(obj)


def save_matrix(a: HermitianMatrix, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matrix_to_json_obj(a), handle, indent=2)
        handle.write("\n")


def random_hermitian(rng, n: int, complex_entries: bool = True) -> HermitianMatrix:
    """A random self-adjoint matrix with small rational entries p/q,
    |p| <= 6 and 1 <= q <= 4.

    Deterministic given a seeded random.Random; used by sampling tests and
    the oracle-check command.  With complex_entries=False the result is real
    symmetric, which the polynomial oracle (rational coefficients only)
    requires.
    """
    if n < 1:
        raise DomainError(f"size must be positive, got {n}")

    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = q()
        for j in range(i + 1, n):
            x, y = q(), q() if complex_entries else 0
            rows[i][j], rows[j][i] = (x, y), (x, -y)
    return HermitianMatrix(rows)

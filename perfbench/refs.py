"""Reference values from routes independent of the operation under test.

Nothing here calls the bqf function whose answer it checks.  The
quadratic-form cumulants come from a dynamic programme over compositions
written against plain Fractions (no bqf arithmetic at all); trace
references come from the exact limit series; tangent and zigzag numbers
from the Entringer triangle; zeta targets from closed forms.
"""

import math
from fractions import Fraction

# Binary64 results must lie within this relative distance of the reference.
# Exact results must be equal.
REL_TOL = 1e-9
ABS_TOL = 1e-15


def close(got: float, ref: float) -> bool:
    """Whether a binary64 result is within REL_TOL of its reference."""
    return abs(float(got) - float(ref)) <= max(REL_TOL * abs(float(ref)), ABS_TOL)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _row_times(u, grid):
    """Row vector u times the matrix grid, over (re, im) Fraction pairs."""
    n = len(u)
    out = []
    for j in range(n):
        re = im = Fraction(0)
        for i in range(n):
            ur, ui = u[i]
            if ur or ui:
                ar, ai = grid[i][j]
                re += ur * ar - ui * ai
                im += ur * ai + ui * ar
        out.append((re, im))
    return out


def grid_of(matrix):
    """The entries of a bqf HermitianMatrix as (re, im) Fraction pairs."""
    return [[(Fraction(e.re), Fraction(e.im)) for e in row] for row in matrix.entries]


def qf_cumulant_dp(grid, kvec, r: int) -> Fraction:
    """K_r of x*Ax by a DP over compositions of r+1 (the interval partitions).

    kvec(m) lists the m-th cumulant of each variable.  A block of size s
    weighs K_{2s-1} at either end of the chain and K_{2s} inside it, and
    contributes the diagonal power d^(s-1); consecutive blocks are joined
    by one factor A.  V[j] carries the weighted chain vectors of all
    compositions of 1..j, so the whole sum costs r matvecs.
    """
    n = len(grid)
    d = [grid[i][i][0] for i in range(n)]
    zero = Fraction(0)
    total = sum((kvec(2 * r)[i] * d[i] ** r for i in range(n)), zero)
    im_total = zero
    V = {}
    W = {}
    for j in range(1, r + 1):
        first = kvec(2 * j - 1)
        vec = [(first[i] * d[i] ** (j - 1), zero) for i in range(n)]
        for s in range(1, j):
            inner = kvec(2 * s)
            w = W[j - s]
            for i in range(n):
                f = inner[i] * d[i] ** (s - 1)
                vec[i] = (vec[i][0] + w[i][0] * f, vec[i][1] + w[i][1] * f)
        V[j] = vec
        W[j] = _row_times(vec, grid)
    for s in range(1, r + 1):
        last = kvec(2 * s - 1)
        w = W[r + 1 - s]
        for i in range(n):
            f = last[i] * d[i] ** (s - 1)
            total += w[i][0] * f
            im_total += w[i][1] * f
    if im_total:
        raise ArithmeticError(f"K_{r} reference has imaginary part {im_total}")
    return total


def iid_kvec(seq, n: int):
    return lambda m: [seq.k(m)] * n


def family_kvec(family, n: int):
    return lambda m: [family[i + 1].k(m) for i in range(n)]


def trace_j_power(grid, k: int) -> Fraction:
    """Tr(J A^k) = 1^T A^k 1, computed here rather than in bqf."""
    u = [(Fraction(1), Fraction(0))] * len(grid)
    for _ in range(k):
        u = _row_times(u, grid)
    im = sum(x[1] for x in u)
    if im:
        raise ArithmeticError(f"Tr(J A^{k}) reference has imaginary part {im}")
    return sum(x[0] for x in u)


def entringer_numbers(n_max: int) -> list:
    """Zigzag (Euler up/down) numbers E_0..E_n_max by the Seidel-Entringer
    triangle.  The tangent numbers are the odd-indexed ones."""
    out = [1]
    row = [1]
    for n in range(1, n_max + 1):
        new = [0]
        for k in range(1, n + 1):
            new.append(new[k - 1] + row[n - k])
        row = new
        out.append(row[-1])
    return out


_ZETA = {2: math.pi**2 / 6, 4: math.pi**4 / 90, 6: math.pi**6 / 945}


def p_series_partial(exponent: int) -> float:
    """Sum of m^-p over m with m^p <= 1e15: zeta(p) minus its
    Euler-Maclaurin tail."""
    top = int(round(1e15 ** (1.0 / exponent)))
    while (top + 1) ** exponent <= 10**15:
        top += 1
    while top**exponent > 10**15:
        top -= 1
    p = exponent
    tail = top ** (1 - p) / (p - 1) - top ** (-p) / 2 + p * top ** (-p - 1) / 12
    return _ZETA[p] - tail


def limit_cumulant(a: Fraction, b: Fraction, r: int) -> Fraction:
    """K_r of the limit law for r <= 3, from b^r T_{r+1}(a/b)/(r+1)! with
    T_2 = 2x, T_3 = 2 + 6x^2, T_4 = 16x + 24x^3 written out."""
    closed = {1: a, 2: a * a + b * b / 3, 3: a**3 + Fraction(2, 3) * a * b * b}
    return closed[r]


def finite_model_cumulant(series, a: Fraction, n: int, r: int) -> Fraction:
    """K_r of the n-th convergence model, Tr(P S^r) with S = M - (a/n) I and
    M = aP + bB, expanded binomially over the exact series Tr(P M^j)."""
    c = -a / n
    return sum(
        math.comb(r, j) * c ** (r - j) * series.coefficient(j) for j in range(r + 1)
    )

"""The tangent limit law as an atomic measure, and finite-size checks.

The limit distribution of the antisymmetric quadratic-form model is purely
atomic: mass 1/2 at zero and mass x^2/(4 - x^2) at the points +-x where
2/x = tan(1/x).  This module produces those atoms (each root u = 1/x by a
monotone Newton iteration), the matching transform evaluations, moment
cross-checks between the atoms and the exact moment series, convergence
tables for finite models against the limit cumulants, and the trace
approximations of zeta values, tangent numbers and zigzag numbers.  Atom
data is binary64; everything upstream of it stays exact.

The finite models never form an n x n matrix.  Every quantity they need is
a trace Tr(P M^m) with M = aP + bB, read exactly off limit_mgf_series for
any n; the convergence model's K_r is Tr(P S^r) with S = M - (a/n)I, a
binomial sum of those traces.  Both are exact for every n and rounded once.
The zeta targets are p-series partial sums taken exactly, by Euler-Maclaurin
with a proven remainder bound, and correctly rounded.
"""

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import AtomProximityError, DomainError, PoleProximityError, checked_make
from .series import (
    FormalSeries,
    _bernoulli_numbers,
    limit_h_series,
    limit_mgf_series,
    series_ratio,
    tangent_numbers,
    zigzag_numbers,
)

POLE_GUARD = 1e-6
ATOM_GUARD = 1e-9


class AtomicMeasure(namedtuple("AtomicMeasure", "atoms")):
    """A purely atomic measure: (location, mass) pairs sorted by location.

    Locations are finite, masses positive, locations strictly increasing,
    and the total mass never exceeds 1 beyond binary64 slack.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, atoms):
        pairs = tuple((float(loc), float(mass)) for loc, mass in atoms)
        if not pairs:
            raise DomainError("a measure needs at least one atom")
        for loc, mass in pairs:
            if not math.isfinite(loc):
                raise DomainError(f"atom location {loc} is not finite")
            if not mass > 0:
                raise DomainError(f"atom at {loc} has nonpositive mass {mass}")
        locs = [loc for loc, _ in pairs]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise DomainError("atom locations must be strictly increasing")
        total = math.fsum(mass for _, mass in pairs)
        if total > 1 + 1e-12:
            raise DomainError(f"total mass {total} exceeds 1")
        return super().__new__(cls, pairs)

    def total_mass(self) -> float:
        return math.fsum(mass for _, mass in self.atoms)

    def moment(self, m: int) -> float:
        """The m-th moment, rounded once.  Float ** gives (-x)^m = -(x^m)
        for odd m, so the odd moments of a symmetric measure cancel to
        exactly zero."""
        if m < 0:
            raise DomainError(f"moment order must be nonnegative, got {m}")
        return math.fsum(mass * loc**m for loc, mass in self.atoms)


def _tangent_root(m: int) -> float:
    """The m-th positive root of tan(u) = 2u (m = 0 is the smallest).

    The root lies in (m pi + pi/4, m pi + pi/2), where g(u) = tan(u) - 2u is
    increasing and convex: g' = tan(u)^2 - 1 > 0, g'' = 2 tan(u) sec(u)^2 > 0.
    Newton's method started right of the root therefore decreases onto it;
    u_0 = c - 1/(4c), c = m pi + pi/2, has tan(u_0) ~ 4c > 2 u_0.  The
    first step that does not decrease u ends the iteration.
    """
    c = m * math.pi + math.pi / 2
    u = c - 0.25 / c
    while True:
        t = math.tan(u)
        nxt = u - (t - 2.0 * u) / (t * t - 1.0)
        if not nxt < u:
            return u
        u = nxt


def tangent_atoms(pairs: int) -> AtomicMeasure:
    """The limit law truncated to its first `pairs` symmetric atom pairs.

    Each positive root u of tan(u) = 2u yields atoms at +-1/u with mass
    x^2/(4 - x^2) apiece; the atom (0, 1/2) is always present.
    """
    if pairs < 1:
        raise DomainError(f"need at least one atom pair, got {pairs}")
    entries = [(0.0, 0.5)]
    for m in range(pairs):
        u = _tangent_root(m)
        x = 1.0 / u
        mass = x * x / (4.0 - x * x)
        entries += [(x, mass), (-x, mass)]
    entries.sort()
    return AtomicMeasure(entries)


def levy_atoms(terms: int) -> AtomicMeasure:
    """The first `terms` symmetric atom pairs of the jump measure.

    Atoms sit at +-2/(n pi) for odd n with mass x^4/(1 + x^2) each.
    """
    if terms < 1:
        raise DomainError(f"need at least one atom pair, got {terms}")
    entries = []
    for j in range(terms):
        n = 2 * j + 1
        x = 2.0 / (n * math.pi)
        mass = x**4 / (1.0 + x * x)
        entries += [(x, mass), (-x, mass)]
    entries.sort()
    return AtomicMeasure(entries)


def self_energy_eval(z: float, pole_guard: float = POLE_GUARD) -> float:
    """The self-energy z^2 tan(1/z) - z; odd in z.

    Rejects non-finite z, z = 0 and points whose reciprocal falls within
    pole_guard of an odd multiple of pi/2, where tan blows up.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if z == 0.0:
        raise DomainError("self-energy is not defined at z = 0")
    w = 1.0 / z
    m = round(w / math.pi - 0.5)
    pole = (2 * m + 1) * math.pi / 2
    if abs(w - pole) < pole_guard:
        raise PoleProximityError(
            f"1/z = {w} is within {pole_guard} of the tan pole at {pole}"
        )
    return z * z * math.tan(w) - z


def levy_partial_sum(z: float, terms: int, atom_guard: float = ATOM_GUARD) -> float:
    """Partial sum of the jump-measure expansion of the self-energy.

    Sums 32 z / ((n^2 pi^2 z^2 - 4) n^2 pi^2) over odd n up to `terms`,
    smallest summands first.  Rejects non-finite z and z within
    atom_guard of any atom +-2/(n pi), where a summand blows up.  Odd in
    z, exactly so in binary64.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if terms < 1:
        raise DomainError(f"need at least one term, got {terms}")
    if z == 0.0:
        return 0.0
    near = 2.0 / (math.pi * abs(z))
    candidate = max(1, 2 * round((near - 1) / 2) + 1)
    for n in (candidate - 2, candidate, candidate + 2):
        if n >= 1 and abs(abs(z) - 2.0 / (n * math.pi)) < atom_guard:
            raise AtomProximityError(
                f"|z| = {abs(z)} is within {atom_guard} of the atom 2/({n} pi)"
            )
    top = terms if terms % 2 else terms - 1
    pi2 = math.pi * math.pi
    z2 = z * z
    acc = 0.0
    for n in range(top, 0, -2):
        n2 = float(n * n)
        acc += 32.0 * z / ((n2 * pi2 * z2 - 4.0) * n2 * pi2)
    return acc


class MomentRow(namedtuple("MomentRow", "m atom_moment series_moment error")):
    """One moment-consistency line: atom sum vs exact series coefficient."""

    __slots__ = ()


def moment_consistency(measure: AtomicMeasure, m_max: int) -> list:
    """Compare atom moments with the exact moment series through m_max.

    The moment series is the Boolean one, 1/(1 - h) with h the limit
    cumulant series limit_h_series(0, 1); that is 1/(2 - tan(z)/z).  Its
    coefficients are rational and get rounded to binary64 only for the
    comparison.
    """
    if m_max < 0:
        raise DomainError(f"moment order must be nonnegative, got {m_max}")
    one = FormalSeries((Fraction(1),) + (Fraction(0),) * m_max)
    series = series_ratio(one, 1 - limit_h_series(0, 1, m_max), m_max)
    rows = []
    for m in range(m_max + 1):
        atom = measure.moment(m)
        exact = float(series.coefficient(m))
        rows.append(MomentRow(m, atom, exact, abs(atom - exact)))
    return rows


class ConvergenceRow(
    namedtuple("ConvergenceRow", "n r finite_value limit_value abs_error")
):
    """One finite-size-vs-limit line of a convergence table."""

    __slots__ = ()


def tangent_convergence(a, b, n_list, r_max: int) -> list:
    """Cumulants of the finite models against the limit law, per n and r.

    The n-th model is the quadratic form of a family with mean 1/sqrt(n),
    variance 1 and no higher cumulants, over the zero-diagonal system
    matrix S = aP + bB - (a/n)I.  The zero diagonal leaves only the
    all-singletons partition, of weight K_1^2 = 1/n, so K_r = Tr(P S^r)
    exactly for every n.  That trace is the binomial expansion of the
    exact moments Tr(P (aP + bB)^j) from limit_mgf_series; each K_r is
    rounded once, for the table, and a K_r beyond the float range raises
    DomainError.
    """
    if r_max < 1:
        raise DomainError(f"r_max must be positive, got {r_max}")
    a = Fraction(a)
    limit = limit_h_series(a, b, r_max)
    rows = []
    for n in n_list:
        n = int(n)
        moments = limit_mgf_series(a, b, n, r_max)
        shift = -a / n
        for r in range(1, r_max + 1):
            exact = sum(
                math.comb(r, j) * shift ** (r - j) * moments.coefficient(j)
                for j in range(r + 1)
            )
            try:
                finite = float(exact)
                target = float(limit.coefficient(r))
            except OverflowError:
                raise DomainError(
                    f"K_{r} of the model at n = {n} or of the limit "
                    "does not fit in a float"
                ) from None
            rows.append(ConvergenceRow(n, r, finite, target, abs(finite - target)))
    return rows


@lru_cache(maxsize=None)
def _p_series_target(exponent: int) -> float:
    """The sum of m^-p over m^p <= 1e15 (p = exponent), correctly rounded.

    The terms m < 64 are added exactly; for p >= 10 they are the whole sum.
    With f(x) = x^-p, the rest (m = 64..top) is Euler-Maclaurin in
    Fractions: the integral of f, half of each end term, and the terms
    T_k = B_2k/(2k)! (f^(2k-1)(top) - f^(2k-1)(64)) for k <= 8.  What is
    left is the integral of -(P_18(x) - B_18)/18! f^(18)(x) over [64, top],
    P_18 the periodic Bernoulli function.  Every odd derivative of f is
    negative and increasing, so f^(18) > 0; P_18 - B_18 keeps one sign and
    stays within 2|B_18|; so the remainder lies between 0 and 2 T_9.  Both
    ends must round to the same float, or the call raises AssertionError.
    """
    p, start = exponent, 64
    top = int(round(1e15 ** (1.0 / p)))
    while (top + 1) ** p <= 10**15:
        top += 1
    while top**p > 10**15:
        top -= 1
    total = sum(Fraction(1, m**p) for m in range(1, min(top + 1, start)))
    if top < start:
        return float(total)
    bernoulli = _bernoulli_numbers(18)

    def f(j, x):  # the j-th derivative of x^-p
        return (-1) ** j * math.perm(p + j - 1, j) * Fraction(1, x ** (p + j))

    t = [
        bernoulli[2 * k] / math.factorial(2 * k) * (f(2 * k - 1, top) - f(2 * k - 1, start))
        for k in range(1, 10)
    ]
    total += Fraction(1, (p - 1) * start ** (p - 1)) - Fraction(1, (p - 1) * top ** (p - 1))
    total += (f(0, start) + f(0, top)) / 2 + sum(t[:8])
    low, high = sorted((total, total + 2 * t[8]))
    if float(low) != float(high):
        raise AssertionError(f"the p-series sum for p = {p} rounds to two floats")
    return float(low)


class ApproxResult(namedtuple("ApproxResult", "kind k n approx target rel_error")):
    """A trace approximation next to its target constant."""

    __slots__ = ()


def zeta_zigzag_approx(kind: str, k: int, n: int) -> ApproxResult:
    """Finite-matrix trace approximations of classical constants.

    zeta:    pi^(2k+2) Tr(P B^(2k)) / (2 (2^(2k+2) - 1))  vs the p-series
             partial sum for exponent 2k+2 (k >= 0),
    tangent: (2k+1)! Tr(P B^(2k))  vs the tangent number (k >= 0),
    zigzag:  k! Tr(P (P+B)^(k-1)) / 2^(k-1)  vs the zigzag number (k >= 2).

    The traces Tr(P M^m) are exact rationals read off limit_mgf_series,
    so the cost does not grow with n; rounding happens only at the end.
    """
    if n < 1:
        raise DomainError(f"model size must be positive, got {n}")
    if k < 0:
        raise DomainError(f"k must be nonnegative, got {k}")
    if kind == "zeta":
        trace = limit_mgf_series(0, 1, n, 2 * k).coefficient(2 * k)
        approx = math.pi ** (2 * k + 2) * float(trace) / (2 * (2 ** (2 * k + 2) - 1))
        target = _p_series_target(2 * k + 2)
    elif kind == "tangent":
        trace = limit_mgf_series(0, 1, n, 2 * k).coefficient(2 * k)
        approx = float(math.factorial(2 * k + 1) * trace)
        target = float(tangent_numbers(k + 1)[k])
    elif kind == "zigzag":
        if k < 2:
            raise DomainError(f"zigzag approximation needs k >= 2, got {k}")
        trace = limit_mgf_series(1, 1, n, k - 1).coefficient(k - 1)
        approx = float(Fraction(math.factorial(k), 2 ** (k - 1)) * trace)
        target = float(zigzag_numbers(k)[k])
    else:
        raise DomainError(f"unknown kind {kind!r}, expected zeta, tangent or zigzag")
    rel = abs(approx - target) / abs(target)
    return ApproxResult(kind, k, n, approx, target, rel)

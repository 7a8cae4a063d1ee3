"""Truncated formal power series and integer sequences built from them.

Everything is exact: coefficients are Fractions, and the classical integer
sequences (tangent numbers, zigzag numbers) are produced by two unrelated
routes and cross-checked before being returned.  The tangent polynomials,
the oracle of limit_h_series, are in bqf.oracles.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, checked_make

_SERIES_KINDS = ("tan", "arctan", "sec")


class FormalSeries(namedtuple("FormalSeries", "coeffs")):
    """Coefficients c_0..c_N of a series truncated at order N."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, coeffs):
        vals = tuple(Fraction(c) for c in coeffs)
        if not vals:
            raise DomainError("a series needs at least the constant coefficient")
        return super().__new__(cls, vals)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise DomainError(f"coefficient {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.order:
            raise DomainError(f"cannot extend order {self.order} to {order}")
        return FormalSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        other = _coerce(other, self.order)
        n = min(self.order, other.order)
        return FormalSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1))
        )

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other, self.order))

    def __rsub__(self, other):
        return _coerce(other, self.order) - self

    def __mul__(self, other):
        if not isinstance(other, FormalSeries):
            return FormalSeries(tuple(Fraction(other) * c for c in self.coeffs))
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(self.coeffs[: n + 1]):
            if not ci:
                continue
            for j in range(0, n + 1 - i):
                cj = other.coeffs[j]
                if cj:
                    out[i + j] += ci * cj
        return FormalSeries(out)

    __rmul__ = __mul__


def _coerce(value, order: int) -> FormalSeries:
    if isinstance(value, FormalSeries):
        return value
    return FormalSeries((Fraction(value),) + (Fraction(0),) * order)


def _shift_down(series: FormalSeries) -> FormalSeries:
    """Divide by z; the constant term must vanish."""
    if series.coeffs[0]:
        raise DomainError("cannot divide by z: nonzero constant term")
    return FormalSeries(series.coeffs[1:])


def series_ratio(num: FormalSeries, den: FormalSeries, order: int) -> FormalSeries:
    """The series of num/den to the given order; den must be invertible."""
    if not den.coeffs[0]:
        raise DomainError("denominator has zero constant term, not invertible")
    if order > num.order or order > den.order:
        raise DomainError(
            f"ratio to order {order} needs both operands to that order "
            f"(have {num.order} and {den.order})"
        )
    d0 = den.coeffs[0]
    out = []
    for k in range(order + 1):
        acc = num.coeffs[k]
        for j in range(k):
            dk = den.coeffs[k - j]
            if dk:
                acc -= out[j] * dk
        out.append(acc / d0)
    return FormalSeries(out)


def compose(outer: FormalSeries, inner: FormalSeries, order: int) -> FormalSeries:
    """The series of outer(inner(z)); inner must have no constant term."""
    if inner.coeffs[0]:
        raise DomainError("composition needs a vanishing constant term inside")
    if order > outer.order or order > inner.order:
        raise DomainError(
            f"composition to order {order} needs both operands to that order "
            f"(have {outer.order} and {inner.order})"
        )
    inner = inner.truncate(order)
    # Horner scheme over series arithmetic.
    result = _coerce(outer.coeffs[order], order)
    for k in range(order - 1, -1, -1):
        result = result * inner + _coerce(outer.coeffs[k], order)
    return result


def _cos_series(order: int) -> FormalSeries:
    out = [Fraction(0)] * (order + 1)
    for j in range(0, order // 2 + 1):
        out[2 * j] = Fraction((-1) ** j, math.factorial(2 * j))
    return FormalSeries(out)


def elementary_series(kind: str, order: int) -> FormalSeries:
    """tan, arctan or sec to the given truncation order."""
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    if kind == "tan":
        # tan' = 1 + tan^2 gives (k+1) t_{k+1} = [k = 0] + sum_{i+j=k} t_i t_j.
        t = [Fraction(0)] * (order + 1)
        if order >= 1:
            t[1] = Fraction(1)
        for k in range(1, order):
            conv = sum(t[i] * t[k - i] for i in range(k + 1))
            t[k + 1] = conv / (k + 1)
        return FormalSeries(t)
    if kind == "arctan":
        out = [Fraction(0)] * (order + 1)
        for j in range((order + 1) // 2):
            out[2 * j + 1] = Fraction((-1) ** j, 2 * j + 1)
        return FormalSeries(out)
    if kind == "sec":
        one = _coerce(1, order)
        return series_ratio(one, _cos_series(order), order)
    raise DomainError(f"unknown series kind {kind!r}, expected one of {_SERIES_KINDS}")


def _bernoulli_numbers(m_max: int) -> list:
    """B_0..B_m_max with B_1 = -1/2, by the defining recurrence."""
    values = [Fraction(1)]
    for m in range(1, m_max + 1):
        acc = sum(math.comb(m + 1, j) * values[j] for j in range(m))
        values.append(-acc / (m + 1))
    return values


def tangent_numbers(k_max: int) -> list:
    """T_1, T_3, ..., T_{2k_max - 1}, checked along two unrelated routes.

    Route one reads factorial-scaled odd tan coefficients; route two runs
    through the Bernoulli recurrence.  A mismatch would mean a defect in
    one of the generators, so it raises instead of returning.
    """
    if k_max < 1:
        raise DomainError(f"need at least one tangent number, got k_max={k_max}")
    tan = elementary_series("tan", 2 * k_max - 1)
    via_tan = [
        math.factorial(2 * k - 1) * tan.coefficient(2 * k - 1)
        for k in range(1, k_max + 1)
    ]
    bern = _bernoulli_numbers(2 * k_max)
    via_bernoulli = [
        Fraction((-1) ** (k + 1) * 4**k * (4**k - 1), 2 * k) * bern[2 * k]
        for k in range(1, k_max + 1)
    ]
    if via_tan != via_bernoulli:
        raise AssertionError(
            "tangent number routes disagree: "
            f"tan-series gave {via_tan}, Bernoulli gave {via_bernoulli}"
        )
    out = []
    for value in via_tan:
        if value.denominator != 1 or value <= 0:
            raise AssertionError(f"tangent number {value} is not a positive integer")
        out.append(int(value))
    return out


def zigzag_numbers(k_max: int) -> list:
    """E_0..E_k_max: factorial-scaled coefficients of tan + sec."""
    if k_max < 0:
        raise DomainError(f"k_max must be nonnegative, got {k_max}")
    both = elementary_series("tan", k_max) + elementary_series("sec", k_max)
    out = []
    for n in range(k_max + 1):
        value = math.factorial(n) * both.coefficient(n)
        if value.denominator != 1 or value <= 0:
            raise AssertionError(f"zigzag number {value} is not a positive integer")
        out.append(int(value))
    return out


def limit_mgf_series(a, b, n: int, order: int) -> FormalSeries:
    """Moment series of the n-th finite model with weights a and b.

    The entrywise-constant part carries weight a, the alternating part
    weight b.  For b = 0 the series degenerates to the geometric series
    of ratio a*z.
    """
    a = Fraction(a)
    b = Fraction(b)
    if n < 1:
        raise DomainError(f"model size must be positive, got {n}")
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    if b == 0:
        return FormalSeries(tuple(a**k for k in range(order + 1)))
    # u(z) = tan(n arctan(b z / n)), an odd series with u_1 = b.
    arct = elementary_series("arctan", order + 1)
    inner = FormalSeries(
        tuple(c * (b / n) ** k * n for k, c in enumerate(arct.coeffs))
    )
    u = compose(elementary_series("tan", order + 1), inner, order + 1)
    return _tangent_ratio(a, b, u, order)


def _tangent_ratio(a, b, u: FormalSeries, order: int) -> FormalSeries:
    """(u/z) / (b - a u) to the given order, for u odd with u_1 = b != 0."""
    t = _shift_down(u)  # t_0 = b
    den = _coerce(b, order) - a * FormalSeries(u.coeffs[: order + 1])
    return series_ratio(t.truncate(order), den, order)


def limit_h_series(a, b, order: int) -> FormalSeries:
    """Cumulant series of the limit law for weights a and b.

    Coefficient r is b^r T_{r+1}(a/b) / (r+1)! with T the tangent
    polynomial; the constant term is zero.  By the generating function
    tan(z)/(1 - x tan(z)) of the tangent polynomials, that is the series
    tan(bz) / (z (b - a tan(bz))) - 1, the ratio limit_mgf_series forms with
    tan(bz) in place of tan(n arctan(bz/n)).  For b = 0 this collapses to
    the geometric cumulants a^r of a single atom's arcsine-free analogue.
    """
    a = Fraction(a)
    b = Fraction(b)
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    if b == 0:
        return FormalSeries([Fraction(0)] + [a**r for r in range(1, order + 1)])
    tan = elementary_series("tan", order + 1)
    u = FormalSeries(tuple(c * b**k for k, c in enumerate(tan.coeffs)))
    return _tangent_ratio(a, b, u, order) - 1

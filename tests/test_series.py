"""Exact power series, tangent-family integer sequences, limit transforms."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf.errors import DomainError
from bqf.matrices import build_special, matrix_add, matrix_scale, omega_moment
from bqf.measure import tangent_convergence
from bqf.series import (
    FormalSeries,
    RationalPolynomial,
    compose,
    elementary_series,
    limit_h_series,
    limit_mgf_series,
    series_ratio,
    tangent_numbers,
    tangent_polynomial,
    zigzag_numbers,
)


def test_elementary_series_values():
    assert elementary_series("tan", 5).coeffs == (
        F(0),
        F(1),
        F(0),
        F(1, 3),
        F(0),
        F(2, 15),
    )
    assert elementary_series("arctan", 5).coeffs == (
        F(0),
        F(1),
        F(0),
        F(-1, 3),
        F(0),
        F(1, 5),
    )
    assert elementary_series("sec", 4).coeffs == (
        F(1),
        F(0),
        F(1, 2),
        F(0),
        F(5, 24),
    )
    with pytest.raises(DomainError):
        elementary_series("cosh", 4)


SERIES2 = FormalSeries([F(1), F(2), F(3)])


@pytest.mark.parametrize(
    "call, text",
    [
        pytest.param(
            lambda: FormalSeries(()), "a series needs at least the constant coefficient",
            id="empty",
        ),
        pytest.param(lambda: SERIES2.truncate(3), "cannot extend order 2 to 3", id="truncate"),
        pytest.param(
            lambda: series_ratio(SERIES2, FormalSeries([F(1)]), 1),
            "ratio to order 1 needs both operands to that order (have 2 and 0)",
            id="ratio-order",
        ),
        pytest.param(
            lambda: compose(SERIES2, FormalSeries([F(0)]), 1),
            "composition to order 1 needs both operands to that order (have 2 and 0)",
            id="compose-order",
        ),
        pytest.param(
            lambda: elementary_series("tan", -1), "order must be nonnegative, got -1",
            id="elementary-order",
        ),
        pytest.param(
            lambda: tangent_numbers(0), "need at least one tangent number, got k_max=0",
            id="tangent-numbers",
        ),
        pytest.param(
            lambda: zigzag_numbers(-1), "k_max must be nonnegative, got -1", id="zigzag-numbers"
        ),
        pytest.param(
            lambda: tangent_polynomial(0), "index must be positive, got 0", id="tangent-poly"
        ),
        pytest.param(
            lambda: limit_mgf_series(0, 1, 2, -1), "order must be nonnegative, got -1",
            id="mgf-order",
        ),
        pytest.param(
            lambda: limit_h_series(0, 1, -1), "order must be nonnegative, got -1",
            id="h-order",
        ),
    ],
)
def test_series_refusals(call, text):
    with pytest.raises(DomainError) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (DomainError, text)


def test_series_arithmetic_and_truncation():
    f = FormalSeries([F(1), F(2), F(3)])
    g = FormalSeries([F(0), F(1)])
    assert (f + g).coeffs == (F(1), F(3))
    assert (f * g).order == 1
    assert f.truncate(1).coeffs == (F(1), F(2))
    assert f.coefficient(2) == 3
    with pytest.raises(DomainError):
        f.coefficient(3)


def test_series_ratio_examples():
    f = FormalSeries([F(1), F(7), F(-2), F(5)])
    one = FormalSeries([F(1), F(0), F(0), F(0)])
    assert series_ratio(f, one, 3).coeffs == f.coeffs
    z = FormalSeries([F(0), F(1), F(0), F(0), F(0)])
    one_minus_z = FormalSeries([F(1), F(-1), F(0), F(0), F(0)])
    assert series_ratio(z, one_minus_z, 4).coeffs == (F(0), F(1), F(1), F(1), F(1))
    with pytest.raises(DomainError):
        series_ratio(z, z, 3)


def test_ratio_times_denominator_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        order = 6
        num = FormalSeries([F(rng.randint(-5, 5)) for _ in range(order + 1)])
        den_coeffs = [F(rng.randint(1, 5))] + [
            F(rng.randint(-5, 5)) for _ in range(order)
        ]
        den = FormalSeries(den_coeffs)
        q = series_ratio(num, den, order)
        assert (q * den).coeffs == num.coeffs


def test_tan_sec_cos_consistency():
    order = 8
    tan = elementary_series("tan", order)
    sec = elementary_series("sec", order)
    cos = series_ratio(FormalSeries([F(1)] + [F(0)] * order), sec, order)
    assert series_ratio(elementary_series("tan", order), cos, order).coeffs == (
        tan * sec
    ).coeffs
    assert (tan * cos * sec).coeffs == tan.coeffs


def test_compose_inverse_pairs():
    for order in (9, 12):
        tan = elementary_series("tan", order)
        arctan = elementary_series("arctan", order)
        z = FormalSeries([F(0), F(1)] + [F(0)] * (order - 1))
        assert compose(tan, arctan, order).coeffs == z.coeffs
        assert compose(arctan, tan, order).coeffs == z.coeffs


def test_compose_identity_and_guard():
    f = FormalSeries([F(2), F(3), F(5)])
    z = FormalSeries([F(0), F(1), F(0)])
    assert compose(f, z, 2).coeffs == f.coeffs
    with pytest.raises(DomainError):
        compose(f, FormalSeries([F(1), F(1), F(0)]), 2)


def test_compose_double_angle():
    order = 3
    half = FormalSeries([F(0), F(1, 2), F(0), F(0)])
    arctan = elementary_series("arctan", order)
    inner = F(2) * compose(arctan, half, order)
    tan = elementary_series("tan", order)
    got = compose(tan, inner, order)
    assert got.coeffs == (F(0), F(1), F(0), F(1, 4))


def test_tangent_numbers_values():
    assert tangent_numbers(5) == [1, 2, 16, 272, 7936]
    assert tangent_numbers(10)[:5] == [1, 2, 16, 272, 7936]


def test_tangent_number_bernoulli_term():
    # the k=2 closed-form term: -(4^2)(4^2 - 1)(-1/30)/4 = 2
    from bqf.series import _bernoulli_numbers

    b = _bernoulli_numbers(4)
    assert b[4] == F(-1, 30)
    k = 2
    value = (-1) ** (k + 1) * F(4**k * (4**k - 1), 2 * k) * b[2 * k]
    assert value == 2


def test_zigzag_values():
    assert zigzag_numbers(8) == [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def test_zigzag_interleaves_tangent():
    t = tangent_numbers(5)
    e = zigzag_numbers(9)
    assert [e[1], e[3], e[5], e[7], e[9]] == t


def test_tangent_polynomials():
    assert tangent_polynomial(1).coeffs == (F(1),)
    assert tangent_polynomial(2).coeffs == (F(0), F(2))
    assert tangent_polynomial(3).coeffs == (F(2), F(0), F(6))
    for n in (2, 4, 6):
        assert tangent_polynomial(n).evaluate(F(0)) == 0
    t = tangent_numbers(4)
    for k, n in enumerate((1, 3, 5, 7)):
        assert tangent_polynomial(n).evaluate(F(0)) == (t[k] if n > 1 else 1)


def test_tangent_polynomial_power_extraction():
    # x^k coefficient of the n-th polynomial must equal n! times the z^n
    # coefficient of the (k+1)-th power of tan, computed independently here
    order = 8
    tan = elementary_series("tan", order)
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        poly = tangent_polynomial(n)
        power = FormalSeries([F(1)] + [F(0)] * order)
        for k in range(n):
            power = power * tan
            coeff = poly.coeffs[k] if k < len(poly.coeffs) else F(0)
            assert coeff == fact * power.coefficient(n)


def test_rational_polynomial_normalization():
    p = RationalPolynomial([F(1), F(0), F(0)])
    assert p.coeffs == (F(1),)
    assert p.degree == 0
    assert RationalPolynomial([]).evaluate(F(7)) == 0
    q = RationalPolynomial([F(1), F(2), F(3)])
    assert q.evaluate(F(2)) == 1 + 4 + 12


def test_limit_mgf_series_examples():
    for n in (2, 3, 5, 9):
        s = limit_mgf_series(F(0), F(1), n, 4)
        assert s.coefficient(0) == 1
        assert s.coefficient(2) == F(n * n - 1, 3 * n * n)
    assert limit_mgf_series(F(0), F(1), 2, 2).coefficient(2) == F(1, 4)
    for a, b in [(F(3), F(1)), (F(-1, 2), F(2)), (F(1), F(0))]:
        for n in (2, 4):
            assert limit_mgf_series(a, b, n, 3).coefficient(1) == a
    geo = limit_mgf_series(F(1, 2), F(0), 7, 5)
    assert geo.coeffs == tuple(F(1, 2) ** k for k in range(6))


def test_limit_mgf_matches_matrix_moments():
    pairs = [(F(0), F(1)), (F(1, 2), F(3))]
    for a, b in pairs:
        for n in range(2, 7):
            model = matrix_add(
                matrix_scale(build_special("P", n), a),
                matrix_scale(build_special("B", n), b),
            )
            s = limit_mgf_series(a, b, n, 8)
            for m in range(9):
                assert s.coefficient(m) == omega_moment(model, m)


def test_limit_h_series_examples():
    s = limit_h_series(F(0), F(1), 6)
    assert s.coeffs == (F(0), F(0), F(1, 3), F(0), F(2, 15), F(0), F(17, 315))
    for a, b in [(F(2), F(3)), (F(-1), F(1, 2)), (F(5, 7), F(0))]:
        h = limit_h_series(a, b, 3)
        assert h.coefficient(0) == 0
        assert h.coefficient(1) == a
        assert h.coefficient(2) == a * a + b * b / 3
    flat = limit_h_series(F(1), F(0), 5)
    assert flat.coeffs == (F(0), F(1), F(1), F(1), F(1), F(1))


def test_limit_h_closed_form_vs_series_route():
    # the library's ratio over the scaled tan coefficients must match the
    # same ratio (1/z)tan(bz)/(b - a tan(bz)) - 1 built by composition
    order = 8
    for a, b in [(F(0), F(1)), (F(1), F(1)), (F(-2, 3), F(3, 2))]:
        closed = limit_h_series(a, b, order)
        tan_b = compose(
            elementary_series("tan", order + 1),
            FormalSeries([F(0), b] + [F(0)] * order),
            order + 1,
        )
        t_over_z = FormalSeries(tan_b.coeffs[1:])
        den = FormalSeries([b] + [F(0)] * order) - FormalSeries(
            [a * c for c in tan_b.truncate(order).coeffs]
        )
        direct = series_ratio(t_over_z, den, order) - FormalSeries(
            [F(1)] + [F(0)] * order
        )
        assert closed.coeffs == direct.coeffs


@settings(max_examples=40, deadline=None)
@given(
    a=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    b=st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    order=st.integers(min_value=0, max_value=12),
)
def test_limit_h_series_property_against_tangent_polynomials(a, b, order):
    # oracle: b^r T_{r+1}(a/b) / (r+1)! from the tangent polynomials
    h = limit_h_series(a, b, order)
    assert h.coefficient(0) == 0
    for r in range(1, order + 1):
        poly = tangent_polynomial(r + 1)
        assert h.coefficient(r) == b**r * poly.evaluate(a / b) / math.factorial(r + 1)


def tangent_family_ratio(a, b, c, n, order):
    """sum_k Tr(P (aP + bB + cI)^k) z^k as (Im/z) / (b Re - a Im), where
    Re + i Im = (1 + wz/n)^n and w = ib - cn, for b != 0."""
    re, im = [], []
    x, y = F(1), F(0)  # (w/n)^j = (-c + ib/n)^j
    for j in range(order + 2):
        re.append(math.comb(n, j) * x)
        im.append(math.comb(n, j) * y)
        x, y = -c * x - b / n * y, -c * y + b / n * x
    den = FormalSeries([b * p - a * q for p, q in zip(re, im[: order + 1])])
    return series_ratio(FormalSeries(im[1:]), den, order)


@settings(max_examples=100, deadline=None)
@given(
    a=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    b=st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=6),
    n=st.integers(min_value=1, max_value=8),
    order=st.integers(min_value=0, max_value=8),
)
def test_tangent_family_ratio_property(a, b, c, n, order):
    # the one ratio behind every tangent-family series: at c = 0 it is
    # limit_mgf_series, at c = -a/n it gives the K_r of tangent_convergence's
    # model, and at any c the dense traces of aP + bB + cI
    moments = limit_mgf_series(a, b, n, order)
    assert tangent_family_ratio(a, b, 0, n, order) == moments
    model = tangent_family_ratio(a, b, -a / n, n, order)
    for r in range(order + 1):
        shifted = sum(
            math.comb(r, j) * (-a / n) ** (r - j) * moments.coefficient(j) for j in range(r + 1)
        )
        assert model.coefficient(r) == shifted
    if order:
        rows = tangent_convergence(a, b, [n], order)
        assert [row.finite_value for row in rows] == [float(k) for k in model.coeffs[1:]]
    dense = matrix_add(
        matrix_add(
            matrix_scale(build_special("P", n), a), matrix_scale(build_special("B", n), b)
        ),
        matrix_scale(build_special("identity", n), c),
    )
    ratio = tangent_family_ratio(a, b, c, n, order)
    assert ratio.coeffs == tuple(omega_moment(dense, k) for k in range(order + 1))


def test_mgf_converges_to_h_plus_one():
    a, b = F(1), F(2)
    h = limit_h_series(a, b, 5)
    errors = []
    for n in (8, 16, 32):
        s = limit_mgf_series(a, b, n, 5)
        worst = max(abs(s.coefficient(r) - (h.coefficient(r) + (1 if r == 0 else 0)))
                    for r in range(6))
        errors.append(worst)
    # quadratic-in-1/n coefficientwise convergence: quartering per doubling
    assert errors[0] > errors[1] > errors[2] > 0
    for prev, nxt in zip(errors, errors[1:]):
        ratio = prev / nxt
        assert F(3) < ratio < F(5)


def test_limit_h_odd_coefficients_vanish_for_pure_skew():
    s = limit_h_series(F(0), F(7, 3), 9)
    for r in range(1, 10, 2):
        assert s.coefficient(r) == 0

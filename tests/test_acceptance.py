"""Acceptance suite: fifteen end-to-end checks, one test per criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Three
criteria end with a clause whose expected value is derived in the test from
an exact identity rather than read off the implementation:

* criterion 10 — the finite-size error of the second cumulant of the
  (a, b) = (0, 1) model is exactly 1/(3 n^2), since
  Tr(P B^2) = (n^2 - 1)/(3 n^2) against the limit 1/3, so each error
  matches 1/(3 n^2) and successive halving ratios equal 4;
* criterion 12 — all nonzero atom pairs together carry mass exactly 1/2,
  and the m-th root of tan(u) = 2u lies in (m pi, m pi + pi/2), so the
  mass of the first four pairs lies in 1/2 minus a tail bracket computed
  from those root bounds;
* criterion 14 — the size-4 matrix pair is exactly independent: the second
  factor is a rank-one v v^T with v in the kernel of the first, so the scan
  finds no violating power at any k.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from bqf.cumulants import (
    NCPolynomial,
    constant_family,
    custom_sequence,
    element_cumulants,
    gaussian_sequence,
    poisson_sequence,
)
from bqf.matrices import (
    HermitianMatrix,
    build_special,
    independence_check,
    matrix_add,
    matrix_scale,
    omega_moment,
    qf_cumulant_iid,
    random_hermitian,
    trace_J_power,
    zero_sum_checks,
)
from bqf.measure import (
    levy_partial_sum,
    moment_consistency,
    self_energy_eval,
    tangent_atoms,
    tangent_convergence,
    zeta_zigzag_approx,
)
from bqf.oracles import GaussianRational, qf_cumulant_hadamard
from bqf.series import elementary_series, limit_mgf_series, tangent_numbers
from bqf.stats import (
    LinearFormSpec,
    ShiftVector,
    kagan_closed_form,
    shifted_sos_cumulant,
    symmetrized_square_cumulant,
)

# The coupled pair whose first-power products vanish against the all-ones
# functional while a second power does not (size 3), and the pair whose
# second factor is rank-one with its column space inside the kernel of the
# first factor (size 4, exactly independent at every power).
COUPLED3_A = HermitianMatrix([[-15, 6, 1], [6, 9, -8], [1, -8, 5]])
COUPLED3_B = HermitianMatrix([[-1, 16, 60], [16, 44, 90], [60, 90, 75]])
RANKONE4_A = HermitianMatrix(
    [[1, 2, 3, 4], [2, -5, 7, 16], [3, 7, 10, 10], [4, 16, 10, 10]]
)
RANKONE4_B = HermitianMatrix(
    [[81, -9, -9, -9], [-9, 1, 1, 1], [-9, 1, 1, 1], [-9, 1, 1, 1]]
)

GR_ZERO = GaussianRational(0)


def _random_sequence(rng, order):
    """A cumulant sequence with small random rational entries."""
    return custom_sequence(
        [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order)]
    )


def _oracle_sample(count=20):
    """Deterministic (matrix, sequence) pairs shared by criteria 1 and 2.

    Real symmetric entries: the word-moment oracle works over plain
    rational coefficients.
    """
    rng = random.Random(414)
    pairs = []
    for i in range(count):
        n = 2 + (i % 2)
        pairs.append(
            (random_hermitian(rng, n, complex_entries=False), _random_sequence(rng, 8))
        )
    return pairs


def _qf_polynomial(a):
    """The quadratic form sum_{j,k} a_jk x_j x_k as a word polynomial."""
    poly = NCPolynomial.scalar(0)
    for j in range(a.n):
        for k in range(a.n):
            entry = a.entries[j][k]
            assert not entry.im, "oracle polynomials need rational coefficients"
            poly = poly + entry.re * (
                NCPolynomial.variable(j + 1) * NCPolynomial.variable(k + 1)
            )
    return poly


def _complement_grid(n, scale=F(1)):
    """Entries of scale * (identity minus the averaging projector)."""
    return [
        [GaussianRational(scale * ((1 if i == j else 0) - F(1, n)), 0) for j in range(n)]
        for i in range(n)
    ]


def _tangent_tail_bracket(pairs):
    """Bounds on the tangent-law mass carried by pairs m >= `pairs`.

    Pair m sits at the root u_m of tan(u) = 2u in (m pi, m pi + pi/2) and
    weighs w(u_m) = 2/(4 u_m^2 - 1), which decreases in u.  The bounds sum
    w at u = m pi (upper) and at u = m pi + pi/2 (lower) over
    pairs <= m <= last; the remainder past `last` lies between the integrals
    of the decreasing summand from last + 1 and from last to infinity.  As
    w(u) = 1/(2u - 1) - 1/(2u + 1), the integral over m from t to infinity
    is log((2u + 1)/(2u - 1)) / (2 pi) at u = t pi + shift.
    """
    last = 1000

    def bound(shift, start):
        head = sum(
            2 / (4 * (m * math.pi + shift) ** 2 - 1) for m in range(pairs, last + 1)
        )
        u = start * math.pi + shift
        return head + math.log((2 * u + 1) / (2 * u - 1)) / (2 * math.pi)

    return bound(math.pi / 2, last + 1), bound(0.0, last)


def test_criterion_01_exact_oracle_equivalence():
    """Partition engine equals the word-moment oracle on 20 random pairs."""
    t0 = time.monotonic()
    for a, seq in _oracle_sample():
        oracle = element_cumulants(_qf_polynomial(a), constant_family(seq, a.n), 4)
        for r in range(1, 5):
            assert qf_cumulant_iid(a, seq, r).value == oracle.k(r)
    assert time.monotonic() - t0 < 60.0


def test_criterion_02_hadamard_route_matches_iid():
    """Projector-closure evaluation agrees with the partition engine."""
    for a, seq in _oracle_sample():
        for r in range(1, 5):
            assert qf_cumulant_hadamard(a, seq, r) == qf_cumulant_iid(a, seq, r).value


def test_criterion_03_gaussian_singleton_trace_formula():
    """Mean-c, variance-1 entries: K_r(T) = c^2 Tr(J A^r), one surviving term."""
    rng = random.Random(2024)
    c = F(3, 2)
    seq = gaussian_sequence(c, F(1), 12)
    for n in range(2, 6):
        for _ in range(2):
            drawn = random_hermitian(rng, n)
            rows = [list(row) for row in drawn.entries]
            # Force a zero trace so the single-block term drops out at r = 1
            # as well and the trace formula covers every order uniformly.
            rows[n - 1][n - 1] = -sum(
                (rows[i][i] for i in range(n - 1)), GR_ZERO
            )
            a = HermitianMatrix(rows)
            for r in range(1, 7):
                report = qf_cumulant_iid(a, seq, r)
                nonzero = [share for _, share in report.contributions if share]
                assert len(nonzero) == 1
                assert report.value == c * c * trace_J_power(a, r)


def test_criterion_04_poisson_square_cumulants():
    """K_r of a squared Poisson-type variable is a^(2r) t (t+1)^r."""
    x = NCPolynomial.variable(1)
    for rate, jump in ((F(1), F(1)), (F(2), F(1, 2)), (F(3, 2), F(2))):
        seq = poisson_sequence(rate, jump, 12)
        got = element_cumulants(x * x, constant_family(seq, 1), 6)
        for r in range(1, 7):
            assert got.k(r) == jump ** (2 * r) * rate * (rate + 1) ** r


def test_criterion_05_centering_complement_closed_form():
    """The matrix route on I - P_n gives n (1 - 1/n)^r K_{2r} exactly."""
    rng = random.Random(505)
    for n in (2, 3, 4):
        seq = _random_sequence(rng, 8)
        a = HermitianMatrix(_complement_grid(n))
        for r in range(1, 5):
            want = n * (1 - F(1, n)) ** r * seq.k(2 * r)
            assert qf_cumulant_iid(a, seq, r).value == want


def test_criterion_06_zero_sum_cancellation_and_symmetrized_check():
    """Zero-row-sum constant-diagonal matrices ignore odd cumulants."""
    base = [F(1, 2), F(2), F(-3), F(5), F(7, 3), F(-1), F(4), F(9, 2)]
    perturbed = list(base)
    perturbed[0] = F(-13, 3)  # K_1
    perturbed[2] = F(11, 2)  # K_3
    perturbed[4] = F(0)  # K_5
    seq_base = custom_sequence(base)
    seq_pert = custom_sequence(perturbed)

    circulant = HermitianMatrix(
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    )
    mats = [
        HermitianMatrix(_complement_grid(3)),
        circulant,
        HermitianMatrix(_complement_grid(4, scale=F(2))),
    ]
    for a in mats:
        diag = [a.entries[i][i].re for i in range(a.n)]
        for r in range(1, 5):
            v_base = qf_cumulant_iid(a, seq_base, r).value
            v_pert = qf_cumulant_iid(a, seq_pert, r).value
            want = sum(d**r for d in diag) * base[2 * r - 1]
            assert v_base == v_pert == want

    # Symmetrized-squares cross-check: the closed form, the engine on the
    # aggregated system matrix, and a full permutation expansion through the
    # word-moment oracle all agree.
    for weights in ((1, 0, -1), (2, -1, -1)):
        form = LinearFormSpec(weights)
        ssq = sum(F(w) ** 2 for w in weights)
        for r in range(1, 4):
            got = symmetrized_square_cumulant(form, seq_base, r)
            assert got == 3 * F(math.factorial(2)) ** r * ssq**r * seq_base.k(2 * r)
        poly = NCPolynomial.scalar(0)
        for ordering in itertools.permutations(weights):
            linear = NCPolynomial.scalar(0)
            for i, w in enumerate(ordering, start=1):
                linear = linear + F(w) * NCPolynomial.variable(i)
            poly = poly + linear * linear
        oracle = element_cumulants(poly, constant_family(seq_base, 3), 2)
        for r in range(1, 3):
            assert oracle.k(r) == symmetrized_square_cumulant(form, seq_base, r)


def test_criterion_07_shift_invariance_and_compact_formula():
    """Shifted sums of squares depend on shifts only through their square sum."""
    family = constant_family(gaussian_sequence(0, 1, 8), 3)
    first = ShiftVector((3, 4, 0))
    second = ShiftVector((5, 0, 0))
    assert first.sum_squares == second.sum_squares == 25
    vals_first = [shifted_sos_cumulant(first, family, r) for r in range(1, 5)]
    vals_second = [shifted_sos_cumulant(second, family, r) for r in range(1, 5)]
    assert vals_first == vals_second
    assert vals_first[:3] == [28, 100, 2600]
    for r in (2, 3):
        assert kagan_closed_form(25, r) == vals_first[r - 1]
    # Documented first-order mismatch of the compact shift-only formula:
    # it yields 1 + s where the true cumulant is n + s.
    assert vals_first[0] == 3 + 25
    assert kagan_closed_form(25, 1) == 1 + 25


def test_criterion_08_limit_mgf_matches_matrix_moments():
    """Series coefficients equal the normalized J-traces of (aP + bB)^m."""
    for a, b in ((F(0), F(1)), (F(1, 2), F(3))):
        for n in range(2, 7):
            series = limit_mgf_series(a, b, n, 8)
            mixed = matrix_add(
                matrix_scale(build_special("P", n), a),
                matrix_scale(build_special("B", n), b),
            )
            for m in range(0, 9):
                assert series.coefficient(m) == omega_moment(mixed, m)


def test_criterion_09_tangent_numbers_two_routes():
    """The even-Bernoulli closed form equals the tangent-series route."""
    bern = [F(1)]
    for m in range(1, 21):
        acc = sum(math.comb(m + 1, j) * bern[j] for j in range(m))
        bern.append(F(-acc, m + 1))
    via_formula = [
        (-1) ** (k + 1) * F(4**k * (4**k - 1), 2 * k) * bern[2 * k]
        for k in range(1, 11)
    ]
    tan_series = elementary_series("tan", 21)
    via_series = [
        math.factorial(2 * k - 1) * tan_series.coefficient(2 * k - 1)
        for k in range(1, 11)
    ]
    assert via_formula == via_series
    assert tangent_numbers(10) == via_series
    assert via_series[:4] == [1, 2, 16, 272]
    assert via_series[4] == 7936


def test_criterion_10_finite_size_convergence_rate():
    """Second-cumulant error decreases with n at the exact rate 1/(3 n^2).

    For the (0, 1) model the finite second cumulant is
    Tr(P B^2) = (n^2 - 1)/(3 n^2) (criterion 11 pins it exactly) and the
    limit is 1/3, so doubling n divides the error by exactly 4.
    """
    sizes = [100, 200, 400]
    t0 = time.monotonic()
    rows = tangent_convergence(0, 1, sizes, 2)
    elapsed = time.monotonic() - t0
    errors = [row.abs_error for row in rows if row.r == 2]
    assert len(errors) == 3
    assert errors[0] > errors[1] > errors[2]
    assert elapsed < 120.0
    for n, err in zip(sizes, errors):
        assert err == pytest.approx(1 / (3 * n * n), rel=1e-9), (
            f"error {err!r} at n = {n}: Tr(P B^2) = (n^2 - 1)/(3 n^2) "
            "against the limit 1/3 makes it exactly 1/(3 n^2)"
        )
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    for ratio in ratios:
        assert ratio == pytest.approx(4, rel=1e-9), (
            f"successive error ratios are {ratios[0]!r} and {ratios[1]!r}: "
            "an error of exactly 1/(3 n^2) is divided by 4 when n doubles"
        )


def test_criterion_11_zeta_and_zigzag_trace_approximations():
    """Exact trace identity for the second moment; small relative errors."""
    for n in range(2, 51):
        b = build_special("B", n)
        assert omega_moment(b, 2) == F(n * n - 1, 3 * n * n)
    res = zeta_zigzag_approx("zeta", 1, 100)
    assert res.rel_error <= 1.1 / 100**2
    for k in range(2, 7):
        res = zeta_zigzag_approx("zigzag", k, 200)
        assert res.rel_error < 0.01


def test_criterion_12_tangent_law_atoms():
    """Atom locations, total mass, and the mass of the first four pairs.

    The atom at 0 has mass 1/2 and the total is 1, so all pairs together
    carry exactly 1/2.  A pair at a root u of tan(u) = 2u weighs
    2/(4 u^2 - 1), and the m-th root (m >= 1) lies in (m pi, m pi + pi/2),
    so the tail beyond four pairs is bracketed by the pair weights taken at
    those two ends; see ``_tangent_tail_bracket``.
    """
    printed = [
        (0.857956, 1e-5),
        (0.217192, 1e-5),
        (0.128372, 1e-5),
        (0.09132, 5e-5),
    ]
    measure = tangent_atoms(100)
    positive = sorted((loc for loc, _ in measure.atoms if loc > 0), reverse=True)
    for got, (ref, tol) in zip(positive[:4], printed):
        assert abs(got - ref) <= tol
    assert abs(measure.total_mass() - 1.0) <= 1e-3
    small = tangent_atoms(4)
    zero_mass = next(mass for loc, mass in small.atoms if loc == 0.0)
    pair_mass = small.total_mass() - zero_mass
    tail_lo, tail_hi = _tangent_tail_bracket(4)
    assert tail_hi - tail_lo <= 2e-3
    assert 0.5 - tail_hi <= pair_mass <= 0.5 - tail_lo, (
        f"the four nonzero atom pairs carry total mass {pair_mass!r}; all "
        "pairs together carry exactly 1/2 and the tail beyond four pairs "
        f"lies in [{tail_lo:.6f}, {tail_hi:.6f}] by the root bracket "
        "(m pi, m pi + pi/2)"
    )


def test_criterion_13_levy_identity_and_moment_consistency():
    """Atom-series partial sums match the closed self-energy; moments agree."""
    for z in (0.8, 1.0, 1.5, -2.0):
        assert abs(levy_partial_sum(z, 100000) - self_energy_eval(z)) <= 1e-6
    rows = moment_consistency(tangent_atoms(200), 4)
    row2 = next(row for row in rows if row.m == 2)
    assert row2.series_moment == pytest.approx(1 / 3, rel=1e-12)
    assert abs(row2.atom_moment - 1 / 3) <= 1e-4


def test_criterion_14_vanishing_product_independence_pairs():
    """Size-3 pair: dependence shows at the second power; size-4 pair is
    exactly independent at every power."""
    assert independence_check(COUPLED3_A, COUPLED3_B, kmax=1).independent
    full = independence_check(COUPLED3_A, COUPLED3_B)
    assert (full.independent, full.witness_power, full.witness_side) == (
        False,
        2,
        "AB",
    )
    reverse = independence_check(COUPLED3_B, COUPLED3_A)
    assert (reverse.independent, reverse.witness_power, reverse.witness_side) == (
        False,
        2,
        "AB",
    )
    assert independence_check(RANKONE4_A, RANKONE4_B, kmax=1).independent
    # The premise, exactly: B = v v^T with A v = 0, so J A^k B and J B^k A
    # vanish for every k >= 1.
    v = (-9, 1, 1, 1)
    assert RANKONE4_B == HermitianMatrix([[p * q for q in v] for p in v])
    a_times_v = [
        sum((row[j] * v[j] for j in range(4)), GR_ZERO) for row in RANKONE4_A.entries
    ]
    assert a_times_v == [GR_ZERO] * 4
    res = independence_check(RANKONE4_A, RANKONE4_B, kmax=12)
    assert (res.independent, res.witness_power, res.witness_side) == (
        True,
        None,
        None,
    ), (
        f"the exact scan reported {res}, but B = v v^T with "
        "v = (-9, 1, 1, 1) and A v = 0, so J A^k B and J B^k A vanish "
        "identically for every k"
    )
    # A binary64 scan of 1^T A^k B first turns nonzero at k = 11, the first
    # power at which an entry of 1^T A^k passes 2^53; exact arithmetic
    # has no such artifact.
    row = [1] * 4
    peaks = []
    for _ in range(11):
        row = [
            sum(row[i] * RANKONE4_A.entries[i][j].re for i in range(4))
            for j in range(4)
        ]
        peaks.append(max(abs(x) for x in row))
    assert peaks[9] < 2**53 < peaks[10]


def test_criterion_15_zero_row_sum_equivalence():
    """Three zero-sum diagnostics agree on 200 random and constructed cases."""
    rng = random.Random(1515)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_hermitian(rng, n, complex_entries=bool(rng.getrandbits(1)))
        report = zero_sum_checks(a)
        direct = True
        for row in a.entries:
            total = sum(row, GR_ZERO)
            if total.re or total.im:
                direct = False
                break
        assert (
            report.is_zero_row_sum
            == report.tr_ja2_zero
            == report.tr_jak_zero_upto_2n
            == direct
        )

    constructed = [HermitianMatrix(_complement_grid(n)) for n in range(2, 7)]
    constructed.append(HermitianMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))
    # Doubly-centered random matrices: (I - P) A (I - P) has zero row sums.
    for _ in range(5):
        n = rng.randint(2, 4)
        comp = _complement_grid(n)
        middle = random_hermitian(rng, n).entries

        def _mul(x, y):
            return [
                [
                    sum((x[i][k] * y[k][j] for k in range(n)), GR_ZERO)
                    for j in range(n)
                ]
                for i in range(n)
            ]

        constructed.append(HermitianMatrix(_mul(_mul(comp, middle), comp)))
    for a in constructed:
        report = zero_sum_checks(a)
        assert report.is_zero_row_sum
        assert report.tr_ja2_zero
        assert report.tr_jak_zero_upto_2n

"""The atomic limit law, its jump measure, the self-energy function, and the
finite-matrix approximation tables."""

import cmath
import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf.cli import APPROX_MAX_K, run
from bqf.cumulants import CumulantSequence
from bqf.errors import (
    AtomProximityError,
    DomainError,
    PoleProximityError,
)
from bqf.matrices import (
    build_special,
    matrix_add,
    matrix_scale,
    omega_moment,
    qf_cumulant_iid,
)
from bqf.measure import (
    AtomicMeasure,
    _p_series_target,
    levy_atoms,
    levy_partial_sum,
    moment_consistency,
    self_energy_eval,
    tangent_atoms,
    tangent_convergence,
    zeta_zigzag_approx,
)

PRINTED_ROOTS = [
    (0.857956, 1e-5),
    (0.217192, 1e-5),
    (0.128372, 1e-5),
    (0.09132, 5e-5),
]


def positive_atoms_descending(measure):
    return sorted(
        ((loc, mass) for loc, mass in measure.atoms if loc > 0), reverse=True
    )


def test_atomic_measure_validation():
    m = AtomicMeasure([(-1.0, 0.25), (1.0, 0.25)])
    assert m.total_mass() == 0.5
    assert m.moment(1) == 0.0
    assert m.moment(2) == 0.5
    with pytest.raises(DomainError):
        AtomicMeasure([])
    with pytest.raises(DomainError):
        AtomicMeasure([(0.0, 0.0)])
    with pytest.raises(DomainError):
        AtomicMeasure([(1.0, 0.5), (1.0, 0.5)])
    with pytest.raises(DomainError):
        AtomicMeasure([(1.0, 0.5), (0.0, 0.75)])
    with pytest.raises(DomainError):
        AtomicMeasure([(0.0, 1.5)])
    with pytest.raises(DomainError):
        m.moment(-1)


def test_odd_moments_of_the_tangent_atoms_vanish_exactly():
    # float ** gives (-x)^m = -(x^m), so each +-x pair cancels exactly
    measure = tangent_atoms(50)
    assert len(measure.atoms) == 101  # 50 +-x pairs and the atom at 0
    for m in range(1, 100, 2):
        moment = measure.moment(m)
        assert moment == 0.0 and math.copysign(1.0, moment) == 1.0


def test_tangent_atoms_locations_match_printed_values():
    atoms = positive_atoms_descending(tangent_atoms(4))
    for (loc, _), (want, tol) in zip(atoms, PRINTED_ROOTS):
        assert abs(loc - want) < tol


def test_tangent_atoms_structure():
    measure = tangent_atoms(5)
    pairs = {}
    zero_mass = None
    for loc, mass in measure.atoms:
        if loc == 0.0:
            zero_mass = mass
        else:
            pairs.setdefault(abs(loc), []).append(mass)
    assert zero_mass == 0.5
    for masses in pairs.values():
        assert len(masses) == 2 and masses[0] == masses[1]
    for loc, mass in measure.atoms:
        assert abs(loc) < 4 / math.pi
        if loc != 0.0:
            x = abs(loc)
            assert mass == pytest.approx(x * x / (4 - x * x), rel=1e-15)
    with pytest.raises(DomainError):
        tangent_atoms(0)


def test_tangent_atoms_root_residuals():
    # each positive location x satisfies tan(1/x) = 2/x to high accuracy;
    # far down the sequence binary64 cannot represent the root this tightly
    # (the defect slope grows like 4 u^3 ulps with u = 1/x), so the bound
    # widens to twice that representability floor
    atoms = positive_atoms_descending(tangent_atoms(100))
    for idx, (x, _) in enumerate(atoms):
        residual = abs(math.tan(1.0 / x) - 2.0 / x)
        if idx < 40:
            assert residual < 1e-9
        u = 1.0 / x
        floor = 4.0 * u**3 * 2.0**-53
        assert residual <= max(1e-9, 2.0 * floor)


def test_tangent_atoms_are_pinned_bit_for_bit():
    # all 20 000 pairs the CLI allows, every location and mass as its repr
    atoms = tangent_atoms(20_000).atoms
    assert hashlib.sha256(repr(atoms).encode()).hexdigest() == (
        "34defa096fb68db5b9c3a95c69a37d4bf2d97fdb210b9dc83eb2003d24191056"
    )


def test_tangent_atoms_total_mass_approaches_one():
    total = tangent_atoms(100).total_mass()
    assert 1 - 1e-3 < total <= 1 + 1e-12
    assert tangent_atoms(100).total_mass() > tangent_atoms(10).total_mass()


def test_levy_atoms_values():
    measure = levy_atoms(3)
    pos = positive_atoms_descending(measure)
    x0 = 2 / math.pi
    assert pos[0][0] == pytest.approx(x0, rel=1e-15)
    formula = x0**4 / (1 + x0 * x0)
    assert pos[0][1] == pytest.approx(formula, rel=1e-15)
    assert abs(pos[0][1] - 0.11675) < 2e-4  # coarse printed figure
    assert pos[1][0] == pytest.approx(2 / (3 * math.pi), rel=1e-15)
    assert pos[1][1] == pytest.approx(0.001940465986357454, rel=1e-12)
    negs = sorted((-loc, mass) for loc, mass in measure.atoms if loc < 0)
    assert negs == sorted(pos)
    assert levy_atoms(100).total_mass() < 0.25
    with pytest.raises(DomainError):
        levy_atoms(0)


def test_self_energy_values():
    assert self_energy_eval(1.0) == pytest.approx(math.tan(1) - 1, abs=1e-15)
    assert abs(self_energy_eval(100.0) - F(1, 300)) < 1e-4
    assert self_energy_eval(1.3) == -self_energy_eval(-1.3)
    with pytest.raises(DomainError):
        self_energy_eval(0.0)
    with pytest.raises(PoleProximityError):
        self_energy_eval(2 / math.pi)
    # a custom guard widens the rejected window
    with pytest.raises(PoleProximityError):
        self_energy_eval(0.64, pole_guard=0.1)
    assert self_energy_eval(0.64) != 0.0


def test_levy_partial_sum_converges_to_self_energy():
    for z in (1.0, 0.4, -2.5):
        partial = levy_partial_sum(z, 100000)
        assert abs(partial - self_energy_eval(z)) < 1e-6


def test_levy_partial_sum_is_exactly_odd():
    for z in (1.5, 0.3, 7.0):
        assert levy_partial_sum(z, 999) == -levy_partial_sum(-z, 999)
    assert levy_partial_sum(0.0, 5) == 0.0


def test_levy_partial_sum_guards():
    with pytest.raises(AtomProximityError):
        levy_partial_sum(2 / math.pi, 100)
    with pytest.raises(AtomProximityError):
        levy_partial_sum(-2 / (3 * math.pi), 100)
    with pytest.raises(DomainError):
        levy_partial_sum(1.0, 0)
    # widened guard rejects a point the default accepts
    near = 2 / math.pi + 1e-6
    assert levy_partial_sum(near, 9) != 0.0
    with pytest.raises(AtomProximityError):
        levy_partial_sum(near, 9, atom_guard=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_floats_are_refused(bad):
    # NaN fails every comparison and inf passes the ordering checks, so each
    # is refused by name rather than left to round() or a silent nan
    calls = [
        (lambda: AtomicMeasure([(bad, 0.5)]), f"atom location {bad} is not finite"),
        (
            lambda: AtomicMeasure([(0.0, 0.25), (bad, 0.25)]),
            f"atom location {bad} is not finite",
        ),
        (lambda: self_energy_eval(bad), f"z must be finite, got {bad}"),
        (lambda: levy_partial_sum(bad, 3), f"z must be finite, got {bad}"),
    ]
    for call, text in calls:
        with pytest.raises(DomainError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (DomainError, text)


def test_moment_consistency_rows():
    rows = moment_consistency(tangent_atoms(100), 4)
    assert [r.m for r in rows] == [0, 1, 2, 3, 4]
    assert rows[0].series_moment == 1.0
    assert rows[1].error == 0.0  # symmetry makes odd moments exactly zero
    assert rows[3].error == 0.0
    assert rows[0].error < 1e-3
    assert rows[2].series_moment == pytest.approx(1 / 3, rel=1e-15)
    rows200 = moment_consistency(tangent_atoms(200), 6)
    for r in rows200:
        if r.m >= 2:
            assert r.error < 1e-4
    assert rows200[0].error < rows[0].error  # mass deficit shrinks
    with pytest.raises(DomainError):
        moment_consistency(tangent_atoms(2), -1)


def test_tangent_convergence_perfect_square_exact():
    rows = tangent_convergence(0, 1, [4], 2)
    by_r = {r.r: r for r in rows}
    assert by_r[1].finite_value == 0.0 and by_r[1].limit_value == 0.0
    assert by_r[2].finite_value == 0.3125  # exactly 5/16
    assert by_r[2].limit_value == pytest.approx(1 / 3, rel=1e-15)
    assert abs(by_r[2].abs_error - 1 / 48) < 1e-15


def test_tangent_convergence_first_order():
    for n in (9, 16):
        rows = tangent_convergence(1, 1, [n], 1)
        assert rows[0].finite_value == pytest.approx((n - 1) / n, rel=1e-15)
        assert rows[0].limit_value == 1.0
    rows = tangent_convergence(1, 0, [25], 3)
    for row in rows:
        assert row.limit_value == 1.0
        assert row.finite_value == pytest.approx((24 / 25) ** row.r, rel=1e-12)


def test_tangent_convergence_quadratic_rate():
    errs = {
        row.n: row.abs_error
        for row in tangent_convergence(0, 1, [50, 100, 200], 2)
        if row.r == 2
    }
    for n, err in errs.items():
        assert err == pytest.approx(1 / (3 * n * n), rel=1e-9)
    assert errs[50] / errs[100] == pytest.approx(4, rel=1e-9)
    assert errs[100] / errs[200] == pytest.approx(4, rel=1e-9)


def test_tangent_convergence_guards():
    with pytest.raises(DomainError):
        tangent_convergence(0, 1, [4], 0)
    with pytest.raises(DomainError):
        tangent_convergence(0, 1, [0], 2)
    # a K_r past the float range names r and n instead of an OverflowError
    with pytest.raises(DomainError, match=r"^K_31 of the model at n = 10 or of the limit "):
        tangent_convergence(10**10, 1, [10], 40)
    assert tangent_convergence(10**10, 1, [10], 30)[-1].limit_value == 1e300


def system_matrix(a, b, n):
    """The dense convergence model S = aP + bB - (a/n)I, as an oracle."""
    return matrix_add(
        matrix_add(
            matrix_scale(build_special("P", n), a),
            matrix_scale(build_special("B", n), b),
        ),
        matrix_scale(build_special("identity", n), -F(a) / n),
    )


ORACLE_SIZES = (1, 2, 3, 4, 5, 7, 9, 10, 12, 16, 17, 23, 25, 30)
ORACLE_WEIGHTS = ((0, 1), (F(1, 2), 3), (1, 1), (-1, F(1, 2)))


def test_tangent_convergence_matches_dense_oracle():
    # the series route against Tr(P S^r) on the dense grid, and at square n
    # against the partition engine with mean 1/sqrt(n), variance 1
    for n in ORACLE_SIZES:
        root = math.isqrt(n)
        for a, b in ORACLE_WEIGHTS:
            system = system_matrix(a, b, n)
            for row in tangent_convergence(a, b, [n], 4):
                trace = omega_moment(system, row.r)
                assert row.finite_value == float(trace)
                if root * root == n:
                    seq = CumulantSequence([F(1, root), 1] + [0] * 6)
                    assert qf_cumulant_iid(system, seq, row.r).value == trace


@settings(max_examples=25, deadline=None)
@given(
    a=st.fractions(min_value=-2, max_value=2, max_denominator=4),
    b=st.fractions(min_value=-2, max_value=2, max_denominator=4),
    n=st.integers(min_value=1, max_value=12),
)
def test_tangent_convergence_property_against_dense_oracle(a, b, n):
    system = system_matrix(a, b, n)
    for row in tangent_convergence(a, b, [n], 3):
        assert row.finite_value == float(omega_moment(system, row.r))


def test_trace_approximations_match_dense_oracle():
    for n in (1, 2, 5, 12, 30):
        b_moments = [omega_moment(build_special("B", n), m) for m in range(7)]
        summed = matrix_add(build_special("P", n), build_special("B", n))
        for k in range(4):
            zeta = zeta_zigzag_approx("zeta", k, n)
            want = math.pi ** (2 * k + 2) * float(b_moments[2 * k])
            assert zeta.approx == want / (2 * (2 ** (2 * k + 2) - 1))
            tangent = zeta_zigzag_approx("tangent", k, n)
            assert tangent.approx == float(math.factorial(2 * k + 1) * b_moments[2 * k])
        for k in range(2, 7):
            zigzag = zeta_zigzag_approx("zigzag", k, n)
            trace = omega_moment(summed, k - 1)
            assert zigzag.approx == float(F(math.factorial(k), 2 ** (k - 1)) * trace)


def test_tangent_convergence_at_a_million():
    for row in tangent_convergence(0, 1, [999_999, 10**6], 2):
        if row.r != 2:
            continue
        n = row.n
        assert row.finite_value == float(F(n * n - 1, 3 * n * n))
        # the table's error is a difference of two values rounded near 1/3,
        # so it carries up to one ulp of 1/3 against the exact 1/(3 n^2)
        assert abs(row.abs_error - 1 / (3 * n * n)) <= math.ulp(1 / 3)


def test_trace_approximations_at_a_million(capsys):
    for kind, k in (("zeta", 1), ("tangent", 2), ("zigzag", 5)):
        assert zeta_zigzag_approx(kind, k, 10**6).rel_error < 1e-10
    assert run(["approx", "zigzag", "--k", "4", "--n", "1000000"]) == 0
    assert capsys.readouterr().err == ""


def test_second_matrix_moment_identity():
    # the exact rational moment behind the k = 1 approximations
    for n in range(2, 51):
        assert omega_moment(build_special("B", n), 2) == F(n * n - 1, 3 * n * n)


def test_zeta_approx():
    base = zeta_zigzag_approx("zeta", 0, 50)
    assert base.approx == pytest.approx(math.pi**2 / 6, rel=1e-15)
    # the k = 0 trace is size-independent, so the row is constant in n
    again = zeta_zigzag_approx("zeta", 0, 200)
    assert again.approx == base.approx and again.rel_error == base.rel_error
    assert 0 < base.rel_error < 1e-7  # truncated p-series target misses a tail
    r100 = zeta_zigzag_approx("zeta", 1, 100)
    assert r100.approx == pytest.approx(1.0822150013877667, rel=1e-14)
    assert r100.rel_error == pytest.approx(1e-4, rel=1e-6)
    for k in (1, 2, 3):
        rels = [zeta_zigzag_approx("zeta", k, n).rel_error for n in (50, 100, 200)]
        assert rels[0] > rels[1] > rels[2]


def test_zeta_targets_are_pinned_bit_for_bit():
    # the correctly rounded p-series sums over m^p <= 1e15 for exponents
    # 2 (3.2e7 terms, by Euler-Maclaurin), 4, 6, 8 and 12, as binary64 bit
    # patterns
    pinned = {
        0: "0x1.a51a659d5ee0ep+0",
        1: "0x1.151322ac7b74fp+0",
        2: "0x1.0470984c09129p+0",
        3: "0x1.010b36af86364p+0",
        5: "0x1.001020a5b2ccap+0",
    }
    for k, bits in pinned.items():
        assert zeta_zigzag_approx("zeta", k, 5).target.hex() == bits


def _fixed_point_p_series(exponent, bits=128):
    """The float of sum m^-p over m^p <= 1e15 by brute force: each term is
    floored to a multiple of 2^-bits, so the exact sum lies within one unit
    per term above the integer total, and both ends must round alike."""
    one = 1 << bits
    total = terms = 0
    while (terms + 1) ** exponent <= 10**15:
        terms += 1
        total += one // terms**exponent
    low, high = float(F(total, one)), float(F(total + terms, one))
    assert low == high
    return low


@pytest.mark.parametrize("exponent", [4, 6, 8, 12])
def test_zeta_targets_match_a_fixed_point_brute_force_sum(exponent):
    target = zeta_zigzag_approx("zeta", exponent // 2 - 1, 5).target
    assert target == _fixed_point_p_series(exponent)


def test_zeta_targets_decrease_to_one():
    # read directly: the traces at k near APPROX_MAX_K take seconds each
    targets = [_p_series_target(2 * k + 2) for k in range(APPROX_MAX_K + 1)]
    first_one = targets.index(1.0)
    assert 2 * first_one + 2 == 50  # 2^p > 1e15 leaves only m = 1
    assert all(x > y for x, y in zip(targets[:first_one], targets[1 : first_one + 1]))
    assert targets[first_one:] == [1.0] * (APPROX_MAX_K + 1 - first_one)


def test_tangent_approx():
    for n in (50, 100, 200):
        assert zeta_zigzag_approx("tangent", 0, n).rel_error == 0.0
    r200 = zeta_zigzag_approx("tangent", 1, 200)
    assert r200.target == 2.0
    assert r200.rel_error == pytest.approx(1 / 200**2, rel=1e-9)
    assert r200.rel_error < 0.01
    for k in (1, 2, 3):
        rels = [zeta_zigzag_approx("tangent", k, n).rel_error for n in (50, 100, 200)]
        assert rels[0] > rels[1] > rels[2]


def test_zigzag_approx():
    for n in (50, 100, 200):
        assert zeta_zigzag_approx("zigzag", 2, n).rel_error == 0.0
    rels = [zeta_zigzag_approx("zigzag", 3, n).rel_error for n in (50, 100, 200)]
    assert rels[0] > rels[1] > rels[2]
    for k in range(2, 7):
        res = zeta_zigzag_approx("zigzag", k, 200)
        assert res.rel_error < 0.01
    r4 = zeta_zigzag_approx("zigzag", 4, 200)
    assert r4.approx == pytest.approx(4.99995, rel=1e-12)
    assert r4.target == 5.0


def test_approx_guards():
    with pytest.raises(DomainError):
        zeta_zigzag_approx("zigzag", 1, 50)
    with pytest.raises(DomainError):
        zeta_zigzag_approx("euler", 1, 50)
    with pytest.raises(DomainError):
        zeta_zigzag_approx("zeta", -1, 50)
    with pytest.raises(DomainError):
        zeta_zigzag_approx("zeta", 0, 0)


def test_transform_has_no_mass_between_atoms():
    # the reciprocal-form transform 1/(2z - z^2 tan(1/z)) must decay
    # linearly in the distance from the real axis at off-atom points:
    # fitting the slope close to the axis predicts the next decade both ways
    def transform(z):
        return 1.0 / (2 * z - z * z * cmath.tan(1.0 / z))

    atoms = [loc for loc, _ in positive_atoms_descending(tangent_atoms(30))]
    points = [(atoms[i] + atoms[i + 1]) / 2 for i in range(20)] + [1.0, 1.2]
    for x in points:
        slope = abs(transform(complex(x, 1e-5)).imag) / 1e-5
        probe = abs(transform(complex(x, 1e-4)).imag) / 1e-4
        assert 0.9 * slope <= probe <= 1.1 * slope

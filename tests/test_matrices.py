"""Hermitian matrix models: quadratic-form cumulants, zero-sum diagnostics,
independence scans, and the matrix JSON format."""

import itertools
import json
import random
import time
from fractions import Fraction as F
from math import lcm
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bqf.cumulants import (
    CumulantSequence,
    NCPolynomial,
    constant_family,
    custom_sequence,
    element_cumulants,
    even_poisson_sequence,
    gaussian_sequence,
    mixed_cumulant,
    parse_distribution,
    poisson_sequence,
)
from bqf.errors import DomainError, HermitianError, OrderShortfallError
from bqf.matrices import (
    HermitianMatrix,
    IndependenceResult,
    build_special,
    h_series_qf,
    independence_check,
    load_matrix,
    matrix_add,
    matrix_from_json_obj,
    matrix_scale,
    matrix_to_json_obj,
    mixed_qf_cumulant,
    omega_moment,
    qf_cumulant_general,
    qf_cumulant_iid,
    qf_cumulants_general,
    qf_cumulants_iid,
    random_hermitian,
    save_matrix,
    trace_J_power,
    zero_sum_checks,
)
from bqf.oracles import (
    CONTRIBUTIONS_MAX_ORDER,
    GaussianRational,
    lemma25_probe,
    partition_shares,
    poisson_qf_check,
    qf_cumulant_hadamard,
)
from bqf.partitions import enumerate_interval

COUPLED3_A = HermitianMatrix([[-15, 6, 1], [6, 9, -8], [1, -8, 5]])
COUPLED3_B = HermitianMatrix([[-1, 16, 60], [16, 44, 90], [60, 90, 75]])
RANKONE4_A = HermitianMatrix(
    [[1, 2, 3, 4], [2, -5, 7, 16], [3, 7, 10, 10], [4, 16, 10, 10]]
)
RANKONE4_B = HermitianMatrix(
    [[81, -9, -9, -9], [-9, 1, 1, 1], [-9, 1, 1, 1], [-9, 1, 1, 1]]
)


def real_entry(a, i, j):
    e = a.entries[i][j]
    assert not e.im
    return e.re


def identity_minus_projector(n):
    return matrix_add(
        build_special("identity", n), matrix_scale(build_special("P", n), F(-1))
    )


def test_build_special_values():
    j = build_special("J", 2)
    assert all(e == GaussianRational(1) for row in j.entries for e in row)
    b = build_special("B", 2)
    assert b.entries[0][1] == GaussianRational(0, F(1, 2))
    assert b.entries[1][0] == GaussianRational(0, F(-1, 2))
    b2 = _matrix_power(b, 2)
    for i in range(2):
        for j in range(2):
            want = GaussianRational(F(1, 4) if i == j else 0)
            assert b2.entries[i][j] == want
    with pytest.raises(DomainError):
        build_special("Q", 3)
    with pytest.raises(DomainError):
        build_special("J", 0)


def _matrix_power(a, k):
    entries = [
        [GaussianRational(1 if i == j else 0) for j in range(a.n)] for i in range(a.n)
    ]
    cur = HermitianMatrix(entries) if k == 0 else None
    prod = entries
    for _ in range(k):
        prod = [
            [
                sum(
                    (prod[i][m] * a.entries[m][j] for m in range(a.n)),
                    GaussianRational(0),
                )
                for j in range(a.n)
            ]
            for i in range(a.n)
        ]

    class _Box:
        pass

    box = _Box()
    box.n = a.n
    box.entries = tuple(tuple(row) for row in prod)
    return box


def test_projector_idempotent():
    for n in range(2, 9):
        p = build_special("P", n)
        p2 = _matrix_power(p, 2)
        assert p2.entries == p.entries


def test_hermitian_validation():
    with pytest.raises(HermitianError) as exc:
        HermitianMatrix([[0, 1], [2, 0]])
    assert "(1,2)" in str(exc.value) and "(2,1)" in str(exc.value)
    with pytest.raises(HermitianError):
        HermitianMatrix([[GaussianRational(0, 1)]])  # imaginary diagonal
    # an (re, im) pair may be a list as well as a tuple
    pairs = [[1, [0, F(1, 2)]], [[0, F(-1, 2)], 2]]
    assert HermitianMatrix(pairs) == HermitianMatrix([[1, (0, F(1, 2))], [(0, F(-1, 2)), 2]])
    with pytest.raises(HermitianError):
        HermitianMatrix([[[0, 1]]])
    with pytest.raises(DomainError):
        HermitianMatrix([[0, 1]])
    with pytest.raises(DomainError):
        HermitianMatrix([])


def test_trace_j_power_values():
    anti = HermitianMatrix([[0, 1], [1, 0]])
    for k in range(1, 7):
        assert trace_J_power(anti, k) == 2
    assert trace_J_power(anti, 0) == 2
    zs = HermitianMatrix([[1, -1], [-1, 1]])
    assert trace_J_power(zs, 1) == 0
    assert trace_J_power(zs, 2) == 0
    assert isinstance(trace_J_power(anti, 3), F)


def test_omega_moment_values():
    b = build_special("B", 2)
    assert omega_moment(b, 2) == F(1, 4)
    assert omega_moment(b, 1) == 0
    for n in (2, 3, 5):
        p = build_special("P", n)
        for m in range(5):
            assert omega_moment(p, m) == 1
        assert omega_moment(build_special("identity", n), 3) == 1
        assert omega_moment(p, 0) == 1


def test_zero_sum_checks_flags():
    for n in (2, 3, 6):
        rep = zero_sum_checks(identity_minus_projector(n))
        assert rep.is_zero_row_sum and rep.tr_ja2_zero and rep.tr_jak_zero_upto_2n
        assert rep.constant_diagonal
    repj = zero_sum_checks(build_special("J", 3))
    assert not repj.is_zero_row_sum
    assert not repj.tr_ja2_zero
    assert not repj.tr_jak_zero_upto_2n
    assert repj.constant_diagonal
    repd = zero_sum_checks(HermitianMatrix([[1, 0], [0, 2]]))
    assert not repd.is_zero_row_sum
    assert not repd.constant_diagonal


def test_zero_sum_checks_three_way_agreement():
    # internal consistency assert must never fire, and the headline flag
    # must match a direct row-sum scan
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_hermitian(rng, n)
        rep = zero_sum_checks(a)
        direct = all(
            sum((a.entries[i][j] for j in range(n)), GaussianRational(0))
            == GaussianRational(0)
            for i in range(n)
        )
        assert rep.is_zero_row_sum == direct


def naive_qf_cumulant(a, seq, r):
    """Independent route: sum over all doubled index words of length 2r.

    Weights each entry product by the sum, over interval partitions of the
    doubled word that join the consecutive-pair matching to the one-block
    partition and on whose blocks the word is constant, of the cumulant
    products.  Uses none of the lift/chain machinery of the engine.  The
    matching cuts at the even positions, and a join is the one-block
    partition exactly when the cut sets are disjoint.
    """
    n = a.n
    pairs = frozenset(range(2, 2 * r, 2))
    qualifying = [pi for pi in enumerate_interval(2 * r) if not (pi.cuts & pairs)]
    total = GaussianRational(0)
    for word in itertools.product(range(n), repeat=2 * r):
        entry = GaussianRational(1)
        for m in range(r):
            entry = entry * a.entries[word[2 * m]][word[2 * m + 1]]
        if not entry:
            continue
        weight = F(0)
        for pi in qualifying:
            if all(len({word[i - 1] for i in b}) == 1 for b in pi.blocks()):
                w = F(1)
                for size in pi.block_sizes():
                    w *= seq.k(size)
                weight += w
        total = total + entry * weight
    assert not total.im
    return total.re


def test_qf_cumulant_iid_matches_naive_oracle():
    rng = random.Random(21)
    seqs = [
        gaussian_sequence(F(1), F(2), 8),
        poisson_sequence(F(2), F(1, 2), 8),
        custom_sequence([F(1), F(-1), F(2), F(3), F(0), F(1), F(5), F(-2)]),
    ]
    for trial in range(6):
        n = rng.randint(1, 3)
        a = random_hermitian(rng, n)
        seq = seqs[trial % len(seqs)]
        for r in range(1, 4):
            rep = qf_cumulant_iid(a, seq, r)
            assert rep.value == naive_qf_cumulant(a, seq, r)


def test_qf_cumulant_report_contributions():
    seq = custom_sequence([1, 1, 0, 0])
    a = HermitianMatrix([[0, 1], [1, 0]])
    rep = qf_cumulant_iid(a, seq, 1)
    assert rep.value == 2
    assert sum((c for _, c in partition_shares(a, seq, 1)), GaussianRational(0)) == (
        GaussianRational(rep.value)
    )
    parts = enumerate_interval(2)
    shares = dict(partition_shares(a, seq, 1))
    assert shares[parts[0]] == GaussianRational(0)  # trace term, Tr A = 0
    assert shares[parts[1]] == GaussianRational(2)


def test_qf_cumulant_iid_golden_antidiagonal():
    seq = custom_sequence([1, 1, 0, 0])
    a = HermitianMatrix([[0, 1], [1, 0]])
    assert qf_cumulant_iid(a, seq, 1).value == 2
    assert qf_cumulant_iid(a, seq, 2).value == 2


def test_qf_cumulant_iid_guards():
    a = HermitianMatrix([[1]])
    seq = custom_sequence([1, 1])
    with pytest.raises(DomainError):
        qf_cumulant_iid(a, seq, 0)
    with pytest.raises(OrderShortfallError):
        qf_cumulant_iid(a, seq, 2)


ANTI2 = HermitianMatrix([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "call, kind, text",
    [
        pytest.param(
            lambda: qf_cumulant_general(ANTI2, constant_family(custom_sequence([1, 1]), 2), 0),
            DomainError, "cumulant order must be positive, got 0", id="general-order",
        ),
        pytest.param(
            lambda: qf_cumulants_general(ANTI2, {1: custom_sequence([1, 1])}, 1),
            DomainError, "family has no sequence for variable 2", id="general-missing",
        ),
        pytest.param(
            lambda: qf_cumulant_general(
                ANTI2, {1: custom_sequence([1, 1, 0, 0]), 2: custom_sequence([1, 1])}, 2
            ),
            OrderShortfallError, "order 2 needs cumulants through 4, variable 2 has 2",
            id="general-shortfall",
        ),
        pytest.param(
            lambda: matrix_add(ANTI2, build_special("P", 3)),
            DomainError, "sizes differ: 2 vs 3", id="add-sizes",
        ),
        pytest.param(
            lambda: trace_J_power(ANTI2, -1),
            DomainError, "power must be nonnegative, got -1", id="negative-power",
        ),
        pytest.param(  # the size is read off the grids, so it cannot be replaced
            lambda: qf_cumulants_iid(
                build_special("J", 3)._replace(n=2), gaussian_sequence(1, 1, 8), 3
            ),
            ValueError, "Got unexpected field names: ['n']", id="replaced-size",
        ),
        pytest.param(
            lambda: HermitianMatrix([[(1, 0, 0)]]),
            DomainError, "row 1 has a 3-part entry, expected (re, im)", id="three-part-entry",
        ),
        pytest.param(  # a list is an (re, im) entry like a tuple
            lambda: HermitianMatrix([[1, 2], [2, [1, 0, 0]]]),
            DomainError, "row 2 has a 3-part entry, expected (re, im)",
            id="three-part-list-entry",
        ),
    ],
)
def test_matrix_refusals(call, kind, text):
    with pytest.raises(kind) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (kind, text)


def test_qf_cumulant_size_one_matches_polynomial_oracle():
    seq = custom_sequence([F(2), F(1), F(-1), F(3), F(1), F(0), F(2), F(1)])
    for c in (F(1), F(-3, 2)):
        a = HermitianMatrix([[c]])
        poly = NCPolynomial([(c, (1, 1))])
        want = element_cumulants(poly, constant_family(seq, 1), 4)
        for r in range(1, 5):
            assert qf_cumulant_iid(a, seq, r).value == want.k(r)


def test_qf_cumulant_zero_diagonal_centered_first_order():
    seq = gaussian_sequence(F(0), F(5), 4)  # centered: first cumulant zero
    a = HermitianMatrix([[0, 2], [2, 0]])
    assert qf_cumulant_iid(a, seq, 1).value == 0


def test_qf_cumulant_gaussian_closed_forms():
    # for a mean-c variance-v family, only the all-singletons partition
    # survives at order r >= 2, giving c^2 v^(r-1) Tr(J A^r); order 1 keeps
    # the extra trace term v Tr(A)
    rng = random.Random(11)
    c, v = F(3), F(2)
    g = gaussian_sequence(c, v, 12)
    for _ in range(4):
        a = random_hermitian(rng, 3)
        for r in range(2, 6):
            assert qf_cumulant_iid(a, g, r).value == c * c * v ** (r - 1) * (
                trace_J_power(a, r)
            )
        tr = sum((real_entry(a, i, i) for i in range(3)), F(0))
        assert qf_cumulant_iid(a, g, 1).value == v * tr + c * c * trace_J_power(a, 1)


def test_qf_cumulant_traceless_first_order_clean():
    rng = random.Random(5)
    c, v = F(2), F(1)
    g = gaussian_sequence(c, v, 12)
    for _ in range(4):
        a = random_hermitian(rng, 4)
        rows = [list(row) for row in a.entries]
        rows[3][3] = -sum((rows[i][i] for i in range(3)), GaussianRational(0))
        t = HermitianMatrix(rows)
        for r in range(1, 6):
            assert qf_cumulant_iid(t, g, r).value == c * c * trace_J_power(t, r)


def test_qf_cumulant_routes_agree():
    rng = random.Random(31)
    seq = custom_sequence([F(1), F(2), F(-1), F(1), F(3), F(0), F(1), F(2)])
    for _ in range(20):
        n = rng.randint(1, 3)
        a = random_hermitian(rng, n)
        for r in range(1, 5):
            want = qf_cumulant_iid(a, seq, r).value
            assert qf_cumulant_hadamard(a, seq, r) == want
    for _ in range(4):
        a = random_hermitian(rng, 2)
        fam = constant_family(seq, 2)
        for r in range(1, 4):
            assert qf_cumulant_general(a, fam, r) == qf_cumulant_iid(a, seq, r).value


def test_qf_cumulant_general_distinct_families():
    # two variables with different sequences: check against the polynomial
    # cumulant oracle
    f1 = custom_sequence([F(1), F(1), F(0), F(0), F(0), F(0)])
    f2 = custom_sequence([F(0), F(2), F(1), F(1), F(0), F(0)])
    fam = {1: f1, 2: f2}
    a = HermitianMatrix([[1, 2], [2, -1]])
    poly = (
        NCPolynomial([(F(1), (1, 1))])
        + NCPolynomial([(F(2), (1, 2))])
        + NCPolynomial([(F(2), (2, 1))])
        + NCPolynomial([(F(-1), (2, 2))])
    )
    want = element_cumulants(poly, fam, 3)
    for r in range(1, 4):
        assert qf_cumulant_general(a, fam, r) == want.k(r)


def test_zero_sum_constant_diagonal_reduces_to_single_block():
    # with zero row sums and constant diagonal only the one-block partition
    # contributes, so K_r = K_{2r} * sum of diagonal^r and odd cumulants of
    # the family never enter
    n = 3
    t = identity_minus_projector(n)
    sa = even_poisson_sequence([7, -1, 5], 8)
    sb = even_poisson_sequence([0, 2, -3], 8)
    sc = custom_sequence([1, 2, 0, 5, 0, 7, 0, 11])
    for r in range(1, 5):
        va = qf_cumulant_iid(t, sa, r).value
        assert va == qf_cumulant_iid(t, sb, r).value
        assert va == n * F(n - 1, n) ** r  # even cumulants are all 1 here
        assert qf_cumulant_iid(t, sc, r).value == sc.k(2 * r) * n * F(n - 1, n) ** r


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def hermitian_matrices(draw, max_n, complex_entries=True, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = GaussianRational(draw(SMALL_RATIONALS))
        for j in range(i + 1, n):
            im = draw(SMALL_RATIONALS) if complex_entries else 0
            rows[i][j] = GaussianRational(draw(SMALL_RATIONALS), im)
            rows[j][i] = rows[i][j].conjugate()
    return HermitianMatrix(rows)


@settings(max_examples=25, deadline=None)
@given(
    a=hermitian_matrices(max_n=4),
    r=st.integers(min_value=1, max_value=6),
    values=st.lists(SMALL_RATIONALS, min_size=12, max_size=12),
)
def test_qf_dp_matches_enumeration_and_hadamard_property(a, r, values):
    seq = custom_sequence(values)
    rep = qf_cumulant_iid(a, seq, r)
    shares = sum((c for _, c in partition_shares(a, seq, r)), GaussianRational(0))
    assert shares == GaussianRational(rep.value)
    assert qf_cumulant_hadamard(a, seq, r) == rep.value


@settings(max_examples=25, deadline=None)
@given(
    a=hermitian_matrices(max_n=3, complex_entries=False),
    r=st.integers(min_value=1, max_value=3),
    values=st.lists(
        st.lists(SMALL_RATIONALS, min_size=6, max_size=6), min_size=3, max_size=3
    ),
)
def test_qf_cumulant_general_matches_polynomial_oracle_property(a, r, values):
    # a different sequence per variable
    fam = {i + 1: custom_sequence(values[i]) for i in range(a.n)}
    poly = NCPolynomial(
        [
            (a.entries[j][k].re, (j + 1, k + 1))
            for j in range(a.n)
            for k in range(a.n)
        ]
    )
    assert qf_cumulant_general(a, fam, r) == element_cumulants(poly, fam, r).k(r)


@st.composite
def cumulant_sequences(draw, order):
    """One of the four preset kinds, or plain int cumulants, many of them
    zero, all to the given order."""
    kind = draw(st.sampled_from(("gaussian", "poisson", "evenpoisson", "custom", "int")))
    if kind == "gaussian":
        return gaussian_sequence(draw(SMALL_RATIONALS), draw(SMALL_RATIONALS), order)
    if kind == "poisson":
        return poisson_sequence(draw(SMALL_RATIONALS), draw(SMALL_RATIONALS), order)
    if kind == "evenpoisson":
        return even_poisson_sequence(draw(st.lists(SMALL_RATIONALS, max_size=3)), order)
    if kind == "custom":
        return custom_sequence(draw(st.lists(SMALL_RATIONALS, min_size=order, max_size=order)))
    ints = st.integers(min_value=-3, max_value=3) | st.just(0)
    return CumulantSequence(draw(st.lists(ints, min_size=order, max_size=order)))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), a=hermitian_matrices(max_n=5), order=st.integers(min_value=1, max_value=8))
def test_one_pass_matches_single_orders_and_enumeration_property(data, a, order):
    # K_1..K_R from one DP pass against one call per order, the per-partition
    # enumeration oracle, and a family whose sequences differ per variable
    seq = data.draw(cumulant_sequences(2 * order))
    values = qf_cumulants_iid(a, seq, order)
    assert values == [qf_cumulant_iid(a, seq, r).value for r in range(1, order + 1)]
    for r, value in enumerate(values, 1):
        shares = partition_shares(a, seq, r)
        assert sum((c for _, c in shares), GaussianRational(0)) == GaussianRational(value)
    assert qf_cumulants_general(a, constant_family(seq, a.n), order) == values
    fam = {i: data.draw(cumulant_sequences(2 * order)) for i in range(1, a.n + 1)}
    assert qf_cumulants_general(a, fam, order) == [
        qf_cumulant_general(a, fam, r) for r in range(1, order + 1)
    ]


def _grid_total(entries):
    return sum((e for row in entries for e in row), GaussianRational(0))


def _ones_times(x, y):
    """The row vector 1^T X Y for entry grids X and Y, in GaussianRational."""
    zero = GaussianRational(0)
    cols = [sum(col, zero) for col in zip(*x)]
    return [sum(map(mul, cols, col), zero) for col in zip(*y)]


def _brute_witness(a, b, kmax):
    """The J A^k B scan of independence_check, from matrix powers."""
    for k in range(1, (1 if a.n == 2 else kmax) + 1):
        if any(_ones_times(_matrix_power(a, k).entries, b.entries)):
            return IndependenceResult(False, k, "AB")
        if any(_ones_times(_matrix_power(b, k).entries, a.entries)):
            return IndependenceResult(False, k, "BA")
    return IndependenceResult(True)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    i=st.integers(min_value=1, max_value=2),
    j=st.integers(min_value=1, max_value=2),
)
def test_krylov_kernel_matches_gaussian_rational_powers_property(data, n, k, i, j):
    # the integer kernel against sums of GaussianRational matrix powers; the
    # scalings give the two matrices different denominators, and the mixed
    # word A^i B^j A^i (a palindrome, so its trace is real) repeats A, so
    # each power of its denominator counts
    a = matrix_scale(data.draw(hermitian_matrices(max_n=n, min_n=n)), F(1, 5))
    b = matrix_scale(data.draw(hermitian_matrices(max_n=n, min_n=n)), F(1, 7))
    totals = [_grid_total(_matrix_power(a, m).entries) for m in range(k + 1)]
    for m in range(k + 1):
        value = trace_J_power(a, m)
        assert type(value) is F and GaussianRational(value) == totals[m]
    assert tuple(map(GaussianRational, h_series_qf(a, k).coeffs)) == (
        GaussianRational(0),
        *totals[1:],
    )
    ai = _matrix_power(a, i).entries
    head = _ones_times(ai, _matrix_power(b, j).entries)
    word = sum((x * y for x, row in zip(head, ai) for y in row), GaussianRational(0))
    value = mixed_qf_cumulant([a] * i + [b] * j + [a] * i)
    assert type(value) is F and GaussianRational(value) == word
    assert independence_check(a, b, kmax=k) == _brute_witness(a, b, k)


def test_qf_dp_integer_kernel_edge_cases():
    seq = custom_sequence([F(2, 3), F(-1), F(5, 7), F(3), F(-2, 5), F(1), F(4), F(-1, 9)])
    huge = 2**61 - 1  # prime, like the other denominators below
    cases = [
        HermitianMatrix([[F(-5, 3)]]),  # n = 1
        HermitianMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]),  # zero matrix
        HermitianMatrix([[0, F(1, 2), -3], [F(1, 2), 0, F(2, 3)], [-3, F(2, 3), 0]]),
        build_special("B", 4),  # purely imaginary
        HermitianMatrix(
            [
                [F(1, huge), GaussianRational(F(3, 10**9 + 7), F(-1, 998244353))],
                [GaussianRational(F(3, 10**9 + 7), F(1, 998244353)), F(-7, 2**31 - 1)],
            ]
        ),
    ]
    for a in cases:
        for r in range(1, 5):
            value = qf_cumulant_iid(a, seq, r).value
            assert type(value) is F
            assert value == qf_cumulant_hadamard(a, seq, r)
        # the Krylov functions on the same integer kernel
        totals = [_grid_total(_matrix_power(a, k).entries) for k in range(5)]
        for k in range(5):
            assert GaussianRational(trace_J_power(a, k)) == totals[k]
        assert h_series_qf(a, 4).coeffs == (0, *(t.re for t in totals[1:]))
        assert GaussianRational(mixed_qf_cumulant([a, a, a])) == totals[3]
        assert independence_check(a, a, kmax=3) == _brute_witness(a, a, 3)
        row_sums = [sum(row, GaussianRational(0)) for row in a.entries]
        assert zero_sum_checks(a).is_zero_row_sum == (not any(row_sums))
    # the B-side witness: I - P has zero row sums, so every J A^k B
    # vanishes, while J B A = e_1^T (I - P) does not
    centering = identity_minus_projector(3)
    corner = HermitianMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert independence_check(centering, corner) == IndependenceResult(False, 1, "BA")
    assert _brute_witness(centering, corner, 6) == IndependenceResult(False, 1, "BA")
    for r in range(1, 5):
        assert qf_cumulant_iid(cases[1], seq, r).value == 0
        assert qf_cumulant_iid(cases[0], seq, r).value == element_cumulants(
            NCPolynomial([(F(-5, 3), (1, 1))]), constant_family(seq, 1), r
        ).k(r)


def test_qf_value_never_enumerates_partitions(monkeypatch):
    def refuse(n):
        raise RuntimeError(f"enumerated {2 ** (n - 1)} partitions")

    monkeypatch.setattr("bqf.oracles.enumerate_interval", refuse)
    rng = random.Random(8)
    a = random_hermitian(rng, 3)
    seq = poisson_sequence(F(3, 2), F(2, 3), 12)
    for r in range(1, 7):
        rep = qf_cumulant_iid(a, seq, r)
        assert rep.value == qf_cumulant_general(a, constant_family(seq, 3), r)
    with pytest.raises(RuntimeError, match="enumerated 64 partitions"):
        partition_shares(a, seq, r)


def test_integer_routes_never_build_gaussian_rationals(monkeypatch):
    # outside the oracles, the entries view and input parsing, the matrix
    # layer works on the integer grids alone
    rng = random.Random(21)
    a, c = random_hermitian(rng, 3), random_hermitian(rng, 3, complex_entries=False)
    d = HermitianMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    seq = poisson_sequence(F(3, 2), F(2, 3), 8)

    class Refused(GaussianRational):
        def __init__(self, re=0, im=0):
            raise RuntimeError("built a GaussianRational")

    monkeypatch.setattr("bqf.oracles.GaussianRational", Refused)
    b = build_special("B", 3)
    for kind in ("J", "P", "identity"):
        build_special(kind, 3)
    s = matrix_add(matrix_scale(build_special("P", 3), F(1, 2)), b)
    s = matrix_add(s, matrix_scale(build_special("identity", 3), F(-1, 6)))
    for m in (a, b, c, s):
        for k in range(4):
            trace_J_power(m, k)
            omega_moment(m, k)
        h_series_qf(m, 4)
        poisson_qf_check(m, 1, 1, 3)
        zero_sum_checks(m)
        lemma25_probe(m, 4)
        for r in range(1, 4):
            qf_cumulant_iid(m, seq, r).value
            qf_cumulant_general(m, constant_family(seq, 3), r)
    for x, y in itertools.product((a, b, c, s), repeat=2):
        independence_check(x, y)
    mixed_qf_cumulant([a, c, a])
    with pytest.raises(AssertionError) as exc:
        mixed_qf_cumulant([b, d])
    assert str(exc.value) == (
        "mixed quadratic-form cumulant should be real, got imaginary part 4/3"
    )


def test_qf_contributions_order_cap():
    a = identity_minus_projector(2)
    r = CONTRIBUTIONS_MAX_ORDER + 1
    seq = even_poisson_sequence([1], 2 * r)
    rep = qf_cumulant_iid(a, seq, r)
    assert rep.value == 2 * F(1, 2) ** r
    with pytest.raises(DomainError, match="contributions"):
        partition_shares(a, seq, r)


def test_qf_cumulant_order_32_at_n_50_centering_complement():
    # the centering complement closed form (acceptance criterion 5) at the
    # size the composition DP is built for
    n, r = 50, 32
    rng = random.Random(50)
    seq = custom_sequence([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2 * r)])
    a = identity_minus_projector(n)
    t0 = time.monotonic()
    value = qf_cumulant_iid(a, seq, r).value
    assert time.monotonic() - t0 < 10.0
    assert value == n * (1 - F(1, n)) ** r * seq.k(2 * r)


def test_mixed_qf_cumulant_basics():
    a = HermitianMatrix([[1, 2], [2, 3]])
    assert mixed_qf_cumulant([a]) == trace_J_power(a, 1)
    b = build_special("P", 2)
    assert mixed_qf_cumulant([a, b]) == trace_J_power(a, 1)  # P absorbs J
    with pytest.raises(DomainError):
        mixed_qf_cumulant([])
    with pytest.raises(DomainError):
        mixed_qf_cumulant([a, build_special("P", 3)])


def test_mixed_words_for_coupled_pair():
    # low-order trace words all vanish although the pair is not independent;
    # the first nonvanishing word has length four
    a, b = COUPLED3_A, COUPLED3_B
    zero_words = [
        [a, b],
        [b, a],
        [a, a, b],
        [a, b, a],
        [b, b, a],
        [a, b, a, a],
        [a, a, b, a],
        [a, b, b, a],
    ]
    for word in zero_words:
        assert mixed_qf_cumulant(word) == 0
    assert mixed_qf_cumulant([a, a, b, b]) == 820800
    assert mixed_qf_cumulant([b, b, a, a]) == 820800


def test_independence_check_coupled_pair_n3():
    res = independence_check(COUPLED3_A, COUPLED3_B)
    assert res == (False, 2, "AB") or (
        res.independent is False
        and res.witness_power == 2
        and res.witness_side == "AB"
    )
    # the first power is clean on both sides
    assert independence_check(COUPLED3_A, COUPLED3_B, kmax=1).independent
    # the reversed orientation finds its witness at the same power
    rev = independence_check(COUPLED3_B, COUPLED3_A)
    assert not rev.independent
    assert rev.witness_power == 2 and rev.witness_side == "AB"


def test_independence_check_rank_one_kernel_pair_n4():
    # the second matrix is the rank-one square v v^T of a kernel vector of
    # the first, so every product vanishes identically and the pair is
    # exactly independent at any scan depth
    v = (-9, 1, 1, 1)
    for i in range(4):
        assert real_entry(RANKONE4_B, i, i) == v[i] * v[i]
        assert sum(
            (RANKONE4_A.entries[i][j] * GaussianRational(v[j]) for j in range(4)),
            GaussianRational(0),
        ) == GaussianRational(0)
    for kmax in (4, 8, 12, 16):
        assert independence_check(RANKONE4_A, RANKONE4_B, kmax=kmax).independent
    assert independence_check(RANKONE4_B, RANKONE4_A, kmax=16).independent


def form(a):
    """The quadratic form x*Ax of a real symmetric matrix as a polynomial."""
    return NCPolynomial(
        [(real_entry(a, j, k), (j + 1, k + 1)) for j in range(a.n) for k in range(a.n)]
    )


def test_mixed_cumulant_of_the_independence_pairs():
    # K_2(Q_A, Q_B) of the quadratic forms x*Ax and x*Bx: both Gaussian
    # presets make it vanish for the scanned pairs, the Poisson preset not,
    # so the scan reads independence only under a premise on the family
    presets = {
        "gaussian:c=0,v=1": (0, 0),
        "gaussian:c=1,v=1": (0, 0),
        "poisson:lambda=3/2,alpha=2/3": (F(2720, 3), F(3712, 9)),
    }
    for preset, want in presets.items():
        seq = parse_distribution(preset, 4)
        got = tuple(
            mixed_cumulant([form(a), form(b)], constant_family(seq, a.n))
            for a, b in ((COUPLED3_A, COUPLED3_B), (RANKONE4_A, RANKONE4_B))
        )
        assert got == want


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=3),
    r=st.integers(min_value=2, max_value=3),
    c=SMALL_RATIONALS,
    v=SMALL_RATIONALS,
)
def test_gaussian_mixed_cumulant_is_the_mixed_qf_cumulant_property(data, n, r, c, v):
    # with K_{>=3} = 0 only singleton ends and one pair across each boundary
    # survive, so K_r(Q_1, ..., Q_r) = c^2 v^(r-1) Tr(J A_1 ... A_r)
    real = hermitian_matrices(max_n=n, min_n=n, complex_entries=False)
    mats = [data.draw(real) for _ in range(r)]
    family = constant_family(gaussian_sequence(c, v, 2 * r), n)
    want = c * c * v ** (r - 1) * mixed_qf_cumulant(mats)
    assert mixed_cumulant([form(a) for a in mats], family) == want


# whether K_2(Q_A, Q_B) vanishes on a rank-one kernel pair, by preset
PRESET_PREMISE = {
    "gaussian:c=1,v=1": True,
    "gaussian:c=-3/2,v=2/3": True,
    "poisson:lambda=3/2,alpha=2/3": False,
}


def test_rank_one_kernel_pairs_are_independent_with_vanishing_gaussian_k2():
    # random pairs like RANKONE4: B = v v^T and A = P M P with P the
    # projection off v, so A v = 0, the scan finds no witness, and
    # K_2(Q_A, Q_B), a multiple of 1^T A B 1, vanishes under any Gaussian preset;
    # under the Poisson preset it does not on these twelve pairs
    rng = random.Random(24)
    for _ in range(12):
        n = rng.randint(2, 4)
        vec = [rng.randint(-3, 3) for _ in range(n - 1)] + [rng.randint(1, 3)]
        norm = sum(x * x for x in vec)
        proj = [[F(i == j) - F(vec[i] * vec[j], norm) for j in range(n)] for i in range(n)]
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        pm = [[sum(proj[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        a = [[sum(pm[i][k] * proj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert all(sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(n))
        a, b = HermitianMatrix(a), HermitianMatrix([[x * y for y in vec] for x in vec])
        assert independence_check(a, b).independent
        for preset, vanishes in PRESET_PREMISE.items():
            family = constant_family(parse_distribution(preset, 4), n)
            assert (mixed_cumulant([form(a), form(b)], family) == 0) is vanishes


def test_independence_check_block_pair():
    a = HermitianMatrix(
        [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    b = HermitianMatrix(
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    )
    assert independence_check(a, b).independent
    for length in range(2, 6):
        for word in itertools.product([a, b], repeat=length):
            assert mixed_qf_cumulant(list(word)) == 0


def test_independence_check_n2_single_power():
    a = HermitianMatrix([[1, -1], [-1, 1]])
    b = HermitianMatrix([[2, -2], [-2, 2]])
    res = independence_check(a, b, kmax=9)
    assert res.independent
    with pytest.raises(DomainError):
        independence_check(a, b, kmax=0)
    with pytest.raises(DomainError):
        independence_check(a, build_special("P", 3))


def test_h_series_qf_values():
    for n in (2, 4):
        s = h_series_qf(build_special("P", n), 5)
        assert s.coeffs == (F(0),) + (F(n),) * 5
        assert h_series_qf(build_special("identity", n), 3).coeffs == (
            F(0),
            F(n),
            F(n),
            F(n),
        )
        z = h_series_qf(identity_minus_projector(n), 6)
        assert all(c == 0 for c in z.coeffs)
    assert h_series_qf(build_special("P", 3), 0).coeffs == (F(0),)
    with pytest.raises(DomainError):
        h_series_qf(build_special("P", 3), -1)


def test_poisson_qf_check_cases():
    for n in (2, 3, 5):
        assert poisson_qf_check(build_special("P", n), n, 1, 6)
        assert not poisson_qf_check(build_special("P", n), 1, n, 2)
    assert poisson_qf_check(identity_minus_projector(3), 0, 7, 4)
    with pytest.raises(DomainError):
        poisson_qf_check(build_special("P", 2), 1, 1, 0)


def test_lemma25_probe_cases():
    assert lemma25_probe(build_special("B", 4), 6)
    assert lemma25_probe(identity_minus_projector(3), 4)
    assert not lemma25_probe(HermitianMatrix([[0, 1], [1, 0]]), 2)
    d = HermitianMatrix([[2, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert trace_J_power(d, 1) == 0  # the k = 0 probe passes
    assert not lemma25_probe(d, 4)  # the k = 2 probe catches it
    with pytest.raises(DomainError):
        lemma25_probe(d, 3)
    with pytest.raises(DomainError):
        lemma25_probe(d, 0)


def test_matrix_json_roundtrip(tmp_path):
    rng = random.Random(13)
    for _ in range(10):
        a = random_hermitian(rng, rng.randint(1, 4))
        path = tmp_path / "m.json"
        save_matrix(a, path)
        back = load_matrix(path)
        assert back.entries == a.entries
    obj = matrix_to_json_obj(build_special("B", 2))
    assert obj["n"] == 2
    assert obj["entries"][0][1] == ["0", "1/2"]
    assert matrix_from_json_obj(obj).entries == build_special("B", 2).entries


def test_matrix_json_writes_entries_past_the_digit_limit(tmp_path):
    # 3^10000 has 4772 digits, more than str() of an int converts by default
    a = HermitianMatrix([[F(1, 3**10000)]])
    assert matrix_to_json_obj(a)["entries"][0][0][1] == "0"
    path = tmp_path / "big.json"
    save_matrix(a, path)
    re = json.loads(path.read_text())["entries"][0][0][0]
    assert re.startswith("1/") and len(re) == 2 + 4772
    assert re.endswith(str(3**10000 % 10**100).zfill(100))


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), a=hermitian_matrices(max_n=4), c=SMALL_RATIONALS)
def test_integer_storage_matches_entries_property(tmp_path, data, a, c):
    # the integer grids against the GaussianRational view, which is the oracle
    path = tmp_path / "m.json"
    save_matrix(a, path)
    assert load_matrix(path) == a
    assert HermitianMatrix(a.entries) == a
    assert HermitianMatrix([[(e.re, e.im) for e in row] for row in a.entries]) == a
    assert a.den == lcm(*(x.denominator for row in a.entries for e in row for x in (e.re, e.im)))
    # the one constructor reduces grids scaled by a common factor
    m = data.draw(st.integers(min_value=2, max_value=12))
    grids = [[[x * m for x in col] for col in grid] for grid in (a.re, a.im)]
    unreduced = HermitianMatrix._make((*grids, a.den * m))
    assert unreduced == a and hash(unreduced) == hash(a)
    b = data.draw(hermitian_matrices(max_n=a.n, min_n=a.n))
    total = matrix_add(a, b)
    want = tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries))
    assert total.entries == want and total == HermitianMatrix(want)
    for k in (c, F(0), F(-3, 2)):
        scaled = matrix_scale(a, k)
        want = tuple(tuple(x * GaussianRational(k) for x in row) for row in a.entries)
        assert scaled.entries == want and scaled == HermitianMatrix(want)


def test_matrix_json_errors(tmp_path):
    with pytest.raises(DomainError):
        matrix_from_json_obj([1, 2])
    with pytest.raises(DomainError):
        matrix_from_json_obj({"n": 2})
    with pytest.raises(DomainError):
        matrix_from_json_obj({"n": 0, "entries": []})
    with pytest.raises(DomainError):
        matrix_from_json_obj({"n": 2, "entries": [[["1", "0"], ["0", "0"]]]})
    with pytest.raises(DomainError, match="^row 2 must list 2 entries$"):
        matrix_from_json_obj({"n": 2, "entries": [[["1", "0"], ["0", "0"]], [["0", "0"]]]})
    with pytest.raises(DomainError) as exc:
        matrix_from_json_obj(
            {"n": 1, "entries": [[["1"]]]}
        )
    assert "(1,1)" in str(exc.value)
    with pytest.raises(HermitianError):
        matrix_from_json_obj(
            {"n": 2, "entries": [[["0", "0"], ["1", "0"]], [["2", "0"], ["0", "0"]]]}
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        load_matrix(bad)


def test_matrix_json_refuses_a_boolean_size():
    # JSON true is a Python bool, an int subclass, but no matrix size
    with pytest.raises(DomainError, match='^"n" must be a positive integer, got True$'):
        matrix_from_json_obj({"n": True, "entries": [[["1", "0"]]]})


def test_random_hermitian_is_self_adjoint_and_real_mode():
    rng = random.Random(3)
    a = random_hermitian(rng, 4)
    assert any(a.entries[i][j].im for i in range(4) for j in range(4))
    b = random_hermitian(rng, 4, complex_entries=False)
    assert all(not b.entries[i][j].im for i in range(4) for j in range(4))
    with pytest.raises(DomainError):
        random_hermitian(rng, 0)

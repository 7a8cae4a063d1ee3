"""Statistics built from squared linear forms: symmetrized squares, sample
variance, shifted sums of squares, and the shift-only closed form."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bqf import cumulants
from bqf.cumulants import (
    NCPolynomial,
    constant_family,
    custom_sequence,
    element_cumulants,
    even_poisson_sequence,
    gaussian_sequence,
    poisson_sequence,
)
from bqf.errors import DomainError, OrderShortfallError
from bqf.matrices import (
    HermitianMatrix,
    qf_cumulant_iid,
    qf_cumulants_iid,
)
from bqf.oracles import GaussianRational
from bqf.partitions import enumerate_interval, lift_matching
from bqf.stats import (
    LinearFormSpec,
    ShiftVector,
    kagan_closed_form,
    sample_variance_cumulant,
    sample_variance_cumulants,
    shifted_sos_cumulant,
    shifted_sos_cumulants,
    symmetrized_square_cumulant,
    symmetrized_square_cumulants,
)


def standard_normal_family(order, n):
    return constant_family(gaussian_sequence(0, 1, order), n)


def test_linear_form_spec_guards():
    with pytest.raises(DomainError):
        LinearFormSpec([1])
    assert LinearFormSpec([1, -1]).n == 2
    assert LinearFormSpec(["1/2", "-1/2"]).weights == (F(1, 2), F(-1, 2))


def test_shift_vector_cache():
    assert ShiftVector((1, 2)).s == 5
    assert ShiftVector((3, 4, 0)).s == 25
    with pytest.raises(DomainError):
        ShiftVector(())
    # s is computed from the shifts: neither _replace nor _make can set it
    family = constant_family(gaussian_sequence(0, 1, 6), 2)
    with pytest.raises(ValueError, match=r"^Got unexpected field names: \['s'\]$"):
        shifted_sos_cumulants(ShiftVector([1, 2])._replace(s=7), family, 3)
    with pytest.raises(TypeError, match="positional argument"):
        ShiftVector._make(((1, 2), 7))


def test_symmetrized_two_point():
    seq = custom_sequence([1, 2, 3, 5])
    form = LinearFormSpec((1, -1))
    assert symmetrized_square_cumulant(form, seq, 1) == 8  # 2 * 2 * K_2
    assert symmetrized_square_cumulant(form, seq, 2) == 40  # 2 * 4 * K_4
    g = gaussian_sequence(F(1), F(3), 4)
    assert symmetrized_square_cumulant(form, g, 1) == 4 * 3
    assert symmetrized_square_cumulant(form, g, 2) == 0  # K_4 vanishes


def test_symmetrized_requires_centered_weights():
    seq = custom_sequence([1, 1])
    with pytest.raises(DomainError):
        symmetrized_square_cumulant(LinearFormSpec((1, 1)), seq, 1)
    with pytest.raises(DomainError):
        symmetrized_square_cumulant(LinearFormSpec((1, -1)), seq, 0)
    with pytest.raises(OrderShortfallError):
        symmetrized_square_cumulant(LinearFormSpec((1, -1)), seq, 2)


def test_symmetrized_ignores_odd_cumulants():
    form = LinearFormSpec((2, -1, -1))
    sa = even_poisson_sequence([7, -1, 5], 8)
    sb = even_poisson_sequence([0, 2, -3], 8)
    for r in range(1, 5):
        assert symmetrized_square_cumulant(form, sa, r) == (
            symmetrized_square_cumulant(form, sb, r)
        )


def test_symmetrized_matches_permutation_polynomial_oracle():
    # expand the statistic literally: sum the squared form over all weight
    # orderings and take cumulants of the resulting polynomial
    w = (F(1), F(0), F(-1))
    seq = custom_sequence([F(1), F(2), F(-1), F(3), F(0), F(1)])
    form = LinearFormSpec(w)
    poly = None
    for perm in itertools.permutations(range(3)):
        lin = None
        for i, p in enumerate(perm):
            term = w[p] * NCPolynomial.variable(i + 1)
            lin = term if lin is None else lin + term
        sq = lin * lin
        poly = sq if poly is None else poly + sq
    oracle = element_cumulants(poly, constant_family(seq, 3), 3)
    for r in (1, 2, 3):
        got = symmetrized_square_cumulant(form, seq, r)
        assert got == oracle.k(r)
    assert [symmetrized_square_cumulant(form, seq, r) for r in (1, 2, 3)] == [
        24,
        144,
        192,
    ]


def test_sample_variance_closed_form():
    seq = custom_sequence([F(1), F(2), F(0), F(5), F(1), F(3), F(0), F(7)])
    for r in range(1, 5):
        assert sample_variance_cumulant(2, seq, r) == 2 * F(1, 2) ** r * seq.k(2 * r)
    ep = even_poisson_sequence([0, 0, 0], 8)
    for n in (2, 3, 5):
        for r in range(1, 5):
            assert sample_variance_cumulant(n, ep, r) == n * F(n - 1, n) ** r
    for n in (2, 3, 7):
        for v in (F(1), F(5, 2)):
            g = gaussian_sequence(F(2), v, 2)
            assert sample_variance_cumulant(n, g, 1) == (n - 1) * v


def test_sample_variance_engine_agreement_beyond_guard():
    # the implementation self-checks n <= 4, r <= 4; compare a larger case
    # against the quadratic-form engine directly
    n = 5
    seq = custom_sequence([F(1), F(2), F(0), F(5), F(1), F(3), F(0), F(7)])
    q = F(1, n)
    grid = [
        [GaussianRational((1 if i == j else 0) - q, 0) for j in range(n)]
        for i in range(n)
    ]
    m = HermitianMatrix(grid)
    for r in range(1, 5):
        assert sample_variance_cumulant(n, seq, r) == qf_cumulant_iid(m, seq, r).value
    assert sample_variance_cumulant(5, seq, 3) == F(192, 25)
    assert sample_variance_cumulant(5, seq, 4) == F(1792, 125)


def test_sample_variance_guards():
    seq = custom_sequence([1, 1])
    with pytest.raises(DomainError):
        sample_variance_cumulant(1, seq, 1)
    with pytest.raises(DomainError):
        sample_variance_cumulant(2, seq, 0)
    with pytest.raises(OrderShortfallError):
        sample_variance_cumulant(2, seq, 2)


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def preset_sequences(draw, order):
    """One of the four preset kinds, to the given order."""
    kind = draw(st.sampled_from(("gaussian", "poisson", "evenpoisson", "custom")))
    if kind == "gaussian":
        return gaussian_sequence(draw(SMALL_RATIONALS), draw(SMALL_RATIONALS), order)
    if kind == "poisson":
        return poisson_sequence(draw(SMALL_RATIONALS), draw(SMALL_RATIONALS), order)
    if kind == "evenpoisson":
        return even_poisson_sequence(draw(st.lists(SMALL_RATIONALS, max_size=3)), order)
    return custom_sequence(draw(st.lists(SMALL_RATIONALS, min_size=order, max_size=order)))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=4),
    n_var=st.integers(min_value=2, max_value=6),
    order=st.integers(min_value=1, max_value=6),
)
def test_centred_statistics_match_the_engine_property(data, n, n_var, order):
    # the closed forms against the engine on system matrices built here:
    # the permutation sum of w_s w_s^T, and I - P_n entry by entry
    seq = data.draw(preset_sequences(2 * order))
    w = data.draw(st.lists(SMALL_RATIONALS, min_size=n - 1, max_size=n - 1))
    form = LinearFormSpec(w + [-sum(w, F(0))])
    grid = [[F(0)] * n for _ in range(n)]
    for perm in itertools.permutations(form.weights):
        for i in range(n):
            for j in range(n):
                grid[i][j] += perm[i] * perm[j]
    values = symmetrized_square_cumulants(form, seq, order)
    assert values == qf_cumulants_iid(HermitianMatrix(grid), seq, order)
    assert values == [
        symmetrized_square_cumulant(form, seq, r) for r in range(1, order + 1)
    ]
    centring = [[F(i == j) - F(1, n_var) for j in range(n_var)] for i in range(n_var)]
    values = sample_variance_cumulants(n_var, seq, order)
    assert values == qf_cumulants_iid(HermitianMatrix(centring), seq, order)
    assert values == [
        sample_variance_cumulant(n_var, seq, r) for r in range(1, order + 1)
    ]


def test_shifted_sos_zero_shifts_is_plain_sum_of_squares():
    fam = standard_normal_family(6, 3)
    sv = ShiftVector((0, 0, 0))
    poly = None
    for i in (1, 2, 3):
        xi = NCPolynomial.variable(i)
        poly = xi * xi if poly is None else poly + xi * xi
    want = element_cumulants(poly, fam, 3)
    for r in (1, 2, 3):
        assert shifted_sos_cumulant(sv, fam, r) == want.k(r)


def test_shifted_sos_depends_only_on_sum_of_squares_for_gaussian():
    a = ShiftVector((3, 4, 0))
    b = ShiftVector((5, 0, 0))
    values = []
    for sv in (a, b):
        values.append(
            [shifted_sos_cumulant(sv, standard_normal_family(2 * r, 3), r) for r in (1, 2, 3)]
        )
    assert values[0] == values[1] == [28, 100, 2600]


def test_shifted_sos_single_variable():
    for a in (F(1), F(3, 2)):
        sv = ShiftVector((a,))
        fam = standard_normal_family(4, 1)
        # phi((X+a)^2) = 1 + a^2 and phi((X+a)^4) = 1 + 6a^2 + a^4 for the
        # centered unit-variance family, so K_2 = 4a^2
        m1 = shifted_sos_cumulant(sv, fam, 1)
        assert m1 == 1 + a * a
        assert shifted_sos_cumulant(sv, fam, 2) == 4 * a * a
    with pytest.raises(DomainError):
        shifted_sos_cumulant(ShiftVector((1,)), standard_normal_family(2, 1), 0)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    shifts=st.lists(SMALL_RATIONALS, min_size=1, max_size=3),
    order=st.integers(min_value=1, max_value=4),
)
def test_shifted_sos_matches_the_joint_expansion_property(data, shifts, order):
    # the moment-recursion route against the oracle on the whole statistic
    # s + sum_i (X_i^2 + 2 a_i X_i), each variable with its own preset, now
    # and then cut short of the 2 * order cumulants or missing
    family = {}
    for i in range(1, len(shifts) + 1):
        kind = data.draw(st.sampled_from(("full", "full", "full", "short", "missing")))
        if kind == "full":
            family[i] = data.draw(preset_sequences(2 * order))
        elif kind == "short":
            short = data.draw(st.integers(min_value=1, max_value=2 * order - 1))
            family[i] = data.draw(preset_sequences(short))
    sv = ShiftVector(shifts)
    terms = [(sv.s, ())]
    for i, a in enumerate(sv.shifts, start=1):
        terms += [(1, (i, i)), (2 * a, (i,))]
    try:
        joint = element_cumulants(NCPolynomial(terms), family, order)
    except DomainError as exc:
        with pytest.raises(DomainError) as ours:
            shifted_sos_cumulants(sv, family, order)
        # with a variable missing and another cut short both refusals are
        # right; the expansion names whichever word it meets first
        cut = any(seq.order < 2 * order for seq in family.values())
        if not (cut and len(family) < len(shifts)):
            assert type(ours.value) is type(exc)
    else:
        assert shifted_sos_cumulants(sv, family, order) == list(joint.values)


def test_shifted_sos_never_expands_words(monkeypatch):
    # the production route runs neither the polynomial oracle nor the word
    # evaluator: 64 Gaussian shifts at order 12 still give n + s and the
    # closed form
    def expanded(*args):
        raise AssertionError("a word was expanded")

    for name in ("element_cumulants", "_running_moments", "_word_moments"):
        monkeypatch.setattr(cumulants, name, expanded)
    sv = ShiftVector([F(i, 7) for i in range(-31, 33)])
    values = shifted_sos_cumulants(sv, standard_normal_family(24, 64), 12)
    assert values == [64 + sv.s] + [kagan_closed_form(sv.s, r) for r in range(2, 13)]


def test_kagan_closed_form_values():
    for s in (F(0), F(25), F(7, 3)):
        assert kagan_closed_form(s, 2) == 4 * s
    assert kagan_closed_form(25, 3) == 2600
    with pytest.raises(DomainError):
        kagan_closed_form(1, 0)


def partition_sum_kagan(s, r):
    """Independent oracle: s^(r + singletons - blocks), 0^0 = 1, summed over
    the partitions of {1, ..., 2r} whose join with the standard matching is
    full, listed as the lifts of the interval partitions of {1, ..., r+1}."""
    total = F(0)
    for pi in enumerate_interval(r + 1):
        lifted = lift_matching(pi)
        total += F(s) ** (r + lifted.singleton_count - lifted.num_blocks)
    return total


@pytest.mark.parametrize("s", [F(0), F(-1), F(7, 3), F(25)])
def test_kagan_closed_form_is_the_partition_sum(s):
    for r in range(1, 13):
        assert kagan_closed_form(s, r) == partition_sum_kagan(s, r), r


def test_kagan_matches_engine_for_r_at_least_two():
    cases = [
        (ShiftVector((3, 4, 0)), 3),
        (ShiftVector((5, 0, 0)), 3),
        (ShiftVector((1, 1)), 2),
        (ShiftVector((2,)), 1),
    ]
    for sv, n in cases:
        for r in (2, 3):
            fam = standard_normal_family(2 * r, n)
            assert shifted_sos_cumulant(sv, fam, r) == kagan_closed_form(sv.s, r)


def test_kagan_first_order_discrepancy_is_documented():
    # the compact formula gives 1 + s at r = 1; the true value is n + s
    sv = ShiftVector((3, 4, 0))
    fam = standard_normal_family(2, 3)
    assert shifted_sos_cumulant(sv, fam, 1) == 3 + 25
    assert kagan_closed_form(25, 1) == 1 + 25


def test_non_gaussian_family_breaks_shift_invariance():
    # same sum of squares, different shift layout: a Poisson family is
    # detected at the second cumulant
    a = ShiftVector((3, 4, 0))
    b = ShiftVector((5, 0, 0))
    fam = constant_family(poisson_sequence(1, 1, 4), 3)
    va = shifted_sos_cumulant(a, fam, 2)
    vb = shifted_sos_cumulant(b, fam, 2)
    assert va == 168 and vb == 152
    assert va != vb

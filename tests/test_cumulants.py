"""Moment/cumulant calculus: conversions, word moments, the polynomial
oracle, mixed and product cumulants, shifts, presets."""

import itertools
import random
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bqf.cumulants import (
    DEFAULT_TERM_CAP,
    CumulantSequence,
    NCPolynomial,
    constant_family,
    cumulants_from_moments,
    custom_sequence,
    element_cumulants,
    even_poisson_sequence,
    gaussian_sequence,
    mixed_cumulant,
    moments_from_cumulants,
    parse_distribution,
    poisson_sequence,
    polynomial_moment,
    product_cumulant,
    shifted_cumulants,
    word_moment,
)
from bqf.errors import DomainError, ExpansionCapError, OrderShortfallError
from bqf.partitions import enumerate_interval, kernel_refines
from bqf.stats import ShiftVector, kagan_closed_form, shifted_sos_cumulant


def random_sequence(rng, order):
    return CumulantSequence(
        [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)]
    )


def direct_word_moment(word, family):
    """Independent oracle: sum K_pi over all interval partitions whose
    blocks carry a constant variable index."""
    total = F(0)
    for pi in enumerate_interval(len(word)):
        if not kernel_refines(word, pi):
            continue
        prod = F(1)
        for block in pi.blocks():
            prod *= family[word[block[0] - 1]].k(len(block))
        total += prod
    return total


def test_sequence_reads_beyond_order_rejected():
    seq = CumulantSequence([F(1), F(2)])
    assert seq.order == 2
    assert seq.k(2) == 2
    with pytest.raises(OrderShortfallError):
        seq.k(3)
    with pytest.raises(DomainError):
        CumulantSequence([])


GAUSS2 = gaussian_sequence(0, 1, 2)


@pytest.mark.parametrize(
    "call, kind, text",
    [
        pytest.param(
            lambda: GAUSS2.k(0), DomainError, "cumulant order must be positive, got 0",
            id="k-zero",
        ),
        pytest.param(
            lambda: cumulants_from_moments([1, 2], 3),
            DomainError, "cumulants to order 3 need moments to order 3, got 2",
            id="few-moments",
        ),
        pytest.param(
            lambda: mixed_cumulant([], {1: GAUSS2}),
            DomainError, "mixed cumulant needs at least one argument", id="mixed-empty",
        ),
        pytest.param(
            lambda: product_cumulant((), (), {1: GAUSS2}), DomainError, "empty word",
            id="product-empty",
        ),
        pytest.param(
            lambda: product_cumulant((0, 2), (1, 1), {1: GAUSS2}),
            DomainError, "group sizes must be positive, got (0, 2)", id="product-group",
        ),
        pytest.param(
            lambda: product_cumulant((1, 1), (1, 2), {1: GAUSS2}),
            DomainError, "no cumulant sequence for variable 2", id="product-missing",
        ),
        pytest.param(
            lambda: shifted_cumulants(GAUSS2, 1, 0),
            DomainError, "order must be positive, got 0", id="shift-order",
        ),
        pytest.param(
            lambda: shifted_cumulants(GAUSS2, 1, 3),
            OrderShortfallError, "shift to order 3 needs cumulants to order 3, have 2",
            id="shift-shortfall",
        ),
        pytest.param(
            lambda: gaussian_sequence(0, 1, 0),
            DomainError, "order must be positive, got 0", id="gaussian-order",
        ),
        pytest.param(
            lambda: poisson_sequence(1, 1, 0),
            DomainError, "order must be positive, got 0", id="poisson-order",
        ),
        pytest.param(
            lambda: even_poisson_sequence([], 0),
            DomainError, "order must be positive, got 0", id="evenpoisson-order",
        ),
        pytest.param(
            lambda: constant_family(GAUSS2, 0),
            DomainError, "family size must be positive, got 0", id="family-size",
        ),
    ],
)
def test_cumulant_refusals(call, kind, text):
    with pytest.raises(kind) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (kind, text)


def test_moments_from_cumulants_examples():
    assert moments_from_cumulants(CumulantSequence([F(1), F(1), F(0)]), 3) == [
        F(1),
        F(2),
        F(3),
    ]
    a = F(3, 2)
    gauss = CumulantSequence([F(0), a * a, F(0), F(0), F(0), F(0)])
    assert moments_from_cumulants(gauss, 6) == [
        F(0),
        a**2,
        F(0),
        a**4,
        F(0),
        a**6,
    ]
    zeros = CumulantSequence([F(0)] * 5)
    assert moments_from_cumulants(zeros, 5) == [F(0)] * 5
    with pytest.raises(OrderShortfallError):
        moments_from_cumulants(CumulantSequence([F(1)]), 2)


def test_cumulants_from_moments_examples():
    assert cumulants_from_moments([F(1), F(2), F(3)]).values == (F(1), F(1), F(0))


def test_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        order = rng.randint(1, 10)
        seq = random_sequence(rng, order)
        m = moments_from_cumulants(seq, order)
        assert cumulants_from_moments(m).values == seq.values


def test_two_atom_measure_cumulants():
    # atoms 9/2 and -1/2 with masses 9/10 and 1/10: the mean-4 variance-9/4
    # two-point law whose cumulant series stops after order two
    atoms = [(F(9, 2), F(9, 10)), (F(-1, 2), F(1, 10))]
    moments = [
        sum(mass * loc**m for loc, mass in atoms) for m in range(1, 9)
    ]
    kappa = cumulants_from_moments(moments).values
    assert kappa[0] == F(4)
    assert kappa[1] == F(9, 4)
    assert kappa[2:] == (F(0),) * 6


def test_word_moment_examples():
    rng = random.Random(5)
    fam = {i: random_sequence(rng, 6) for i in (1, 2)}
    k1 = fam[1].k(1)
    k2 = fam[2].k(1)
    assert word_moment((1, 2, 1), fam) == k1 * k2 * k1
    assert word_moment((1, 1), fam) == fam[1].k(2) + k1 * k1
    assert word_moment((1, 2, 2, 1), fam) == (
        k1 * fam[2].k(2) * k1 + k1 * k2 * k2 * k1
    )


def test_word_moment_against_partition_sum():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        fam = {i: random_sequence(rng, n) for i in (1, 2, 3)}
        word = tuple(rng.randint(1, 3) for _ in range(n))
        assert word_moment(word, fam) == direct_word_moment(word, fam)


def test_word_moment_alternating_factorization():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(2, 7)
        fam = {i: random_sequence(rng, n) for i in (1, 2, 3)}
        word = [rng.randint(1, 3)]
        while len(word) < n:
            nxt = rng.randint(1, 3)
            if nxt != word[-1]:
                word.append(nxt)
        word = tuple(word)
        product = F(1)
        for letter in word:
            product *= fam[letter].k(1)
        assert word_moment(word, fam) == product
    # 2000 letters, far past any recursion limit
    fam = {1: CumulantSequence([F(2, 3)]), 2: CumulantSequence([F(-5, 7)])}
    assert word_moment((1, 2) * 1000, fam) == (F(2, 3) * F(-5, 7)) ** 1000


def test_word_moment_order_shortfall():
    fam = {1: CumulantSequence([F(1), F(1)])}
    with pytest.raises(OrderShortfallError):
        word_moment((1, 1, 1), fam)
    # the leftmost run that is too long is the one reported
    fam[2] = CumulantSequence([F(1)])
    with pytest.raises(OrderShortfallError, match="variable 2 repeats 2 times"):
        word_moment((1, 2, 2, 1, 1, 1), fam)


def test_element_cumulants_identity_variable():
    rng = random.Random(13)
    seq = random_sequence(rng, 6)
    fam = {1: seq}
    got = element_cumulants(NCPolynomial.variable(1), fam, 6)
    assert got.values == seq.values


def test_element_cumulants_antidiagonal_pair():
    fam = constant_family(CumulantSequence([F(1), F(1), F(0), F(0)]), 2)
    poly = NCPolynomial.variable(1) * NCPolynomial.variable(2) + NCPolynomial.variable(
        2
    ) * NCPolynomial.variable(1)
    got = element_cumulants(poly, fam, 2)
    assert got.values == (F(2), F(2))


def test_element_cumulants_poisson_square():
    for lam, alpha in [(F(1), F(1)), (F(2), F(1, 2)), (F(3, 4), F(5, 3))]:
        seq = poisson_sequence(lam, alpha, 12)
        fam = {1: seq}
        sq = NCPolynomial.variable(1) * NCPolynomial.variable(1)
        got = element_cumulants(sq, fam, 6)
        for r in range(1, 7):
            assert got.values[r - 1] == alpha ** (2 * r) * lam * (lam + 1) ** r


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=12
    )
)
def test_moment_cumulant_round_trip_property(values):
    # the same list read as cumulants and as moments, converted both ways
    order = len(values)
    moments = moments_from_cumulants(CumulantSequence(values), order)
    assert cumulants_from_moments(moments).values == tuple(values)
    kappa = cumulants_from_moments(values)
    assert moments_from_cumulants(kappa, order) == values


def test_element_cumulants_cap():
    fam = constant_family(CumulantSequence([F(1)] * 8), 3)
    big = (
        NCPolynomial.variable(1)
        + NCPolynomial.variable(2)
        + NCPolynomial.variable(3)
    )
    with pytest.raises(ExpansionCapError) as err:
        element_cumulants(big, fam, 8, term_cap=10)
    assert "10" in str(err.value)
    # the count is taken before cancelled words are dropped: the square of
    # x + xy - yx has 8 distinct words, 7 of them nonzero (x.yx = xy.x)
    x, y = NCPolynomial.variable(1), NCPolynomial.variable(2)
    p = x + x * y - y * x
    assert len((p * p).terms) == 7
    assert element_cumulants(p, fam, 2, term_cap=8).values == (F(1), F(-1))
    with pytest.raises(ExpansionCapError, match="power 2 expansion passed the cap of 7"):
        element_cumulants(p, fam, 2, term_cap=7)


def per_word_element_cumulants(poly, family, order, term_cap):
    """element_cumulants with every word moment taken by word_moment on its
    own and the cap met only while expanding: the oracle of the suffix memo
    and of the up-front cap."""

    def moment(words):
        return sum((c * word_moment(w, family) for w, c in words.items()), F(0))

    moments = []
    current = {(): F(1)}
    for power in range(1, order + 1):
        nxt = {}
        for w1, c1 in current.items():
            for c2, w2 in poly.terms:
                w = w1 + w2
                if w not in nxt and len(nxt) >= term_cap:
                    raise ExpansionCapError(
                        f"power {power} expansion passed the cap of {term_cap} terms"
                    )
                nxt[w] = nxt.get(w, F(0)) + c1 * c2
        if power > 1:
            moments.append(moment(current))
        current = {w: c for w, c in nxt.items() if c}
    moments.append(moment(current))
    return cumulants_from_moments(moments, order)


def _outcome(route, *args):
    try:
        return route(*args).values
    except DomainError as exc:
        return type(exc), str(exc)


# letter 4 never has a sequence and letter 3 not always; short sequences,
# repeated letters and coefficients that cancel occur often
WORD_LETTERS = st.sampled_from([1, 1, 2, 2, 3, 4])
TERM_COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-3, 2)])


@st.composite
def oracle_inputs(draw):
    if draw(st.booleans()):  # every term one length, as in a quadratic form
        length = draw(st.integers(min_value=0, max_value=3))
        words = st.lists(WORD_LETTERS, min_size=length, max_size=length)
    else:
        words = st.lists(WORD_LETTERS, max_size=3)
    poly = NCPolynomial(draw(st.lists(st.tuples(TERM_COEFFS, words), max_size=4)))
    values = st.sampled_from([F(0), F(1), F(-2), F(1, 3)])
    family = {
        v: CumulantSequence(draw(st.lists(values, min_size=1, max_size=4)))
        for v in (1, 2, 3)
        if v < 3 or draw(st.booleans())
    }
    order = draw(st.integers(min_value=1, max_value=4))
    term_cap = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 30, DEFAULT_TERM_CAP]))
    return poly, family, order, term_cap


ONE_TWO = NCPolynomial([(1, (1,)), (1, (2,))])
ONES = {v: CumulantSequence([F(1)] * 4) for v in (1, 2)}


@settings(max_examples=150, deadline=None)
@given(oracle_inputs())
# power 3 passes the cap, but power 1's word moments fail first: a letter
# with no sequence, a run past its sequence
@example((NCPolynomial([(1, (1,)), (1, (4,))]), ONES, 3, 5))
@example((NCPolynomial([(1, (1, 1)), (2, (1, 2))]), {1: CumulantSequence([1])}, 3, 5))
# the up-front cap: the same power and text as while expanding
@example((ONE_TWO, ONES, 3, 5))
@example((ONE_TWO, ONES, 4, 8))
def test_element_cumulants_matches_per_word_oracle_property(case):
    # the same values, or the same exception type and text, as word_moment
    # word by word with the cap met while expanding
    want = _outcome(per_word_element_cumulants, *case)
    assert _outcome(element_cumulants, *case) == want


def test_mixed_cumulant_examples():
    rng = random.Random(17)
    fam = {i: random_sequence(rng, 8) for i in (1, 2)}
    x = NCPolynomial.variable(1)
    y = NCPolynomial.variable(2)
    one = NCPolynomial.scalar(F(1))

    expect = word_moment((1, 2), fam) - word_moment((1,), fam) * word_moment(
        (2,), fam
    )
    assert mixed_cumulant([x, y], fam) == expect
    assert mixed_cumulant([x, one, y], fam) == mixed_cumulant([x, y], fam)
    assert mixed_cumulant([one, y], fam) == 0
    assert mixed_cumulant([x, one], fam) == 0


def test_mixed_cumulant_diagonal_is_univariate():
    rng = random.Random(19)
    seq = random_sequence(rng, 5)
    fam = {1: seq}
    x = NCPolynomial.variable(1)
    for n in range(1, 6):
        assert mixed_cumulant([x] * n, fam) == seq.k(n)


def lattice_mixed_cumulant(args, family):
    """Independent oracle: the signed sum over interval partitions that
    inverts the moment formula,
    K_n = sum_pi (-1)^(#pi - 1) prod_{blocks B} phi(prod_{i in B} P_i)."""
    total = F(0)
    for pi in enumerate_interval(len(args)):
        prod = F(1)
        for block in pi.blocks():
            poly = NCPolynomial.scalar(1)
            for i in block:
                poly = poly * args[i - 1]
            prod *= polynomial_moment(poly, family)
        total += (-1) ** (pi.num_blocks - 1) * prod
    return total


def lattice_product_cumulant(grouping, word, family):
    """Independent oracle: the lattice product formula, the sum of K_pi
    over the interval partitions pi whose join with the grouping is the
    one-block partition, K_pi vanishing unless each block holds one letter.
    A letter without a sequence raises DomainError, and so does the first
    K_n read past a sequence."""
    for v in set(word):
        if v not in family:
            raise DomainError(f"no cumulant sequence for variable {v}")
    rho_cuts = set(itertools.accumulate(grouping[:-1]))
    total = F(0)
    for pi in enumerate_interval(len(word)):
        if pi.cuts & rho_cuts:
            continue  # join with the grouping is not the one-block partition
        prod = F(1)
        for block in pi.blocks():
            if len({word[p - 1] for p in block}) > 1:
                prod = F(0)
                break
            prod *= family[word[block[0] - 1]].k(len(block))
        total += prod
    return total


SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    nvars=st.integers(min_value=1, max_value=3),
    nargs=st.integers(min_value=1, max_value=6),
)
def test_mixed_cumulant_matches_lattice_sum_property(data, nvars, nargs):
    # words of at most two letters, so no product of the arguments is
    # longer than 12 letters and every run stays within the sequences
    values = st.lists(SMALL_FRACTIONS, min_size=12, max_size=12)
    family = {v: CumulantSequence(data.draw(values)) for v in range(1, nvars + 1)}
    words = st.lists(st.integers(min_value=1, max_value=nvars), max_size=2)
    terms = st.lists(st.tuples(SMALL_FRACTIONS, words), min_size=1, max_size=2)
    args = data.draw(st.lists(terms.map(NCPolynomial), min_size=nargs, max_size=nargs))
    assert mixed_cumulant(args, family) == lattice_mixed_cumulant(args, family)


# one preset of each kind, each with the 8 cumulants a run of 4 two-letter
# words can reach
PRESET_FAMILIES = [
    constant_family(parse_distribution(preset, 8), 2)
    for preset in (
        "gaussian:c=1/2,v=2",
        "poisson:lambda=3/2,alpha=2/3",
        "evenpoisson:odd=1/3,-1",
        "custom:1,-1/2,2,1/3,-1,3/2,0,2",
    )
]


@settings(max_examples=100, deadline=None)
@given(
    terms=st.lists(
        st.tuples(SMALL_FRACTIONS, st.lists(st.sampled_from([1, 2]), max_size=2)),
        max_size=3,
    ),
    m=st.integers(min_value=1, max_value=4),
    family=st.sampled_from(PRESET_FAMILIES),
)
def test_mixed_cumulant_of_equal_arguments_is_the_element_cumulant_property(
    terms, m, family
):
    # multilinearity: K_m(P, ..., P) is the m-th cumulant of P itself
    poly = NCPolynomial(terms)
    assert mixed_cumulant([poly] * m, family) == element_cumulants(poly, family, m).k(m)


def test_mixed_cumulant_meets_the_expansion_cap():
    # (X_1 + ... + X_12)^5 has 12^5 = 248 832 words, past the cap; the
    # error comes while the fifth product is expanded, before its moments
    total = NCPolynomial([(1, (v,)) for v in range(1, 13)])
    family = constant_family(CumulantSequence([F(1)] * 5), 12)
    start = time.perf_counter()
    with pytest.raises(
        ExpansionCapError,
        match=f"^the product of arguments 1 to 5 passed the cap of {DEFAULT_TERM_CAP} terms$",
    ):
        mixed_cumulant([total] * 5, family)
    assert time.perf_counter() - start < 1
    # three factors stay under the cap; Boolean cumulants of an independent
    # sum add, so K_3 of the sum is 12 times K_3 = 1
    assert mixed_cumulant([total] * 3, family) == 12


def test_product_cumulant_single_group():
    # one group means the first cumulant of the whole product, which is the
    # word moment (every partition joins with the one-block grouping to top)
    rng = random.Random(21)
    fam = {i: random_sequence(rng, 6) for i in (1, 2)}
    word = (1, 2, 1)
    product = (
        NCPolynomial.variable(1) * NCPolynomial.variable(2) * NCPolynomial.variable(1)
    )
    assert product_cumulant((3,), word, fam) == word_moment(word, fam)
    assert product_cumulant((3,), word, fam) == mixed_cumulant([product], fam)


def test_product_cumulant_all_singleton_grouping():
    # letterwise grouping reproduces the plain mixed cumulant of the letters
    rng = random.Random(22)
    for _ in range(10):
        fam = {i: random_sequence(rng, 5) for i in (1, 2)}
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 5)))
        args = [NCPolynomial.variable(i) for i in word]
        got = product_cumulant((1,) * len(word), word, fam)
        assert got == mixed_cumulant(args, fam)


def test_product_cumulant_pairs_vs_mixed():
    rng = random.Random(23)
    for _ in range(20):
        fam = {i: random_sequence(rng, 8) for i in (1, 2, 3)}
        word = tuple(rng.randint(1, 3) for _ in range(4))
        grouped = [
            NCPolynomial.variable(word[0]) * NCPolynomial.variable(word[1]),
            NCPolynomial.variable(word[2]) * NCPolynomial.variable(word[3]),
        ]
        assert product_cumulant((2, 2), word, fam) == mixed_cumulant(grouped, fam)
        pair_then_one = [
            NCPolynomial.variable(word[0]) * NCPolynomial.variable(word[1]),
            NCPolynomial.variable(word[2]),
        ]
        assert product_cumulant((2, 1), word[:3], fam) == mixed_cumulant(
            pair_then_one, fam
        )


def test_product_cumulant_longer_words():
    rng = random.Random(29)
    for _ in range(6):
        fam = {i: random_sequence(rng, 8) for i in (1, 2)}
        word = tuple(rng.randint(1, 2) for _ in range(6))
        grouped = [
            NCPolynomial.variable(word[0])
            * NCPolynomial.variable(word[1])
            * NCPolynomial.variable(word[2]),
            NCPolynomial.variable(word[3]),
            NCPolynomial.variable(word[4]) * NCPolynomial.variable(word[5]),
        ]
        assert product_cumulant((3, 1, 2), word, fam) == mixed_cumulant(grouped, fam)


@st.composite
def product_inputs(draw):
    # at most three letters, each with a sequence 1 to 9 long or, now and
    # then, none; runs past a sequence and groups of every size occur often
    word = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=9))
    grouping, left = [], len(word)
    while left:
        grouping.append(draw(st.integers(min_value=1, max_value=left)))
        left -= grouping[-1]
    values = st.lists(SMALL_FRACTIONS, min_size=1, max_size=9)
    family = {
        v: CumulantSequence(draw(values))
        for v in (1, 2, 3)
        if draw(st.integers(min_value=0, max_value=9))
    }
    return grouping, word, family


def _value_or_class(route, *args):
    try:
        return route(*args)
    except DomainError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(product_inputs())
# the one block the grouping allows spans its cut and passes the sequence;
# a K_1 of zero before a run past its sequence still refuses
@example(([1, 1], (1, 1), {1: CumulantSequence([F(2)])}))
@example(([2, 1], (1, 2, 2), {1: CumulantSequence([F(0)]), 2: CumulantSequence([F(1)])}))
def test_product_cumulant_matches_lattice_sum_property(case):
    # the same value, or the same exception class, as the lattice sum
    want = _value_or_class(lattice_product_cumulant, *case)
    assert _value_or_class(product_cumulant, *case) == want


def test_computing_routes_never_enumerate_partitions(monkeypatch):
    # product_cumulant and kagan_closed_form are polynomial; only the
    # partition listing and the oracles enumerate
    def refuse(n):
        raise RuntimeError(f"enumerated {2 ** (n - 1)} partitions")

    for module in [m for name, m in sys.modules.items() if name.startswith("bqf")]:
        if hasattr(module, "enumerate_interval"):
            monkeypatch.setattr(module, "enumerate_interval", refuse)
    rng = random.Random(31)
    fam = {i: random_sequence(rng, 24) for i in (1, 2)}
    word = tuple(rng.randint(1, 2) for _ in range(24))
    letters = [NCPolynomial.variable(v) for v in word]
    assert product_cumulant((1,) * 24, word, fam) == mixed_cumulant(letters, fam)
    assert product_cumulant((24,), word, fam) == word_moment(word, fam)
    sv = ShiftVector((3, 4, 0))
    standard_normal = constant_family(gaussian_sequence(0, 1, 80), 3)
    assert kagan_closed_form(sv.s, 40) == shifted_sos_cumulant(sv, standard_normal, 40)


def test_grouping_must_cover_word():
    fam = constant_family(CumulantSequence([F(1), F(1)]), 2)
    with pytest.raises(DomainError):
        product_cumulant((2, 2), (1, 2, 1), fam)


def test_shifted_cumulants_rules():
    rng = random.Random(31)
    seq = random_sequence(rng, 8)
    a = F(5, 3)
    shifted = shifted_cumulants(seq, a, 8)
    assert shifted.values[0] == seq.k(1) + a
    assert shifted.values[1] == seq.k(2)
    assert shifted.values[2] == seq.k(3) + a * seq.k(2)
    assert shifted_cumulants(seq, F(0), 8).values == seq.values


def test_shifted_cumulants_match_oracle():
    rng = random.Random(37)
    for _ in range(8):
        seq = random_sequence(rng, 8)
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        fam = {1: seq}
        poly = NCPolynomial.variable(1) + NCPolynomial.scalar(a)
        via_oracle = element_cumulants(poly, fam, 8)
        assert shifted_cumulants(seq, a, 8).values == via_oracle.values


def test_h_additivity_of_independent_sum():
    # cumulants of a sum of Boolean-independent variables add componentwise
    rng = random.Random(41)
    for _ in range(10):
        s1 = random_sequence(rng, 8)
        s2 = random_sequence(rng, 8)
        fam = {1: s1, 2: s2}
        total = element_cumulants(
            NCPolynomial.variable(1) + NCPolynomial.variable(2), fam, 8
        )
        assert total.values == tuple(s1.k(i) + s2.k(i) for i in range(1, 9))


def test_presets():
    g = gaussian_sequence(F(3), F(2), 5)
    assert g.values == (F(3), F(2), F(0), F(0), F(0))
    p = poisson_sequence(F(2), F(1, 2), 4)
    assert p.values == tuple(F(2) * F(1, 2) ** n for n in range(1, 5))
    e = even_poisson_sequence([F(7), F(-1)], 6)
    assert e.values == (F(7), F(1), F(-1), F(1), F(0), F(1))
    c = custom_sequence([F(1), F(2)])
    assert c.values == (F(1), F(2))


def test_parse_distribution():
    assert parse_distribution("gaussian:c=1,v=2", 4).values == (
        F(1),
        F(2),
        F(0),
        F(0),
    )
    assert parse_distribution("poisson:lambda=3,alpha=1/2", 3).values == (
        F(3, 2),
        F(3, 4),
        F(3, 8),
    )
    assert parse_distribution("evenpoisson:odd=1/3", 4).values == (
        F(1, 3),
        F(1),
        F(0),
        F(1),
    )
    assert parse_distribution("custom:4,9/4,0", 3).values == (F(4), F(9, 4), F(0))
    with pytest.raises(DomainError):
        parse_distribution("nope:1", 3)
    with pytest.raises(DomainError):
        parse_distribution("gaussian:c=1", 3)


def test_parse_distribution_rejects_a_repeated_parameter():
    # the last value would otherwise win silently
    for text, key in [
        ("poisson:lambda=1,alpha=1,alpha=2", "alpha"),
        ("gaussian:c=1,v=2,c=5", "c"),
        ("gaussian:c=1,c=1,v=2", "c"),
    ]:
        with pytest.raises(DomainError, match=f"'{key}' is given more than once"):
            parse_distribution(text, 3)


def test_polynomial_algebra():
    x = NCPolynomial.variable(1)
    y = NCPolynomial.variable(2)
    assert (x * y).terms != (y * x).terms
    assert x + (-1) * x == NCPolynomial.scalar(0)
    left = (x + y) * (x - y)
    assert left == x * x - x * y + y * x - y * y
    with pytest.raises(DomainError):
        NCPolynomial([(F(1), (0,))])

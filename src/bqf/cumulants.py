"""Boolean cumulant calculus over exact rationals.

Only the one-block interval partition has no cut, so peeling the first
block of the moment formula gives one recursion,

    phi(P_1 ... P_j) = sum_{k=1..j} K_k(P_1, ..., P_k) phi(P_{k+1} ... P_j).

For one variable it is the convolution m_n = sum_k K_k m_{n-k}, which
moments_from_cumulants runs forward.  One prefix solve, _prefix_cumulants,
reads it for the cumulants (cumulants_from_moments, mixed_cumulant), one
evaluator, _word_moments, for the word moments of an independent family
(word_moment, polynomial_moment), and one capped expansion, _running_moments,
for the moments of polynomial products (element_cumulants, mixed_cumulant).
Grouped product cumulants, the scalar shift rule and the cumulant presets
the command line accepts live here too.
"""

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, ExpansionCapError, OrderShortfallError, checked_make
from .rationals import parse_rational, parse_rational_list

DEFAULT_TERM_CAP = 200_000


class CumulantSequence(namedtuple("CumulantSequence", "values")):
    """Cumulants K_1..K_R of one variable, truncated at order R.

    values holds Fractions: each value is converted once, here, so that
    readers such as the quadratic-form engine can take its numerator and
    denominator directly.  Reads beyond R raise OrderShortfallError;
    truncation is a hard boundary, not an implicit zero-fill.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, values):
        vals = tuple(map(Fraction, values))
        if not vals:
            raise DomainError("a cumulant sequence needs at least order 1")
        return super().__new__(cls, vals)

    @property
    def order(self) -> int:
        return len(self.values)

    def k(self, n: int):
        if n < 1:
            raise DomainError(f"cumulant order must be positive, got {n}")
        if n > self.order:
            raise OrderShortfallError(
                f"cumulant K_{n} requested but the sequence stops at order {self.order}"
            )
        return self.values[n - 1]


class NCPolynomial(namedtuple("NCPolynomial", "terms")):
    """A polynomial in non-commuting variables X_1, X_2, ...

    Terms are (coefficient, word) pairs, a word being a tuple of variable
    indices; the empty word is the scalar unit.  Terms are kept sorted by
    (length, word) with zero coefficients dropped, so equal polynomials
    compare equal.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, terms):
        merged = {}
        for coeff, word in terms:
            word = tuple(int(v) for v in word)
            if any(v < 1 for v in word):
                raise DomainError(f"variable indices start at 1, got word {word}")
            merged[word] = merged.get(word, Fraction(0)) + Fraction(coeff)
        cleaned = tuple(
            (merged[w], w) for w in sorted(merged, key=lambda w: (len(w), w)) if merged[w]
        )
        return super().__new__(cls, cleaned)

    @classmethod
    def variable(cls, index: int) -> "NCPolynomial":
        return cls([(Fraction(1), (index,))])

    @classmethod
    def scalar(cls, value) -> "NCPolynomial":
        return cls([(Fraction(value), ())])

    def __add__(self, other):
        other = _coerce_poly(other)
        return NCPolynomial(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial([(-c, w) for c, w in self.terms])

    def __sub__(self, other):
        return self + (-_coerce_poly(other))

    def __mul__(self, other):
        other = _coerce_poly(other)
        prods = []
        for c1, w1 in self.terms:
            for c2, w2 in other.terms:
                prods.append((c1 * c2, w1 + w2))
        return NCPolynomial(prods)

    def __rmul__(self, other):
        return _coerce_poly(other) * self


def _coerce_poly(value) -> NCPolynomial:
    if isinstance(value, NCPolynomial):
        return value
    return NCPolynomial.scalar(value)


def moments_from_cumulants(seq: CumulantSequence, n_max: int) -> list:
    """Moments m_1..m_n_max from cumulants, by the convolution recursion."""
    if n_max < 1:
        raise DomainError(f"moment order must be positive, got {n_max}")
    if n_max > seq.order:
        raise OrderShortfallError(
            f"moments to order {n_max} need cumulants to order {n_max}, have {seq.order}"
        )
    moments = [Fraction(1)]  # m_0
    for n in range(1, n_max + 1):
        moments.append(sum(seq.k(k) * moments[n - k] for k in range(1, n + 1)))
    return moments[1:]


def _prefix_cumulants(phi, n: int) -> list:
    """K_1..K_n from phi(i, j), the moment of the segment i + 1..j, solving
    phi(0, j) = K_j + sum_{k<j} K_k phi(k, j) for K_1, ..., K_n in turn."""
    kappa = []
    for j in range(1, n + 1):
        kappa.append(phi(0, j) - sum(kappa[k - 1] * phi(k, j) for k in range(1, j)))
    return kappa


def cumulants_from_moments(moments, n_max: int | None = None) -> CumulantSequence:
    """Cumulants K_1..K_n_max from moments m_1..., inverting the recursion."""
    moments = list(moments)
    if n_max is None:
        n_max = len(moments)
    if n_max < 1:
        raise DomainError(f"cumulant order must be positive, got {n_max}")
    if n_max > len(moments):
        raise DomainError(
            f"cumulants to order {n_max} need moments to order {n_max}, got {len(moments)}"
        )
    return CumulantSequence(_prefix_cumulants(lambda i, j: moments[j - i - 1], n_max))


def _refuse_word(word, family):
    """Raise word_moment's error for a word it cannot evaluate: a variable
    without a sequence, else the leftmost run longer than its sequence."""
    for v in set(word):
        if v not in family:
            raise DomainError(f"no cumulant sequence for variable {v}")
    for v, group in itertools.groupby(word):
        run = sum(1 for _ in group)
        if run > family[v].order:
            raise OrderShortfallError(
                f"variable {v} repeats {run} times in a row but its "
                f"sequence stops at order {family[v].order}"
            )


def _word_moments(family):
    """phi(word), the joint moment of a word in the independent family.

    Only blocks with one variable count, so with run(s) the length of the
    run of w_s from s, phi(w_{s:}) = sum_{k=1..run(s)} K_k(X_{w_s})
    phi(w_{s+k:}).  The values are kept by suffix for the life of phi, in
    a trie read from the end of the word: each word is walked back through
    its longest suffix already known, and only the positions before it are
    filled.
    """
    child = {}  # (node of w_{s+1:}, w_s) -> node of w_{s:}; node 0 is ()
    value = [Fraction(1)]  # phi of each node's suffix

    def phi(word):
        m = len(word)
        at = [0] * (m + 1)  # at[s]: the node of w_{s:}
        run = 0
        for t in reversed(range(m)):
            v = word[t]
            run = run + 1 if t + 1 < m and word[t + 1] == v else 1
            key = (at[t + 1], v)
            node = child.get(key)
            if node is None:
                if v not in family or run > family[v].order:
                    _refuse_word(word, family)
                ks = family[v].values
                node = child[key] = len(value)
                value.append(sum(ks[k - 1] * value[at[t + k]] for k in range(1, run + 1)))
            at[t] = node
        return value[at[0]]

    return phi


def word_moment(word, family) -> Fraction:
    """Joint moment of X_{w_1} X_{w_2} ... X_{w_m} for an independent family
    (variable index -> CumulantSequence): the interval-partition sum."""
    return _word_moments(family)(tuple(word))


def polynomial_moment(poly: NCPolynomial, family) -> Fraction:
    """Expectation of a polynomial: coefficient-weighted word moments."""
    phi = _word_moments(family)
    return sum((c * phi(w) for c, w in poly.terms), Fraction(0))


def _running_moments(factors, phi, term_cap, cap_passed) -> list:
    """phi of the running products F_1, F_1 F_2, ..., F_1 ... F_m of factors
    given as (coefficient, word) terms, expanded word by word.

    Each product is capped at term_cap distinct words, counted while it is
    built and before words whose coefficients cancel to zero are dropped;
    the first word past the cap of product k raises cap_passed(k).  Product
    k + 1 is expanded before the word moments of product k are evaluated,
    so runaway inputs fail before they pay for them.
    """
    # integral coefficients multiply as ints, several times faster than as Fractions
    factors = [[(c.numerator if c.denominator == 1 else c, w) for c, w in f] for f in factors]
    moments = []
    current = {(): 1}
    for k, terms in enumerate([*factors, ()], 1):  # the last pass evaluates F_1...F_m
        nxt = {}
        for w1, c1 in current.items():
            for c2, w2 in terms:
                w = w1 + w2
                acc = nxt.get(w)
                if acc is not None:
                    nxt[w] = acc + c1 * c2
                elif len(nxt) < term_cap:
                    nxt[w] = c1 * c2
                else:
                    raise cap_passed(k)
        if k > 1:
            moments.append(sum((c * phi(w) for w, c in current.items()), Fraction(0)))
        current = {w: c for w, c in nxt.items() if c}
    return moments


def element_cumulants(
    poly: NCPolynomial, family, order: int, term_cap: int = DEFAULT_TERM_CAP
) -> CumulantSequence:
    """Cumulants K_1..K_order of a polynomial element, from the moments of
    its running powers, each capped at term_cap distinct words.

    When all t terms have one length L, power m holds exactly t^m distinct
    words and none cancels, so the cap's ExpansionCapError is raised before
    any expansion once the family shows that no word moment below that
    power can fail first.  A word that word_moment refuses raises its error.
    """
    if order < 1:
        raise DomainError(f"cumulant order must be positive, got {order}")
    base = poly.terms

    def cap_passed(power):
        return ExpansionCapError(f"power {power} expansion passed the cap of {term_cap} terms")

    if len({len(w) for _, w in base}) == 1:
        length = len(base[0][1])
        power = next((m for m in range(1, order + 1) if len(base) ** m > term_cap), None)
        if power is not None and all(
            v in family and family[v].order >= length * power
            for _, w in base
            for v in w
        ):
            raise cap_passed(power)
    moments = _running_moments([base] * order, _word_moments(family), term_cap, cap_passed)
    return cumulants_from_moments(moments, order)


def mixed_cumulant(args, family) -> Fraction:
    """The multilinear cumulant K_n(P_1, ..., P_n) of polynomial or scalar
    arguments, by the prefix solve over the moments of the sub-products
    P_{i+1} ... P_j: the running products of each suffix, capped at
    DEFAULT_TERM_CAP words, with one word-moment evaluator for them all."""
    n = len(args)
    if n < 1:
        raise DomainError("mixed cumulant needs at least one argument")
    terms = [a.terms if isinstance(a, NCPolynomial) else ((Fraction(a), ()),) for a in args]
    phi = _word_moments(family)

    def cap_passed(i):
        return lambda k: ExpansionCapError(
            f"the product of arguments {i + 1} to {i + k} passed the cap of "
            f"{DEFAULT_TERM_CAP} terms"
        )

    seg = [
        _running_moments(terms[i:], phi, DEFAULT_TERM_CAP, cap_passed(i)) for i in range(n)
    ]
    return _prefix_cumulants(lambda i, j: seg[i][j - i - 1], n)[-1]


def product_cumulant(grouping, word, family) -> Fraction:
    """Cumulant of grouped products of single variables.

    grouping lists consecutive group sizes over the word, so a word
    (w_1, ..., w_m) with grouping (g_1, ..., g_p) means the cumulant
    K_p(Y_1, ..., Y_p) with each Y_j a product of the next g_j variables.
    The lattice product formula sums K_pi over the interval partitions pi
    that cut nowhere the grouping cuts, K_pi being the product of K_len
    over the blocks if each block holds one letter and zero otherwise.
    The sum runs as a DP over block ends, which fall at the word's end or
    where the grouping does not cut.  It reads K only from ends reached
    through one-letter blocks, so it refuses a run longer than its
    sequence exactly when a partition of the sum reads one.
    """
    word = tuple(word)
    grouping = tuple(int(g) for g in grouping)
    m = len(word)
    if m < 1:
        raise DomainError("empty word")
    if any(g < 1 for g in grouping):
        raise DomainError(f"group sizes must be positive, got {grouping}")
    if sum(grouping) != m:
        raise DomainError(
            f"grouping covers {sum(grouping)} positions but the word has {m}"
        )
    for v in set(word):
        if v not in family:
            raise DomainError(f"no cumulant sequence for variable {v}")
    rho_cuts = set(itertools.accumulate(grouping[:-1]))
    reached = {0: Fraction(1)}  # block end -> sum over the blocks before it
    for i in range(m):
        if i in reached:
            seq, j = family[word[i]], i
            while j < m and word[j] == word[i]:
                j += 1
                if j == m or j not in rho_cuts:
                    reached[j] = reached.get(j, 0) + reached[i] * seq.k(j - i)
    return reached.get(m, Fraction(0))


def shifted_cumulants(seq: CumulantSequence, shift, order: int) -> CumulantSequence:
    """Cumulants of X + a*1 from those of X.

    Adding a scalar is not a convolution in this calculus; the shift feeds
    every order at and above two:

        K_1(X+a) = K_1(X) + a
        K_m(X+a) = sum_{i=0..m-2} C(m-2, i) a^i K_{m-i}(X),  m >= 2.
    """
    a = Fraction(shift)
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if order > seq.order:
        raise OrderShortfallError(
            f"shift to order {order} needs cumulants to order {order}, have {seq.order}"
        )
    out = [seq.k(1) + a]
    for m in range(2, order + 1):
        out.append(
            sum(
                math.comb(m - 2, i) * a**i * seq.k(m - i)
                for i in range(0, m - 1)
            )
        )
    return CumulantSequence(out)


def gaussian_sequence(mean, variance, order: int) -> CumulantSequence:
    """K_1 = mean, K_2 = variance, all higher cumulants zero."""
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    vals = [Fraction(mean)]
    if order >= 2:
        vals.append(Fraction(variance))
        vals.extend([Fraction(0)] * (order - 2))
    return CumulantSequence(vals)


def poisson_sequence(rate, jump, order: int) -> CumulantSequence:
    """K_n = jump^n * rate for every n."""
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    lam = Fraction(rate)
    alpha = Fraction(jump)
    return CumulantSequence([alpha**n * lam for n in range(1, order + 1)])


def even_poisson_sequence(odd_values, order: int) -> CumulantSequence:
    """All even cumulants equal 1; odd cumulants come from the given list.

    Odd orders beyond the list default to zero.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    odds = [Fraction(v) for v in odd_values] + [Fraction(0)] * order
    return CumulantSequence(
        [odds[(n - 1) // 2] if n % 2 else Fraction(1) for n in range(1, order + 1)]
    )


def custom_sequence(values) -> CumulantSequence:
    return CumulantSequence(values)


def _parse_kv(body: str, keys) -> dict:
    out = {}
    for piece in body.split(","):
        piece = piece.strip()
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq or key not in keys:
            raise DomainError(f"bad preset parameter {piece!r}, expected one of {sorted(keys)}")
        if key in out:
            raise DomainError(f"preset parameter {key!r} is given more than once")
        out[key] = parse_rational(val)
    missing = set(keys) - set(out)
    if missing:
        raise DomainError(f"preset is missing parameters {sorted(missing)}")
    return out


def parse_distribution(text: str, order: int) -> CumulantSequence:
    """Build a cumulant sequence from a preset string.

    Accepted forms:
        gaussian:c=<rat>,v=<rat>
        poisson:lambda=<rat>,alpha=<rat>
        evenpoisson:odd=<rat-list>
        custom:<rat-list>
    custom ignores the requested order and keeps exactly the listed values.
    """
    kind, sep, body = str(text).partition(":")
    kind = kind.strip()
    if not sep:
        raise DomainError(f"preset {text!r} has no parameters")
    if kind == "gaussian":
        params = _parse_kv(body, {"c", "v"})
        return gaussian_sequence(params["c"], params["v"], order)
    if kind == "poisson":
        params = _parse_kv(body, {"lambda", "alpha"})
        return poisson_sequence(params["lambda"], params["alpha"], order)
    if kind == "evenpoisson":
        key, eq, val = body.partition("=")
        if key.strip() != "odd" or not eq:
            raise DomainError(f"evenpoisson takes odd=<rat-list>, got {body!r}")
        return even_poisson_sequence(parse_rational_list(val), order)
    if kind == "custom":
        return custom_sequence(parse_rational_list(body))
    raise DomainError(f"unknown distribution preset {kind!r}")


def constant_family(seq: CumulantSequence, n: int) -> dict:
    """A family of n variables sharing one cumulant sequence (indices 1..n)."""
    if n < 1:
        raise DomainError(f"family size must be positive, got {n}")
    return {i: seq for i in range(1, n + 1)}

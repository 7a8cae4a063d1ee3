"""The value types of every layer: equal inputs give equal, equally hashed
objects, no field can be reassigned, and a copy through pickle is equal."""

import pickle
from fractions import Fraction as F

import pytest

from bqf import cumulants, matrices, measure, oracles, partitions, series, stats
from bqf.cumulants import CumulantSequence, NCPolynomial
from bqf.errors import DomainError, HermitianError
from bqf.matrices import (
    HermitianMatrix,
    IndependenceResult,
    QFCumulantReport,
    ZeroSumReport,
    build_special,
    independence_check,
    qf_cumulant_iid,
    zero_sum_checks,
)
from bqf.measure import AtomicMeasure, ApproxResult, ConvergenceRow, MomentRow
from bqf.oracles import GaussianRational, RationalPolynomial
from bqf.partitions import IntervalPartition
from bqf.series import FormalSeries
from bqf.stats import LinearFormSpec, ShiftVector

IMAG = GaussianRational(0, 1)

# one builder per type, each called twice on equal inputs
BUILDERS = {
    IntervalPartition: lambda: IntervalPartition(5, [3, 1]),
    CumulantSequence: lambda: CumulantSequence([1, F(1, 2), 0]),
    NCPolynomial: lambda: NCPolynomial([(2, (1, 2)), (F(1, 3), ()), (-1, (1, 2))]),
    FormalSeries: lambda: FormalSeries([0, 1, F(-1, 3)]),
    RationalPolynomial: lambda: RationalPolynomial([1, 2, 0, 0]),
    GaussianRational: lambda: GaussianRational(F(1, 2), -3),
    HermitianMatrix: lambda: HermitianMatrix([[F(1, 2), IMAG], [-IMAG, 2]]),
    ZeroSumReport: lambda: zero_sum_checks(build_special("B", 3)),
    QFCumulantReport: lambda: qf_cumulant_iid(
        build_special("P", 2), CumulantSequence([1, 2, 3, 4]), 2
    ),
    IndependenceResult: lambda: independence_check(
        HermitianMatrix([[1, 0], [0, 0]]), HermitianMatrix([[0, 0], [0, 1]])
    ),
    LinearFormSpec: lambda: LinearFormSpec([1, F(-1, 2), F(-1, 2)]),
    ShiftVector: lambda: ShiftVector([3, 4]),
    AtomicMeasure: lambda: AtomicMeasure([(-1, 0.25), (0, 0.5), (1, 0.25)]),
    MomentRow: lambda: MomentRow(2, 0.5, 0.5, 0.0),
    ConvergenceRow: lambda: ConvergenceRow(10, 2, 0.25, 0.5, 0.25),
    ApproxResult: lambda: ApproxResult("zeta", 1, 10, 1.5, 1.6, 0.0625),
}


@pytest.mark.parametrize("kind", BUILDERS, ids=lambda kind: kind.__name__)
def test_records_are_equal_hashable_and_immutable(kind):
    a, b = BUILDERS[kind](), BUILDERS[kind]()
    assert type(a) is kind and a is not b
    assert a == b and hash(a) == hash(b)
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert pickle.loads(pickle.dumps(a)) == a


def test_records_cover_every_value_type():
    # a value type added to a layer gets a builder above
    layers = (partitions, cumulants, series, matrices, stats, measure, oracles)
    kinds = {
        v
        for layer in layers
        for v in vars(layer).values()
        if isinstance(v, type) and issubclass(v, tuple) and v.__module__ == layer.__name__
    }
    assert kinds == set(BUILDERS) and len(kinds) == 16


def test_types_with_their_own_new_define_make():
    # namedtuple's own _make, and so _replace, would skip the checks of __new__
    unchecked = [kind for kind in BUILDERS if "__new__" in vars(kind) and "_make" not in vars(kind)]
    assert unchecked == []


# _make, and so _replace, runs the constructor's checks: one refused value
# per value type whose __new__ or _make checks its fields
REFUSED_REPLACEMENTS = [
    (IntervalPartition, {"cuts": (5,)}, DomainError, "cut 5 outside 1..4"),
    (CumulantSequence, {"values": ()}, DomainError, "a cumulant sequence needs at least order 1"),
    (NCPolynomial, {"terms": [(1, (0,))]}, DomainError, "variable indices start at 1, got word (0,)"),
    (FormalSeries, {"coeffs": ()}, DomainError, "a series needs at least the constant coefficient"),
    (GaussianRational, {"im": "1/0"}, ZeroDivisionError, "Fraction(1, 0)"),
    (RationalPolynomial, {"coeffs": ["x"]}, ValueError, "Invalid literal for Fraction: 'x'"),
    (HermitianMatrix, {"re": ((1, 2), (3, 1))}, HermitianError,
     "entries (1,2) and (2,1) are not conjugate"),
    (HermitianMatrix, {"den": 0}, DomainError, "den must be a positive integer, got 0"),
    (HermitianMatrix, {"re": ((1, 1), (1,))}, DomainError, "row 2 has 1 entries, expected 2"),
    (HermitianMatrix, {"im": ((0,),)}, DomainError, "im has 1 columns, expected 2"),
    (LinearFormSpec, {"weights": (1,)}, DomainError, "need at least two weights, got 1"),
    (ShiftVector, {"shifts": ()}, DomainError, "need at least one shift"),
    (AtomicMeasure, {"atoms": ((0.0, -1.0),)}, DomainError, "atom at 0.0 has nonpositive mass -1.0"),
]


@pytest.mark.parametrize(
    "kind, change, error, text",
    REFUSED_REPLACEMENTS,
    ids=[case[0].__name__ for case in REFUSED_REPLACEMENTS],
)
def test_replace_runs_the_constructor_checks(kind, change, error, text):
    with pytest.raises(error) as exc:
        BUILDERS[kind]()._replace(**change)
    assert (type(exc.value), str(exc.value)) == (error, text)

"""The value types of every layer: equal inputs give equal, equally hashed
objects, no field can be reassigned, and a copy through pickle is equal."""

import pickle
from fractions import Fraction as F

import pytest

from bqf import cumulants, matrices, measure, partitions, series, stats
from bqf.cumulants import CumulantSequence, NCPolynomial
from bqf.matrices import (
    GaussianRational,
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
from bqf.partitions import (
    ClosureStructure,
    IntervalPartition,
    closure_structure,
)
from bqf.series import FormalSeries, RationalPolynomial
from bqf.stats import LinearFormSpec, ShiftVector

IMAG = GaussianRational(0, 1)

# one builder per type, each called twice on equal inputs
BUILDERS = {
    IntervalPartition: lambda: IntervalPartition(5, [3, 1]),
    ClosureStructure: lambda: closure_structure(IntervalPartition(4, [1])),
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
    ShiftVector: lambda: ShiftVector([3, 4], 25),
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
    layers = (partitions, cumulants, series, matrices, stats, measure)
    kinds = {
        v
        for layer in layers
        for v in vars(layer).values()
        if isinstance(v, type) and issubclass(v, tuple) and v.__module__ == layer.__name__
    }
    assert kinds == set(BUILDERS) and len(kinds) == 17

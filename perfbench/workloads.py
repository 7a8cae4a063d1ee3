"""The four workloads: seeded inputs, their references, one callable per op.

A build function runs at set-up with the real bqf modules.  It draws the inputs
from the seed, computes every reference along a route independent of the
op under test (see refs.py), writes any files, and warms the caches the
ops rely on.  It returns the op pool: a fixed grid of cells, the same for
every seed, so that cost does not swing from seed to seed; the seed draws
the matrix entries, distribution parameters and small jitters of n.

An op's ``run(ctx)`` is the only timed part.  It reaches bqf through
``ctx.lib`` (the real modules, or the tracer's proxies).  ``check`` and
``exact`` run after the clock stops: ``check`` compares with the
reference, ``exact`` renders the exact part of the answer for the digest.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import refs


@dataclass
class Op:
    cell: str
    run: Callable
    check: Callable
    exact: Callable


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _nz(rng, spread: int = 6) -> Fraction:
    """A nonzero small rational; zero entries would make cost seed-dependent."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, spread), rng.randint(1, 4))


def _hermitian(mx, rng, n: int, complex_entries: bool = True):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = mx.GaussianRational(_nz(rng), 0)
        for j in range(i + 1, n):
            e = mx.GaussianRational(_nz(rng), _nz(rng) if complex_entries else 0)
            rows[i][j] = e
            rows[j][i] = e.conjugate()
    return mx.HermitianMatrix(rows)


def _preset(kind: str, rng, r: int) -> str:
    """A preset string of the given kind, with parameters from small sets."""
    pick = rng.choice
    if kind == "gaussian":
        return f"gaussian:c={pick(['1/2', '1', '2/3', '3/2'])},v={pick(['1', '2', '1/3', '3/2'])}"
    if kind == "poisson":
        return f"poisson:lambda={pick(['1', '2', '3/2', '1/2'])},alpha={pick(['1/2', '1', '2/3', '2'])}"
    if kind == "evenpoisson":
        return "evenpoisson:odd=" + ",".join(pick(["1/3", "-1/2", "1", "2/3", "-1"]) for _ in range(2))
    return "custom:" + ",".join(pick(["1", "-1", "2", "1/2", "-1/3", "3/2"]) for _ in range(2 * r))


KINDS = ("gaussian", "poisson", "evenpoisson", "custom")


def _equal_to(ref):
    return lambda res: list(res) == ref


def _pool(name: str, seed: int, draw, draws: int, lib) -> list:
    """`draws` independent draws of a workload's cell grid, shuffled.  More
    draws per cell average out how much the seed moves the cost."""
    rng = random.Random(f"{name}:{seed}")
    ops = [op for _ in range(draws) for op in draw(rng, lib)]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ qf-engine

# (n, r, preset kind).  Gaussian presets leave one surviving partition, so
# they cover the whole n x r grid.  The other kinds keep (nearly) all 2^r
# partitions, so they stop at r = 6 for n = 4, r = 5 for n = 6 and r = 4
# for n = 8, plus one evenpoisson cell at (4, 7).  That puts the 90th
# percentile among the (4, 6) and (6, 5) cells, not between two cost steps.
QF_IID_CELLS = (
    [(n, r, "gaussian") for n in (4, 6, 8) for r in (4, 5, 6, 7)]
    + [
        (n, r, kind)
        for n, r in ((4, 4), (4, 5), (4, 6), (6, 4), (6, 5), (8, 4))
        for kind in ("poisson", "evenpoisson", "custom")
    ]
    + [(4, 7, "evenpoisson")]
)
# (n, r) for the per-variable route; one op in five.
QF_GENERAL_CELLS = ((2, 2), (2, 3), (2, 4), (2, 4), (3, 2), (3, 3), (3, 4), (3, 4))
QF_DRAWS = 2


def _qf_engine_draw(rng, lib) -> list:
    mx, cm = lib.matrices, lib.cumulants
    ops = []
    for n, r, kind in QF_IID_CELLS:
        a = _hermitian(mx, rng, n)
        seq = cm.parse_distribution(_preset(kind, rng, r), 2 * r)
        grid = refs.grid_of(a)
        ref = [refs.qf_cumulant_dp(grid, refs.iid_kvec(seq, n), k) for k in range(1, r + 1)]

        def run(ctx, a=a, seq=seq, r=r):
            qf = ctx.lib.matrices.qf_cumulant_iid
            return [qf(a, seq, k).value for k in range(1, r + 1)]

        ops.append(Op(f"iid n={n} r={r} {kind}", run, _equal_to(ref), _join))
    for idx, (n, r) in enumerate(QF_GENERAL_CELLS):
        a = _hermitian(mx, rng, n)
        family = {
            i + 1: cm.parse_distribution(_preset(KINDS[(idx + i) % 4], rng, r), 2 * r)
            for i in range(n)
        }
        grid = refs.grid_of(a)
        kvec = refs.family_kvec(family, n)
        ref = [refs.qf_cumulant_dp(grid, kvec, k) for k in range(1, r + 1)]

        def run(ctx, a=a, family=family, r=r):
            qf = ctx.lib.matrices.qf_cumulant_general
            return [qf(a, family, k) for k in range(1, r + 1)]

        ops.append(Op(f"general n={n} r={r}", run, _equal_to(ref), _join))
    return ops


def build_qf_engine(seed: int, lib, root: Path) -> list:
    return _pool("qf-engine", seed, _qf_engine_draw, QF_DRAWS, lib)


# --------------------------------------------------------------- trace-approx

APPROX_KINDS = (
    ("zeta", 0), ("zeta", 1), ("zeta", 2),
    ("tangent", 0), ("tangent", 1), ("tangent", 2),
    ("zigzag", 2), ("zigzag", 3), ("zigzag", 4), ("zigzag", 5),
)
# (n, jitter, copies) per kind: small n three times, so that the median
# falls inside the small-n costs, medium n once; three large cells up to
# n = 96 carry the n^2 grids without letting them take over.
APPROX_SIZES = ((18, 2, 3), (40, 3, 1))
APPROX_LARGE = (("zeta", 2, 64), ("zigzag", 4, 64), ("tangent", 2, 94))
# (n, r_max): square n run the exact route, the others binary64.
CONV_SQUARE = ((16, 3), (25, 2), (36, 3), (49, 2))
CONV_OTHER = ((20, 3), (30, 2), (50, 3), (60, 2))
TRACE_DRAWS = 2


def _approx_reference(series, kind: str, k: int, n: int):
    """Approximation and target rebuilt from the exact series trace."""
    if kind == "zigzag":
        trace = series.limit_mgf_series(1, 1, n, k - 1).coefficient(k - 1)
        approx = float(Fraction(math.factorial(k), 2 ** (k - 1)) * trace)
        target = float(refs.entringer_numbers(k)[k])
    else:
        trace = series.limit_mgf_series(0, 1, n, 2 * k).coefficient(2 * k)
        if kind == "zeta":
            approx = math.pi ** (2 * k + 2) * float(trace) / (2 * (2 ** (2 * k + 2) - 1))
            target = refs.p_series_partial(2 * k + 2)
        else:
            approx = float(math.factorial(2 * k + 1) * trace)
            target = float(refs.entringer_numbers(2 * k + 1)[2 * k + 1])
    return approx, target, abs(approx - target) / abs(target)


def _approx_op(series, kind, k, n) -> Op:
    approx, target, rel = _approx_reference(series, kind, k, n)

    def run(ctx):
        return ctx.lib.measure.zeta_zigzag_approx(kind, k, n)

    def check(res):
        return (
            (res.kind, res.k, res.n) == (kind, k, n)
            and refs.close(res.approx, approx)
            and refs.close(res.target, target)
            and refs.close(res.rel_error, rel)
        )

    return Op(f"approx {kind} k={k} n={n}", run, check, lambda res: f"{res.kind},{res.k},{res.n}:{res.approx!r}")


def _conv_op(series, a, b, n, r_max) -> Op:
    exact_route = math.isqrt(n) ** 2 == n
    mgf = series.limit_mgf_series(a, b, n, r_max)
    finite = [refs.finite_model_cumulant(mgf, a, n, r) for r in range(1, r_max + 1)]
    limit = [refs.limit_cumulant(a, b, r) for r in range(1, r_max + 1)]

    def run(ctx):
        return ctx.lib.measure.tangent_convergence(a, b, [n], r_max)

    def check(rows):
        return len(rows) == r_max and all(
            (row.n, row.r) == (n, r)
            and refs.close(row.finite_value, f)
            and refs.close(row.limit_value, lim)
            and refs.close(row.abs_error, abs(f - lim))
            for r, row, f, lim in zip(range(1, r_max + 1), rows, finite, limit)
        )

    def exact(rows):
        # Non-square n run in binary64: only the limit column is exact.
        return _join(
            (repr(row.finite_value) if exact_route else "-") + "/" + repr(row.limit_value)
            for row in rows
        )

    route = "exact" if exact_route else "binary64"
    return Op(f"convergence n={n} r={r_max} {route}", run, check, exact)


def warm_p_series(measure):
    """Refill the cached p-series targets the zeta approximations read."""
    measure._p_series_target.cache_clear()
    for exponent in (2, 4, 6):
        measure._p_series_target(exponent)


def _trace_approx_draw(rng, lib) -> list:
    ops = []
    for base, jitter, copies in APPROX_SIZES:
        for kind, k in APPROX_KINDS:
            for _ in range(copies):
                ops.append(_approx_op(lib.series, kind, k, base + rng.randint(-jitter, jitter)))
    for kind, k, base in APPROX_LARGE:
        ops.append(_approx_op(lib.series, kind, k, base + rng.randint(-2, 2)))
    for cells, exact_route in ((CONV_SQUARE, True), (CONV_OTHER, False)):
        for n, r_max in cells:
            if not exact_route:
                n += rng.randint(-2, 2)
                if math.isqrt(n) ** 2 == n:
                    n += 1
            a = Fraction(rng.choice(["0", "1/2", "-1/2", "1"]))
            b = Fraction(rng.choice(["1", "2", "1/2"]))
            ops.append(_conv_op(lib.series, a, b, n, r_max))
    return ops


def build_trace_approx(seed: int, lib, root: Path) -> list:
    ops = _pool("trace-approx", seed, _trace_approx_draw, TRACE_DRAWS, lib)
    warm_p_series(lib.measure)
    return ops


# -------------------------------------------------------------- scalar-oracle

# (n, order); iid and per-variable families alternate.  n = 3 at order 4
# is the oracle's expensive corner (about 0.5 s); order 5 would be 15x that.
ORACLE_CELLS = ((2, 3), (2, 3), (2, 4), (2, 4), (2, 4), (3, 3), (3, 3), (3, 3), (3, 4), (3, 4))
MIXED_ARGS = (3, 4, 5, 6)
PRODUCT_LENGTHS = (4, 6, 8)
# (direction, order)
CONVERSIONS = (("m_from_k", 32), ("m_from_k", 64), ("k_from_m", 48), ("k_from_m", 64))
SAMPLE_VARIANCE_CELLS = ((2, 4), (3, 3), (4, 4), (4, 2))
SYMMETRIZED_CELLS = ((2, 3), (3, 2), (3, 3), (4, 2))
SHIFTED_SOS_CELLS = ((2, 1), (3, 2), (2, 3), (3, 4))
KAGAN_ORDERS = (2, 3, 4)
SCALAR_DRAWS = 3


def _qf_poly(cm, matrix):
    return cm.NCPolynomial(
        [
            (e.re, (j + 1, k + 1))
            for j, row in enumerate(matrix.entries)
            for k, e in enumerate(row)
            if e.re
        ]
    )


def _random_word(rng, length: int, letters: int) -> tuple:
    """A word made of runs, so that its cumulants are rarely all zero."""
    word = []
    while len(word) < length:
        word.extend([rng.randint(1, letters)] * rng.randint(1, 3))
    return tuple(word[:length])


def _monomials(cm, coeffs, grouping, word) -> list:
    """c_j times the product of the j-th group of letters of the word."""
    out, pos = [], 0
    for c, g in zip(coeffs, grouping):
        mono = cm.NCPolynomial.scalar(c)
        for v in word[pos : pos + g]:
            mono = mono * cm.NCPolynomial.variable(v)
        out.append(mono)
        pos += g
    return out


def _composition(rng, m: int) -> tuple:
    cuts = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
    bounds = [0] + cuts + [m]
    return tuple(bounds[i + 1] - bounds[i] for i in range(len(cuts) + 1))


def _system_grid(rows) -> list:
    return [[(Fraction(x), Fraction(0)) for x in row] for row in rows]


def _permutation_system(weights) -> list:
    """Sum over every ordering w_s of the weights of w_s w_s^T."""
    n = len(weights)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for perm in itertools.permutations(weights):
        for i in range(n):
            for j in range(n):
                rows[i][j] += perm[i] * perm[j]
    return _system_grid(rows)


def _centering_system(n: int) -> list:
    return _system_grid(
        [[(1 if i == j else 0) - Fraction(1, n) for j in range(n)] for i in range(n)]
    )


def _scalar_oracle_draw(rng, lib) -> list:
    mx, cm, st = lib.matrices, lib.cumulants, lib.stats
    ops = []

    def add(cell, run, ref):
        ops.append(Op(cell, run, lambda res: res == ref, str))

    for idx, (n, order) in enumerate(ORACLE_CELLS):
        matrix = _hermitian(mx, rng, n, complex_entries=False)
        poly = _qf_poly(cm, matrix)
        if idx % 2:
            family = {
                i + 1: cm.parse_distribution(_preset(KINDS[(idx + i) % 4], rng, order), 2 * order)
                for i in range(n)
            }
            kvec = refs.family_kvec(family, n)
        else:
            seq = cm.parse_distribution(_preset(KINDS[idx // 2 % 4], rng, order), 2 * order)
            family = cm.constant_family(seq, n)
            kvec = refs.iid_kvec(seq, n)
        ref = [refs.qf_cumulant_dp(refs.grid_of(matrix), kvec, k) for k in range(1, order + 1)]

        def run(ctx, poly=poly, family=family, order=order):
            return list(ctx.lib.cumulants.element_cumulants(poly, family, order).values)

        ops.append(Op(f"oracle n={n} order={order}", run, _equal_to(ref), _join))

    family3 = {
        i: cm.parse_distribution(_preset(kind, rng, 8), 16)
        for i, kind in zip((1, 2, 3), ("poisson", "evenpoisson", "custom"))
    }
    for nargs in MIXED_ARGS:
        grouping = tuple(rng.randint(1, 2) for _ in range(nargs))
        word = _random_word(rng, sum(grouping), 3)
        coeffs = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in grouping]
        args = _monomials(cm, coeffs, grouping, word)
        ref = math.prod(coeffs) * cm.product_cumulant(grouping, word, family3)

        def run(ctx, args=args):
            return ctx.lib.cumulants.mixed_cumulant(args, family3)

        add(f"mixed args={nargs}", run, ref)
    for m in PRODUCT_LENGTHS:
        grouping = _composition(rng, m)
        word = _random_word(rng, m, 2)
        args = _monomials(cm, [1] * len(grouping), grouping, word)
        ref = cm.mixed_cumulant(args, family3)

        def run(ctx, grouping=grouping, word=word):
            return ctx.lib.cumulants.product_cumulant(grouping, word, family3)

        add(f"product m={m}", run, ref)

    for direction, order in CONVERSIONS:
        primary = [_nz(rng, 3) for _ in range(order)]
        if direction == "m_from_k":
            # The reference moments are the primary input; the cumulants fed
            # to the op come from the inverse route.
            seq = cm.cumulants_from_moments(primary, order)

            def run(ctx, seq=seq, order=order):
                return ctx.lib.cumulants.moments_from_cumulants(seq, order)

        else:
            moments = cm.moments_from_cumulants(cm.CumulantSequence(primary), order)

            def run(ctx, moments=moments, order=order):
                return list(ctx.lib.cumulants.cumulants_from_moments(moments, order).values)

        ops.append(Op(f"convert {direction} order={order}", run, _equal_to(primary), _join))

    for idx, (n, r) in enumerate(SAMPLE_VARIANCE_CELLS):
        seq = cm.parse_distribution(_preset(KINDS[1 + idx % 3], rng, r), 2 * r)
        ref = refs.qf_cumulant_dp(_centering_system(n), refs.iid_kvec(seq, n), r)

        def run(ctx, n=n, seq=seq, r=r):
            return ctx.lib.stats.sample_variance_cumulant(n, seq, r)

        add(f"sample-variance n={n} r={r}", run, ref)
    for idx, (n, r) in enumerate(SYMMETRIZED_CELLS):
        weights = [_nz(rng, 4) for _ in range(n - 1)]
        weights.append(-sum(weights))
        form = st.LinearFormSpec(weights)
        seq = cm.parse_distribution(_preset(KINDS[1 + idx % 3], rng, r), 2 * r)
        ref = refs.qf_cumulant_dp(_permutation_system(form.weights), refs.iid_kvec(seq, n), r)

        def run(ctx, form=form, seq=seq, r=r):
            return ctx.lib.stats.symmetrized_square_cumulant(form, seq, r)

        add(f"symmetrized n={n} r={r}", run, ref)
    standard = cm.gaussian_sequence(0, 1, 8)
    for n, r in SHIFTED_SOS_CELLS:
        shifts = st.ShiftVector([_nz(rng, 4) for _ in range(n)])
        family = cm.constant_family(standard, n)
        # The compact form holds from r = 2; at r = 1 the cumulant is n + s.
        ref = n + shifts.s if r == 1 else st.kagan_closed_form(shifts.s, r)

        def run(ctx, shifts=shifts, family=family, r=r):
            return ctx.lib.stats.shifted_sos_cumulant(shifts, family, r)

        add(f"shifted-sos n={n} r={r}", run, ref)
    for r in KAGAN_ORDERS:
        shifts = st.ShiftVector([_nz(rng, 4) for _ in range(2)])
        ref = st.shifted_sos_cumulant(shifts, cm.constant_family(standard, 2), r)

        def run(ctx, s=shifts.s, r=r):
            return ctx.lib.stats.kagan_closed_form(s, r)

        add(f"kagan r={r}", run, ref)
    return ops


def build_scalar_oracle(seed: int, lib, root: Path) -> list:
    return _pool("scalar-oracle", seed, _scalar_oracle_draw, SCALAR_DRAWS, lib)


# -------------------------------------------------------------------- cli-mix

FORMATS = ("json", "csv", "plain")
WORK_DIR = Path("perfbench", "out", "work")
LEVY_LARGE_TERMS = 10_000


def _cli_commands(rng, files: dict) -> list:
    """One README-sized argv per subcommand, without --format.  Rational
    lists go as --flag=value, since a leading minus would read as a flag."""
    pick = rng.choice
    order = "3"

    def rationals(count):
        return ",".join(str(_nz(rng, 3)) for _ in range(count))

    w = [_nz(rng, 3) for _ in range(2)]
    approx_n = lambda: f"{pick([8, 10, 12])},{pick([18, 20, 22])}"
    return [
        ["partitions", "enumerate", "--n", str(pick([3, 4]))],
        ["cumulants", "qf", "--matrix", files["a"], "--dist", _preset(pick(KINDS), rng, 3), "--order", order],
        ["cumulants", "oracle-check", "--matrix", files["b"], "--dist", _preset(pick(KINDS), rng, 3), "--order", order],
        ["cumulants", "convert", "--cumulants=" + rationals(6)],
        ["matrix", "check", "--matrix", files["z"]],
        ["matrix", "independence", "--matrix", files["c"], "--matrix", files["d"]],
        ["matrix", "h-series", "--matrix", files["a"], "--order", "5"],
        ["stats", "sample-variance", "--n", str(pick([3, 4])), "--dist", _preset(pick(KINDS[1:]), rng, 3), "--order", order],
        ["stats", "shifted-sos", "--shifts=" + rationals(3), "--dist", "gaussian:c=0,v=1", "--order", order],
        ["stats", "symmetrized", "--weights=" + _join(w + [-sum(w)]), "--dist", _preset(pick(KINDS[1:]), rng, 3), "--order", order],
        ["limit", "tangent", "--a", pick(["0", "1/2", "1"]), "--b", pick(["1", "2"]), "--n", "16,25", "--order", "2"],
        ["approx", "zeta", "--k", "1", "--n", approx_n()],
        ["approx", "tangent", "--k", pick(["1", "2"]), "--n", approx_n()],
        ["approx", "zigzag", "--k", pick(["3", "4"]), "--n", approx_n()],
        ["measure", "atoms", "--pairs", str(pick([3, 4, 5, 6]))],
        ["measure", "levy", "--terms", str(pick([3, 4, 5, 6]))],
        ["measure", "moments", "--pairs", str(pick([10, 15, 20])), "--order", "6"],
    ]


def _flag(argv, name):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    raise KeyError(name)


def _payload_ok(argv, payload, lib, mats) -> bool:
    """Exact values of a JSON reply against independent references.

    Subcommands without a check here (matrix check/independence, measure
    atoms/moments) are held to the in-process reply byte for byte only.
    """
    cm, series = lib.cumulants, lib.series
    fr = lambda values: [str(Fraction(v)) for v in values]
    command = tuple(argv[:2])
    if command == ("partitions", "enumerate"):
        n = int(_flag(argv, "--n"))
        return payload["count"] == 2 ** (n - 1) == len(payload["partitions"])
    if command in (("cumulants", "qf"), ("cumulants", "oracle-check"), ("stats", "sample-variance"), ("stats", "symmetrized")):
        order = int(_flag(argv, "--order"))
        seq = cm.parse_distribution(_flag(argv, "--dist"), 2 * order)
        if command[0] == "cumulants":
            grid = refs.grid_of(mats[_flag(argv, "--matrix")])
        elif command[1] == "sample-variance":
            grid = _centering_system(int(_flag(argv, "--n")))
        else:
            grid = _permutation_system([Fraction(x) for x in _flag(argv, "--weights").split(",")])
        want = fr(refs.qf_cumulant_dp(grid, refs.iid_kvec(seq, len(grid)), r) for r in range(1, order + 1))
        if command[1] == "oracle-check":
            return payload["equal"] is True and payload["engine"] == want == payload["oracle"]
        return payload["cumulants"] == want
    if command == ("cumulants", "convert"):
        kappa = [Fraction(x) for x in _flag(argv, "--cumulants").split(",")]
        moments = [Fraction(x) for x in payload["moments"]]
        return list(cm.cumulants_from_moments(moments).values) == kappa == [Fraction(x) for x in payload["cumulants"]]
    if command == ("matrix", "h-series"):
        grid = refs.grid_of(mats[_flag(argv, "--matrix")])
        order = int(_flag(argv, "--order"))
        return payload["coefficients"] == fr(refs.trace_j_power(grid, k) if k else 0 for k in range(order + 1))
    if command == ("stats", "shifted-sos"):
        shifts = [Fraction(x) for x in _flag(argv, "--shifts").split(",")]
        s = sum(x * x for x in shifts)
        want = [len(shifts) + s] + [lib.stats.kagan_closed_form(s, r) for r in range(2, int(_flag(argv, "--order")) + 1)]
        return payload["cumulants"] == fr(want)
    if command == ("limit", "tangent"):
        a, b = Fraction(_flag(argv, "--a")), Fraction(_flag(argv, "--b"))
        r_max = int(_flag(argv, "--order"))
        rows = iter(payload["rows"])
        for n in (int(x) for x in _flag(argv, "--n").split(",")):
            mgf = series.limit_mgf_series(a, b, n, r_max)
            for r in range(1, r_max + 1):
                row = next(rows)
                if not (
                    refs.close(float(row["finite"]["value"]), refs.finite_model_cumulant(mgf, a, n, r))
                    and refs.close(float(row["limit"]["value"]), refs.limit_cumulant(a, b, r))
                ):
                    return False
        return True
    if command[0] == "approx":
        k = int(_flag(argv, "--k"))
        ns = [int(x) for x in _flag(argv, "--n").split(",")]
        return all(
            refs.close(float(row["approx"]["value"]), _approx_reference(series, command[1], k, n)[0])
            for row, n in zip(payload["rows"], ns)
        ) and len(payload["rows"]) == len(ns)
    if command == ("measure", "levy"):
        terms = int(_flag(argv, "--terms"))
        want = []
        for j in range(terms):
            x = 2.0 / ((2 * j + 1) * math.pi)
            want += [(x, x**4 / (1 + x * x)), (-x, x**4 / (1 + x * x))]
        want.sort()
        got = [(float(a["location"]["value"]), float(a["mass"]["value"])) for a in payload["atoms"]]
        return len(got) == len(want) and all(
            refs.close(g[0], w[0]) and refs.close(g[1], w[1]) for g, w in zip(got, want)
        )
    return True


def _cli_inprocess(cli, argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_op(argv, expected: Optional[bytes], root: Path, env: dict) -> Op:
    def run(ctx):
        if ctx.inprocess:
            return _cli_inprocess(ctx.lib.cli, argv)
        proc = subprocess.run(
            [sys.executable, "-m", "bqf.cli", *argv],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(res):
        return expected is not None and res == (0, expected)

    def exact(res):
        return " ".join(argv) + ":" + hashlib.sha256(res[1]).hexdigest()

    return Op(" ".join(argv[:2]) + " " + _flag(argv, "--format"), run, check, exact)


def build_cli_mix(seed: int, lib, root: Path) -> list:
    mx = lib.matrices
    rng = random.Random(f"cli-mix:{seed}")
    workdir = root / WORK_DIR
    workdir.mkdir(parents=True, exist_ok=True)
    mats = {
        "a": _hermitian(mx, rng, 3),
        "b": _hermitian(mx, rng, 2, complex_entries=False),
        "c": _hermitian(mx, rng, 3, complex_entries=False),
        "d": _hermitian(mx, rng, 3, complex_entries=False),
        "z": mx.matrix_add(mx.build_special("identity", 3), mx.matrix_scale(mx.build_special("P", 3), -1)),
    }
    files = {}
    by_path = {}
    for key, matrix in mats.items():
        path = os.path.relpath(workdir / f"{key}.json", root)
        mx.save_matrix(matrix, root / path)
        files[key] = path
        by_path[path] = matrix
    argvs = [cmd + ["--format", fmt] for cmd in _cli_commands(rng, files) for fmt in FORMATS]
    argvs.append(["measure", "levy", "--terms", str(LEVY_LARGE_TERMS + rng.randint(0, 50)), "--format", "json"])
    env = child_env(root)
    ops = []
    for argv in argvs:
        code, out = _cli_inprocess(lib.cli, argv)
        ok = code == 0
        if ok and _flag(argv, "--format") == "json":
            ok = _payload_ok(argv, json.loads(out), lib, by_path)
        ops.append(_cli_op(argv, out if ok else None, root, env))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "qf-engine": build_qf_engine,
    "trace-approx": build_trace_approx,
    "scalar-oracle": build_scalar_oracle,
    "cli-mix": build_cli_mix,
}

"""Command-line front end.

Every subcommand is a thin adapter: parse flags, call one library
operation, format.  Output is byte-identical across runs for identical
inputs: JSON uses fixed key order and two-space indentation, exact
rationals appear as "p/q" strings, and binary64 values ride inside a
{"float": true, "value": "<17 significant digits>"} wrapper so that no
reader can mistake them for exact data.

Exit codes: 0 on success, 1 on domain errors (bad matrix data, orders out
of range, and the oracle-check command finding a mismatch), 2 on usage
errors.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import cumulants as cm
from . import matrices as mx
from . import measure as ms
from . import partitions as pt
from . import stats as st
from .errors import DomainError
from .rationals import format_rational, parse_rational, parse_rational_list

# Bounds on arguments whose cost grows exponentially, checked before any
# work starts: enumerate lists 2^(n-1) partitions, and the oracle expands
# the quadratic form's powers word by word (shifted-sos too); a sampled
# 8 x 8 matrix meets the expansion cap within about a second.
PARTITIONS_MAX_N = 16
ORACLE_CHECK_MAX_ORDER = 12
ORACLE_CHECK_MAX_N = 8
# Bounds on Krylov lengths, also checked up front: each power 1^T A^k is
# one more matvec on integers that grow with k, so the cost is about
# quadratic in the length; an independent pair never stops a --k scan
# early, and cumulants qf's one DP pass is a chain of --order matvecs.
QF_MAX_ORDER = 64
H_SERIES_MAX_ORDER = 512
INDEPENDENCE_MAX_K = 512
# Bounds on the series orders and atom counts, each a few seconds at most
# at its limit: exact rationals grow with the order, and every atom pair
# costs a root and its share of one JSON document in memory.
LIMIT_MAX_ORDER = 64
APPROX_MAX_K = 64
STATS_MAX_ORDER = 1000
MEASURE_MAX_PAIRS = 20_000
MOMENTS_MAX_ORDER = 200


def _check_bound(flag: str, value, limit: int):
    if value is not None and value > limit:
        raise DomainError(f"{flag} must be at most {limit}, got {value}")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return {"float": True, "value": _fmt_float(value)}
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _emit(args, payload: dict, header=None, rows=None):
    """Print payload as JSON, or the (header, rows) table as CSV/plain."""
    out = sys.stdout
    if args.format == "json":
        out.write(json.dumps(_json_value(payload), indent=2) + "\n")
        return
    if header is None:
        header = ("key", "value")
        rows = [(k, v) for k, v in payload.items() if not isinstance(v, (list, dict))]
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        out.write(buffer.getvalue())
        return
    out.write("  ".join(header) + "\n")
    for row in rows:
        out.write("  ".join(_cell(v) for v in row) + "\n")


def _int_list(text: str) -> list:
    try:
        values = [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty integer list: {text!r}")
    return values


def _matrices(parser, args, count: int) -> list:
    """Load the --matrix files, a usage error unless exactly count were given."""
    paths = args.matrix or []
    if len(paths) != count:
        parser.error(f"this subcommand takes {count} --matrix, got {len(paths)}")
    return [mx.load_matrix(path) for path in paths]


# ---------------------------------------------------------------- handlers


def _cmd_partitions_enumerate(parser, args):
    _check_bound("--n", args.n, PARTITIONS_MAX_N)
    parts = pt.enumerate_interval(args.n)
    payload = {
        "n": args.n,
        "count": len(parts),
        "partitions": [
            {"cuts": sorted(p.cuts), "blocks": [list(b) for b in p.blocks()]}
            for p in parts
        ],
    }
    rows = [(";".join(map(str, sorted(p.cuts))), str(p)) for p in parts]
    _emit(args, payload, ("cuts", "blocks"), rows)
    return 0


def _cmd_cumulants_qf(parser, args):
    _check_bound("--order", args.order, QF_MAX_ORDER)
    (matrix,) = _matrices(parser, args, 1)
    seq = cm.parse_distribution(args.dist, 2 * args.order)
    values = mx.qf_cumulants_iid(matrix, seq, args.order)
    payload = {
        "n": matrix.n,
        "dist": args.dist,
        "order": args.order,
        "cumulants": values,
    }
    _emit(args, payload, ("r", "value"), list(enumerate(values, start=1)))
    return 0


def _cmd_cumulants_oracle_check(parser, args):
    _check_bound("--order", args.order, ORACLE_CHECK_MAX_ORDER)
    if args.matrix:
        (matrix,) = _matrices(parser, args, 1)
        source = args.matrix[0]
    else:
        _check_bound("--n", args.n, ORACLE_CHECK_MAX_N)
        rng = random.Random(args.seed)
        matrix = mx.random_hermitian(rng, args.n, complex_entries=False)
        source = f"sampled(seed={args.seed})"
    seq = cm.parse_distribution(args.dist, 2 * args.order)
    family = cm.constant_family(seq, matrix.n)
    engine = mx.qf_cumulants_iid(matrix, seq, args.order)
    oracle = cm.element_cumulants(_qf_polynomial(matrix), family, args.order).values
    equal = tuple(engine) == tuple(oracle)
    payload = {
        "n": matrix.n,
        "dist": args.dist,
        "order": args.order,
        "matrix_source": source,
        "engine": engine,
        "oracle": list(oracle),
        "equal": equal,
    }
    rows = [(r, engine[r - 1], oracle[r - 1]) for r in range(1, args.order + 1)]
    _emit(args, payload, ("r", "engine", "oracle"), rows)
    return 0 if equal else 1


def _qf_polynomial(matrix) -> cm.NCPolynomial:
    """sum_{j,k} a_{jk} X_j X_k as a polynomial with rational coefficients."""
    terms = []
    for j in range(matrix.n):
        for k in range(matrix.n):
            e = matrix.entries[j][k]
            if e.im != 0:
                raise DomainError(
                    "the polynomial oracle needs real entries; entry "
                    f"({j + 1},{k + 1}) has a nonzero imaginary part"
                )
            if e.re:
                terms.append((e.re, (j + 1, k + 1)))
    return cm.NCPolynomial(terms)


def _cmd_cumulants_convert(parser, args):
    if args.moments is not None:
        values = parse_rational_list(args.moments)
        order = len(values) if args.order is None else args.order
        seq = cm.cumulants_from_moments(values, order)
        moments = values[:order]
        kappa = list(seq.values)
        kind = "moments"
    else:
        values = parse_rational_list(args.cumulants)
        order = len(values) if args.order is None else args.order
        seq = cm.CumulantSequence(values)
        moments = cm.moments_from_cumulants(seq, order)
        kappa = list(values[:order])
        kind = "cumulants"
    payload = {
        "input_kind": kind,
        "order": order,
        "moments": moments,
        "cumulants": kappa,
    }
    rows = [(i, moments[i - 1], kappa[i - 1]) for i in range(1, order + 1)]
    _emit(args, payload, ("order", "moment", "cumulant"), rows)
    return 0


def _cmd_matrix_check(parser, args):
    (matrix,) = _matrices(parser, args, 1)
    report = mx.zero_sum_checks(matrix)
    payload = {
        "n": matrix.n,
        "hermitian": True,
        "is_zero_row_sum": report.is_zero_row_sum,
        "tr_ja2_zero": report.tr_ja2_zero,
        "tr_jak_zero_upto_2n": report.tr_jak_zero_upto_2n,
        "constant_diagonal": report.constant_diagonal,
    }
    _emit(args, payload)
    return 0


def _cmd_matrix_independence(parser, args):
    _check_bound("--k", args.k, INDEPENDENCE_MAX_K)
    a, b = _matrices(parser, args, 2)
    result = mx.independence_check(a, b, args.k)
    requested = args.k if args.k is not None else 2 * a.n
    payload = {
        "n": a.n,
        "kmax": 1 if a.n == 2 else requested,
        "independent": result.independent,
        "witness_power": result.witness_power,
        "witness_side": result.witness_side,
    }
    _emit(args, payload)
    return 0


def _cmd_matrix_h_series(parser, args):
    _check_bound("--order", args.order, H_SERIES_MAX_ORDER)
    (matrix,) = _matrices(parser, args, 1)
    series = mx.h_series_qf(matrix, args.order)
    payload = {
        "n": matrix.n,
        "order": args.order,
        "coefficients": list(series.coeffs),
    }
    rows = list(enumerate(series.coeffs))
    _emit(args, payload, ("k", "coefficient"), rows)
    return 0


def _cmd_stats_sample_variance(parser, args):
    _check_bound("--order", args.order, STATS_MAX_ORDER)
    seq = cm.parse_distribution(args.dist, 2 * args.order)
    values = [
        st.sample_variance_cumulant(args.n, seq, r) for r in range(1, args.order + 1)
    ]
    payload = {"n": args.n, "dist": args.dist, "order": args.order, "cumulants": values}
    _emit(args, payload, ("r", "value"), list(enumerate(values, start=1)))
    return 0


def _cmd_stats_shifted_sos(parser, args):
    _check_bound("--order", args.order, ORACLE_CHECK_MAX_ORDER)
    shifts = st.ShiftVector(parse_rational_list(args.shifts))
    seq = cm.parse_distribution(args.dist, 2 * args.order)
    family = cm.constant_family(seq, len(shifts.shifts))
    values = st.shifted_sos_cumulants(shifts, family, args.order)
    payload = {
        "shifts": list(shifts.shifts),
        "sum_squares": shifts.s,
        "dist": args.dist,
        "order": args.order,
        "cumulants": values,
    }
    _emit(args, payload, ("r", "value"), list(enumerate(values, start=1)))
    return 0


def _cmd_stats_symmetrized(parser, args):
    _check_bound("--order", args.order, STATS_MAX_ORDER)
    form = st.LinearFormSpec(parse_rational_list(args.weights))
    seq = cm.parse_distribution(args.dist, 2 * args.order)
    values = [
        st.symmetrized_square_cumulant(form, seq, r) for r in range(1, args.order + 1)
    ]
    payload = {
        "weights": list(form.weights),
        "dist": args.dist,
        "order": args.order,
        "cumulants": values,
    }
    _emit(args, payload, ("r", "value"), list(enumerate(values, start=1)))
    return 0


def _cmd_limit_tangent(parser, args):
    _check_bound("--order", args.order, LIMIT_MAX_ORDER)
    a = parse_rational(args.a)
    b = parse_rational(args.b)
    rows = ms.tangent_convergence(a, b, args.n, args.order)
    payload = {
        "a": a,
        "b": b,
        "r_max": args.order,
        "rows": [
            {
                "n": row.n,
                "r": row.r,
                "finite": row.finite_value,
                "limit": row.limit_value,
                "abs_error": row.abs_error,
            }
            for row in rows
        ],
    }
    table = [
        (row.n, row.r, row.finite_value, row.limit_value, row.abs_error)
        for row in rows
    ]
    _emit(args, payload, ("n", "r", "finite", "limit", "abs_error"), table)
    return 0


def _cmd_approx(kind):
    def handler(parser, args):
        _check_bound("--k", args.k, APPROX_MAX_K)
        results = [ms.zeta_zigzag_approx(kind, args.k, n) for n in args.n]
        payload = {
            "kind": kind,
            "k": args.k,
            "rows": [
                {
                    "n": r.n,
                    "approx": r.approx,
                    "target": r.target,
                    "rel_error": r.rel_error,
                }
                for r in results
            ],
        }
        table = [(r.kind, r.k, r.n, r.approx, r.target, r.rel_error) for r in results]
        _emit(args, payload, ("kind", "k", "n", "approx", "target", "rel_error"), table)
        return 0

    return handler


def _atoms_payload(args, measure, extra: dict):
    payload = dict(extra)
    payload["total_mass"] = measure.total_mass()
    payload["atoms"] = [
        {"location": loc, "mass": mass} for loc, mass in measure.atoms
    ]
    rows = list(measure.atoms)
    _emit(args, payload, ("location", "mass"), rows)


def _cmd_measure_atoms(parser, args):
    _check_bound("--pairs", args.pairs, MEASURE_MAX_PAIRS)
    measure = ms.tangent_atoms(args.pairs)
    _atoms_payload(args, measure, {"pairs": args.pairs})
    return 0


def _cmd_measure_levy(parser, args):
    _check_bound("--terms", args.terms, MEASURE_MAX_PAIRS)
    measure = ms.levy_atoms(args.terms)
    _atoms_payload(args, measure, {"terms": args.terms})
    return 0


def _cmd_measure_moments(parser, args):
    _check_bound("--pairs", args.pairs, MEASURE_MAX_PAIRS)
    _check_bound("--order", args.order, MOMENTS_MAX_ORDER)
    measure = ms.tangent_atoms(args.pairs)
    rows = ms.moment_consistency(measure, args.order)
    payload = {
        "pairs": args.pairs,
        "m_max": args.order,
        "rows": [
            {
                "m": row.m,
                "atom": row.atom_moment,
                "series": row.series_moment,
                "error": row.error,
            }
            for row in rows
        ],
    }
    table = [(row.m, row.atom_moment, row.series_moment, row.error) for row in rows]
    _emit(args, payload, ("m", "atom", "series", "error"), table)
    return 0


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqf",
        description="Exact Boolean cumulant calculus for quadratic forms.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def sub(group_parser, name, handler, **flag_defs):
        p = group_parser.add_parser(name)
        p.add_argument("--format", choices=("json", "csv", "plain"), default="json")
        for flag, defn in flag_defs.items():
            p.add_argument(flag, **defn)
        p.set_defaults(handler=handler, parser=p)
        return p

    partitions = groups.add_parser("partitions").add_subparsers(
        dest="command", required=True
    )
    sub(
        partitions,
        "enumerate",
        _cmd_partitions_enumerate,
        **{"--n": dict(type=int, required=True)},
    )

    cumulants = groups.add_parser("cumulants").add_subparsers(
        dest="command", required=True
    )
    sub(
        cumulants,
        "qf",
        _cmd_cumulants_qf,
        **{
            "--matrix": dict(action="append"),
            "--dist": dict(required=True),
            "--order": dict(type=int, required=True),
        },
    )
    sub(
        cumulants,
        "oracle-check",
        _cmd_cumulants_oracle_check,
        **{
            "--matrix": dict(action="append"),
            "--dist": dict(required=True),
            "--order": dict(type=int, required=True),
            "--n": dict(type=int, default=2),
            "--seed": dict(type=int, default=0),
        },
    )
    convert = sub(
        cumulants, "convert", _cmd_cumulants_convert, **{"--order": dict(type=int)}
    )
    given = convert.add_mutually_exclusive_group(required=True)
    given.add_argument("--moments")
    given.add_argument("--cumulants")

    matrix = groups.add_parser("matrix").add_subparsers(dest="command", required=True)
    sub(matrix, "check", _cmd_matrix_check, **{"--matrix": dict(action="append")})
    sub(
        matrix,
        "independence",
        _cmd_matrix_independence,
        **{"--matrix": dict(action="append"), "--k": dict(type=int)},
    )
    sub(
        matrix,
        "h-series",
        _cmd_matrix_h_series,
        **{"--matrix": dict(action="append"), "--order": dict(type=int, required=True)},
    )

    stats = groups.add_parser("stats").add_subparsers(dest="command", required=True)
    sub(
        stats,
        "sample-variance",
        _cmd_stats_sample_variance,
        **{
            "--n": dict(type=int, required=True),
            "--dist": dict(required=True),
            "--order": dict(type=int, required=True),
        },
    )
    sub(
        stats,
        "shifted-sos",
        _cmd_stats_shifted_sos,
        **{
            "--shifts": dict(required=True),
            "--dist": dict(required=True),
            "--order": dict(type=int, required=True),
        },
    )
    sub(
        stats,
        "symmetrized",
        _cmd_stats_symmetrized,
        **{
            "--weights": dict(required=True),
            "--dist": dict(required=True),
            "--order": dict(type=int, required=True),
        },
    )

    limit = groups.add_parser("limit").add_subparsers(dest="command", required=True)
    sub(
        limit,
        "tangent",
        _cmd_limit_tangent,
        **{
            "--a": dict(required=True),
            "--b": dict(required=True),
            "--n": dict(type=_int_list, required=True),
            "--order": dict(type=int, required=True),
        },
    )

    approx = groups.add_parser("approx").add_subparsers(dest="command", required=True)
    for kind in ("zeta", "tangent", "zigzag"):
        sub(
            approx,
            kind,
            _cmd_approx(kind),
            **{
                "--k": dict(type=int, required=True),
                "--n": dict(type=_int_list, required=True),
            },
        )

    measure = groups.add_parser("measure").add_subparsers(dest="command", required=True)
    sub(measure, "atoms", _cmd_measure_atoms, **{"--pairs": dict(type=int, required=True)})
    sub(measure, "levy", _cmd_measure_levy, **{"--terms": dict(type=int, required=True)})
    sub(
        measure,
        "moments",
        _cmd_measure_moments,
        **{"--pairs": dict(type=int, required=True), "--order": dict(type=int, required=True)},
    )

    return parser


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args.parser, args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        # The consumer (e.g. `| head`) closed the pipe; park stdout on
        # devnull so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand is a thin adapter: parse flags, call one library
operation, format.  Each handler imports only the library layers it
calls, so a subcommand's start-up pays for no other layer, and only the
invoked subcommand's parser is built (with its group's and the top one).
Output is byte-identical across runs for identical inputs: JSON uses
fixed key order and two-space indentation, exact rationals appear as
"p/q" strings, and binary64 values ride inside a {"float": true,
"value": "<17 significant digits>"} wrapper so that no reader can mistake
them for exact data.  The JSON text is exactly what json.dumps(indent=2)
writes for that converted tree, written in one pass by _json; a table of
floats only is written straight from its row tuples, any other table as
one dict per row.

Exit codes: 0 on success, 1 on domain errors (bad matrix data, orders out
of range, and the oracle-check command finding a mismatch), 2 on usage
errors.
"""

import argparse
import io
import os
import sys
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .errors import DomainError
from .rationals import (
    DENOMINATOR_MAX_BITS,  # rational lists and matrix files, in check_denominators
    MATRIX_MAX_BYTES,  # each --matrix file, in load_matrix before it is decoded
    MATRIX_MAX_N,  # each --matrix file, in load_matrix before any entry is parsed
    RATIONAL_MAX_BITS,  # every rational read from outside, in parse_rational
    format_rational,
    parse_rational,
    parse_rational_list,
    split_list,
)

# Each bound sits on its flag's declaration in _build_parser (bound=, and
# count= for the length of a list) and is checked before any work starts
# or any file is read.  Bounds on arguments whose cost grows
# exponentially: enumerate lists 2^(n-1) partitions, and the oracle
# expands the quadratic form's powers word by word.  shifted-sos shares
# oracle-check's --order bound but expands no words: it sums one-variable
# moment recursions, O(shifts * order^2) rational operations.  A quadratic
# form's power m has nnz(A)^m words, so oracle-check meets the
# expansion cap before expanding anything: with a Poisson preset at
# --order 12, a sampled 8 x 8 matrix at power 3, a sampled 4 x 4 at power
# 5 and the sampled 2 x 2 matrix of --seed 0, which has a zero entry, at
# power 12, each child in about 0.15 s.  Runs just under the cap take
# longest: that 2 x 2 matrix takes 12 s at --order 11 (2-core x86-64 host).
PARTITIONS_MAX_N = 16
ORACLE_CHECK_MAX_ORDER = 12
ORACLE_CHECK_MAX_N = 8
# Bounds on Krylov lengths: each power 1^T A^k is one more matvec on
# integers that grow with k, so the cost is about quadratic in the
# length; an independent pair never stops a --k scan early, and
# cumulants qf's one DP pass is a chain of --order matvecs.
QF_MAX_ORDER = 64
H_SERIES_MAX_ORDER = 512
INDEPENDENCE_MAX_K = 512
# Bounds on the series orders and atom counts: exact rationals grow with
# the order, and every atom pair costs a root and its share of one JSON
# document in memory.  Most take at most a few seconds at their limit:
# measure levy --terms 20000 and measure atoms --pairs 20000 write 7.85 MB
# of JSON in about 0.23 s a child, with a peak RSS of 61 MB and 54 MB.
# approx zeta|tangent --k 64 takes 6-12 s per n (2-core x86-64 host),
# nearly all of it in compose inside limit_mgf_series.
LIMIT_MAX_ORDER = 64
APPROX_MAX_K = 64
STATS_MAX_ORDER = 1000
MEASURE_MAX_PAIRS = 20_000
MOMENTS_MAX_ORDER = 200
# Bounds on the model size n of limit tangent, approx and stats
# sample-variance, and on the number of n a list may hold: the exact
# rationals grow with the digits of n (a 100-digit n keeps approx zeta
# --k 32 busy for 15 s), and each listed n costs one series.
MODEL_MAX_N = 1_000_000
MODEL_MAX_COUNT = 16
# Bounds on the rational lists, counted before they are parsed.  At stats
# symmetrized --order 1000 the values carry ((n-1)!)^r: 16 Poisson weights
# take 1.5 s (6.7 MB of JSON), 50 take 29 s in the library alone.  The
# moment-cumulant conversion is about cubic in the length: 400 values with
# distinct denominators take 2.7 s, 1000 take 39 s (2-core x86-64 host).
# Each shift of stats shifted-sos costs one moment-to-cumulant solve of
# --order terms: 64 shifts at --order 12 take 0.06 s in-process, 0.16 s
# (0.23-0.26 s a child) with 32-bit rationals in a Poisson preset and in
# every shift (2-core x86-64 host).
STATS_MAX_WEIGHTS = 16
STATS_MAX_SHIFTS = 64
CONVERT_MAX_VALUES = 400


def _check_bounds(args):
    """Refuse the first bounded flag, in declaration order, above its limit
    or holding more than its count of values."""
    for flag, dest, limit, count in args.bounds:
        value = getattr(args, dest)
        if value is None:
            continue
        if count is not None:
            # a rational list stays text until its handler parses it
            values = split_list(value) if isinstance(value, str) else value
            if len(values) > count:
                raise DomainError(
                    f"{flag} takes at most {count} values, got {len(values)}"
                )
            if limit is None:
                continue
            value = max(values)
        if value > limit:
            raise DomainError(f"{flag} must be at most {limit}, got {value}")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json(value, pad="") -> str:
    """The text json.dumps(indent=2) writes for value once each Fraction is
    its "p/q" string and each float the {"float": true, "value": ...}
    wrapper, with every line after the first indented by pad."""
    if isinstance(value, float):  # first: floats fill the largest tables
        return (
            f'{{\n{pad}  "float": true,\n{pad}  "value": "{_fmt_float(value)}"\n{pad}}}'
        )
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, Fraction):
        return f'"{format_rational(value)}"'
    if isinstance(value, _Table):
        return _table_json(value, pad)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [inner + _json(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value)!r}")


# A JSON list with one object per row, pairing the distinct keys with the
# row's cells; _json writes it with _table_json.
_Table = namedtuple("_Table", "keys rows")


def _table_json(table, pad) -> str:
    """_json of [dict(zip(keys, row)) for row in rows]; a table of floats
    only (atoms, levy) fills one %-template per row and builds no dict."""
    keys, rows = table
    if not (keys and rows and all(type(v) is float for row in rows for v in row)):
        return _json([dict(zip(keys, row)) for row in rows], pad)
    inner = pad + "  "
    cell = inner + "  "
    head = f'{{\n{cell}  "float": true,\n{cell}  "value": "'
    tail = f'"\n{cell}}}'
    # "%.17g" % v is format(v, ".17g") for every float, inf and nan too
    fields = [
        f"{cell}{encode_basestring_ascii(k).replace('%', '%%')}: {head}%.17g{tail}"
        for k in keys
    ]
    template = inner + "{\n" + ",\n".join(fields) + f"\n{inner}}}"
    return "[\n" + ",\n".join([template % row for row in rows]) + f"\n{pad}]"


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
        # in pieces: one large write to a pipe whose reader leaves midway
        # can stop short without raising, and the text layer drops the count
        text, step = _json(payload) + "\n", io.DEFAULT_BUFFER_SIZE
        for start in range(0, len(text), step):
            out.write(text[start : start + step])
        return
    if header is None:
        header = ("key", "value")
        rows = payload.items()
    if args.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        return
    out.write("  ".join(header) + "\n")
    for row in rows:
        out.write("  ".join(_cell(v) for v in row) + "\n")


def _emit_table(args, payload: dict, key: str, header, rows, skip: int = 0):
    """Print the (header, rows) table; in JSON it is payload[key], one object
    per row without the first skip columns."""
    cut = [row[skip:] for row in rows] if skip else rows
    payload[key] = _Table(header[skip:], cut)
    _emit(args, payload, header, rows)


def _int_list(text: str) -> list:
    try:
        values = [int(piece) for piece in split_list(text)]
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"not a list of positive integers: {text!r}")
    return values


def _sequence(args):
    """The --dist preset with the 2 * --order cumulants the engine needs,
    once --order is known to be positive."""
    from . import cumulants as cm

    if args.order < 1:
        raise DomainError(f"order must be positive, got {args.order}")
    return cm.parse_distribution(args.dist, 2 * args.order)


def _emit_cumulants(args, head: dict, values):
    """Print K_1..K_order as the (r, value) table; in JSON, head followed
    by dist, order and cumulants."""
    payload = {**head, "dist": args.dist, "order": args.order, "cumulants": values}
    _emit(args, payload, ("r", "value"), list(enumerate(values, start=1)))


def _matrices(args, count: int) -> list:
    """Load the --matrix files, a usage error unless exactly count were given."""
    from . import matrices as mx

    paths = args.matrix or []
    if len(paths) != count:
        args.parser.error(f"this subcommand takes {count} --matrix, got {len(paths)}")
    return [mx.load_matrix(path) for path in paths]


# ---------------------------------------------------------------- handlers


def _cmd_partitions_enumerate(args):
    from . import partitions as pt

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


def _cmd_cumulants_qf(args):
    from . import matrices as mx

    (matrix,) = _matrices(args, 1)
    values = mx.qf_cumulants_iid(matrix, _sequence(args), args.order)
    _emit_cumulants(args, {"n": matrix.n}, values)
    return 0


def _cmd_cumulants_oracle_check(args):
    from . import cumulants as cm, matrices as mx

    if args.matrix:
        (matrix,) = _matrices(args, 1)
        source = args.matrix[0]
    else:
        import random

        rng = random.Random(args.seed)
        matrix = mx.random_hermitian(rng, args.n, complex_entries=False)
        source = f"sampled(seed={args.seed})"
    seq = _sequence(args)
    family = cm.constant_family(seq, matrix.n)
    engine = mx.qf_cumulants_iid(matrix, seq, args.order)
    poly = cm.NCPolynomial(mx.real_terms(matrix))
    oracle = cm.element_cumulants(poly, family, args.order).values
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


def _cmd_cumulants_convert(args):
    from . import cumulants as cm

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


def _cmd_matrix_check(args):
    from . import matrices as mx

    (matrix,) = _matrices(args, 1)
    report = mx.zero_sum_checks(matrix)
    _emit(args, {"n": matrix.n, "hermitian": True, **report._asdict()})
    return 0


def _cmd_matrix_independence(args):
    from . import matrices as mx

    a, b = _matrices(args, 2)
    result = mx.independence_check(a, b, args.k)
    requested = args.k if args.k is not None else 2 * a.n
    payload = {"n": a.n, "kmax": 1 if a.n == 2 else requested, **result._asdict()}
    _emit(args, payload)
    return 0


def _cmd_matrix_h_series(args):
    from . import matrices as mx

    (matrix,) = _matrices(args, 1)
    series = mx.h_series_qf(matrix, args.order)
    payload = {
        "n": matrix.n,
        "order": args.order,
        "coefficients": list(series.coeffs),
    }
    rows = list(enumerate(series.coeffs))
    _emit(args, payload, ("k", "coefficient"), rows)
    return 0


def _cmd_stats_sample_variance(args):
    from . import stats as st

    values = st.sample_variance_cumulants(args.n, _sequence(args), args.order)
    _emit_cumulants(args, {"n": args.n}, values)
    return 0


def _cmd_stats_shifted_sos(args):
    from . import cumulants as cm, stats as st

    shifts = st.ShiftVector(parse_rational_list(args.shifts))
    family = cm.constant_family(_sequence(args), len(shifts.shifts))
    values = st.shifted_sos_cumulants(shifts, family, args.order)
    head = {"shifts": list(shifts.shifts), "sum_squares": shifts.s}
    _emit_cumulants(args, head, values)
    return 0


def _cmd_stats_symmetrized(args):
    from . import stats as st

    form = st.LinearFormSpec(parse_rational_list(args.weights))
    values = st.symmetrized_square_cumulants(form, _sequence(args), args.order)
    _emit_cumulants(args, {"weights": list(form.weights)}, values)
    return 0


def _cmd_limit_tangent(args):
    from . import measure as ms

    a = parse_rational(args.a)
    b = parse_rational(args.b)
    rows = ms.tangent_convergence(a, b, args.n, args.order)
    payload = {"a": a, "b": b, "r_max": args.order}
    header = ("n", "r", "finite", "limit", "abs_error")
    _emit_table(args, payload, "rows", header, rows)
    return 0


def _cmd_approx(args):
    from . import measure as ms

    rows = [ms.zeta_zigzag_approx(args.command, args.k, n) for n in args.n]
    payload = {"kind": args.command, "k": args.k}
    header = ("kind", "k", "n", "approx", "target", "rel_error")
    _emit_table(args, payload, "rows", header, rows, skip=2)
    return 0


def _cmd_measure_atoms(args):
    from . import measure as ms

    measure = ms.tangent_atoms(args.pairs)
    payload = {"pairs": args.pairs, "total_mass": measure.total_mass()}
    _emit_table(args, payload, "atoms", ("location", "mass"), measure.atoms)
    return 0


def _cmd_measure_levy(args):
    from . import measure as ms

    measure = ms.levy_atoms(args.terms)
    payload = {"terms": args.terms, "total_mass": measure.total_mass()}
    _emit_table(args, payload, "atoms", ("location", "mass"), measure.atoms)
    return 0


def _cmd_measure_moments(args):
    from . import measure as ms

    rows = ms.moment_consistency(ms.tangent_atoms(args.pairs), args.order)
    payload = {"pairs": args.pairs, "m_max": args.order}
    _emit_table(args, payload, "rows", ("m", "atom", "series", "error"), rows)
    return 0


# ------------------------------------------------------------------ parser


def _build_parser(argv) -> argparse.ArgumentParser:
    """The bqf parser.  When argv starts with a group and one of its
    commands, argparse reads no other group or command, so only the top,
    that group and that command get a parser; both subparser actions then
    name every choice in their metavar, so the usage lines stay the same.
    Any other argv (help requests, typos, options first) gets the full
    tree, whose invalid-choice errors name the "group" and "command"
    arguments."""
    commands = {}  # (group, command) -> (handler, flag definitions)

    def sub(group, name, handler, **flag_defs):
        """Register a subcommand; parsers are built at the end."""
        commands[group, name] = (handler, flag_defs)

    def bounded(limit):
        return dict(type=int, required=True, bound=limit)

    n_list = dict(
        type=_int_list, required=True, bound=MODEL_MAX_N, count=MODEL_MAX_COUNT
    )

    sub(
        "partitions",
        "enumerate",
        _cmd_partitions_enumerate,
        **{"--n": bounded(PARTITIONS_MAX_N)},
    )

    sub(
        "cumulants",
        "qf",
        _cmd_cumulants_qf,
        **{
            "--matrix": dict(action="append"),
            "--dist": dict(required=True),
            "--order": bounded(QF_MAX_ORDER),
        },
    )
    sub(
        "cumulants",
        "oracle-check",
        _cmd_cumulants_oracle_check,
        **{
            "--matrix": dict(action="append"),
            "--dist": dict(required=True),
            "--order": bounded(ORACLE_CHECK_MAX_ORDER),
            "--n": dict(type=int, default=2, bound=ORACLE_CHECK_MAX_N),
            "--seed": dict(type=int, default=0),
        },
    )
    given = dict(one_of=True, count=CONVERT_MAX_VALUES)
    sub(
        "cumulants",
        "convert",
        _cmd_cumulants_convert,
        **{"--order": dict(type=int), "--moments": given, "--cumulants": given},
    )

    sub("matrix", "check", _cmd_matrix_check, **{"--matrix": dict(action="append")})
    sub(
        "matrix",
        "independence",
        _cmd_matrix_independence,
        **{
            "--matrix": dict(action="append"),
            "--k": dict(type=int, bound=INDEPENDENCE_MAX_K),
        },
    )
    sub(
        "matrix",
        "h-series",
        _cmd_matrix_h_series,
        **{"--matrix": dict(action="append"), "--order": bounded(H_SERIES_MAX_ORDER)},
    )

    sub(
        "stats",
        "sample-variance",
        _cmd_stats_sample_variance,
        **{
            "--n": bounded(MODEL_MAX_N),
            "--dist": dict(required=True),
            "--order": bounded(STATS_MAX_ORDER),
        },
    )
    sub(
        "stats",
        "shifted-sos",
        _cmd_stats_shifted_sos,
        **{
            "--shifts": dict(required=True, count=STATS_MAX_SHIFTS),
            "--dist": dict(required=True),
            "--order": bounded(ORACLE_CHECK_MAX_ORDER),
        },
    )
    sub(
        "stats",
        "symmetrized",
        _cmd_stats_symmetrized,
        **{
            "--weights": dict(required=True, count=STATS_MAX_WEIGHTS),
            "--dist": dict(required=True),
            "--order": bounded(STATS_MAX_ORDER),
        },
    )

    sub(
        "limit",
        "tangent",
        _cmd_limit_tangent,
        **{
            "--a": dict(required=True),
            "--b": dict(required=True),
            "--n": n_list,
            "--order": bounded(LIMIT_MAX_ORDER),
        },
    )

    approx = {"--k": bounded(APPROX_MAX_K), "--n": n_list}
    for kind in ("zeta", "tangent", "zigzag"):
        sub("approx", kind, _cmd_approx, **approx)

    pairs = bounded(MEASURE_MAX_PAIRS)
    sub("measure", "atoms", _cmd_measure_atoms, **{"--pairs": pairs})
    sub("measure", "levy", _cmd_measure_levy, **{"--terms": pairs})
    sub(
        "measure",
        "moments",
        _cmd_measure_moments,
        **{"--pairs": pairs, "--order": bounded(MOMENTS_MAX_ORDER)},
    )

    chosen = tuple(argv[:2])
    narrow = chosen in commands
    names = {}  # group -> its command names, in declaration order
    for group, name in commands:
        names.setdefault(group, []).append(name)

    def subparsers(parent, dest, choice_names):
        metavar = "{" + ",".join(choice_names) + "}" if narrow else None
        return parent.add_subparsers(dest=dest, required=True, metavar=metavar)

    parser = argparse.ArgumentParser(
        prog="bqf",
        description="Exact Boolean cumulant calculus for quadratic forms.",
    )
    groups = subparsers(parser, "group", names)
    for group, group_names in names.items():
        if narrow and group != chosen[0]:
            continue
        group_commands = subparsers(groups.add_parser(group), "command", group_names)
        for name in group_names:
            if narrow and name != chosen[1]:
                continue
            handler, flag_defs = commands[group, name]
            p = group_commands.add_parser(name)
            p.add_argument("--format", choices=("json", "csv", "plain"), default="json")
            # A flag's bound and count (of a list's values) go to args.bounds
            # for _check_bounds, not to argparse; the flags marked one_of
            # form one required mutually exclusive group.
            bounds = []
            one_of = None
            for flag, defn in flag_defs.items():
                defn = dict(defn)
                limit, count = defn.pop("bound", None), defn.pop("count", None)
                target = p
                if defn.pop("one_of", False):
                    one_of = one_of or p.add_mutually_exclusive_group(required=True)
                    target = one_of
                action = target.add_argument(flag, **defn)
                if limit is not None or count is not None:
                    bounds.append((flag, action.dest, limit, count))
            p.set_defaults(handler=handler, parser=p, bounds=bounds)
    return parser


def run(argv) -> int:
    args = _build_parser(argv).parse_args(argv)
    try:
        _check_bounds(args)
        return args.handler(args)
    except (DomainError, FileNotFoundError) as exc:
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

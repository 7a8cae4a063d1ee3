"""End-to-end command-line checks: every subcommand, all three formats,
deterministic bytes, and the documented exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bqf
from bqf import cli, matrices
from bqf.cli import (
    APPROX_MAX_K,
    CONVERT_MAX_VALUES,
    H_SERIES_MAX_ORDER,
    INDEPENDENCE_MAX_K,
    LIMIT_MAX_ORDER,
    MATRIX_MAX_BYTES,
    MATRIX_MAX_N,
    MEASURE_MAX_PAIRS,
    MODEL_MAX_COUNT,
    MODEL_MAX_N,
    MOMENTS_MAX_ORDER,
    ORACLE_CHECK_MAX_N,
    ORACLE_CHECK_MAX_ORDER,
    PARTITIONS_MAX_N,
    QF_MAX_ORDER,
    STATS_MAX_ORDER,
    STATS_MAX_SHIFTS,
    STATS_MAX_WEIGHTS,
    _build_parser,
    _fmt_float,
    _json,
    main,
    run,
)
from bqf.errors import DomainError
from bqf.matrices import (
    HermitianMatrix,
    build_special,
    matrix_add,
    matrix_scale,
    save_matrix,
)
from bqf.rationals import (
    DENOMINATOR_MAX_BITS,
    RATIONAL_MAX_BITS,
    check_denominators,
    format_rational,
    parse_rational,
)
from bqf.stats import kagan_closed_form

COUPLED3_A = [[-15, 6, 1], [6, 9, -8], [1, -8, 5]]
COUPLED3_B = [[-1, 16, 60], [16, 44, 90], [60, 90, 75]]


@pytest.fixture()
def matrix_files(tmp_path):
    paths = {}

    def save(name, matrix):
        path = tmp_path / f"{name}.json"
        save_matrix(matrix, path)
        paths[name] = str(path)

    save("antidiag", HermitianMatrix([[0, 1], [1, 0]]))
    save("p2", build_special("P", 2))
    save(
        "centering3",
        matrix_add(
            build_special("identity", 3),
            matrix_scale(build_special("P", 3), F(-1)),
        ),
    )
    save("a3", HermitianMatrix(COUPLED3_A))
    save("b3", HermitianMatrix(COUPLED3_B))
    save("b2", build_special("B", 2))
    save("diag100", HermitianMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))
    save("zs2a", HermitianMatrix([[1, -1], [-1, 1]]))
    save("zs2b", HermitianMatrix([[2, -2], [-2, 2]]))
    return paths


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert err == ""
    return code, json.loads(out)


def unwrap_float(value):
    assert isinstance(value, dict) and value.get("float") is True
    return float(value["value"])


def test_partitions_enumerate_json(capsys):
    code, payload = invoke_json(capsys, ["partitions", "enumerate", "--n", "3"])
    assert code == 0
    assert payload["n"] == 3 and payload["count"] == 4
    assert [p["cuts"] for p in payload["partitions"]] == [[], [1], [2], [1, 2]]
    assert payload["partitions"][0]["blocks"] == [[1, 2, 3]]
    assert payload["partitions"][3]["blocks"] == [[1], [2], [3]]


def test_partitions_enumerate_csv_and_plain(capsys):
    code, out, _ = invoke(
        capsys, ["partitions", "enumerate", "--n", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cuts,blocks"
    assert lines[1] == ",\"(1,2,3)\""
    assert lines[2] == "1,\"(1)(2,3)\""
    assert lines[4] == "1;2,(1)(2)(3)"
    code, out, _ = invoke(
        capsys, ["partitions", "enumerate", "--n", "2", "--format", "plain"]
    )
    assert code == 0
    assert out.splitlines()[0] == "cuts  blocks"


def test_cumulants_qf_json(capsys, matrix_files):
    code, payload = invoke_json(
        capsys,
        [
            "cumulants",
            "qf",
            "--matrix",
            matrix_files["antidiag"],
            "--dist",
            "custom:1,1,0,0",
            "--order",
            "2",
        ],
    )
    assert code == 0
    assert payload["cumulants"] == ["2", "2"]
    assert payload["n"] == 2


def test_cumulants_oracle_check_sampled(capsys):
    for seed in ("0", "3"):
        code, payload = invoke_json(
            capsys,
            [
                "cumulants",
                "oracle-check",
                "--dist",
                "gaussian:c=1,v=2",
                "--order",
                "3",
                "--n",
                "3",
                "--seed",
                seed,
            ],
        )
        assert code == 0
        assert payload["equal"] is True
        assert payload["matrix_source"] == f"sampled(seed={seed})"
        assert payload["engine"] == payload["oracle"]


def test_cumulants_oracle_check_rejects_complex_matrix(capsys, matrix_files):
    code, out, err = invoke(
        capsys,
        [
            "cumulants",
            "oracle-check",
            "--matrix",
            matrix_files["b2"],
            "--dist",
            "gaussian:c=0,v=1",
            "--order",
            "2",
        ],
    )
    assert code == 1
    assert out == ""
    assert "error:" in err and "imaginary" in err


def test_all_orders_take_one_chain_of_matvecs(capsys, matrix_files, monkeypatch):
    # K_1..K_R come from one DP pass: R matvecs, not the R(R+1)/2 of one
    # DP per order; the oracle side of oracle-check does no matvecs
    calls = []
    matvec = bqf.matrices._matvec

    def counted(u, a):
        calls.append(a.n)
        return matvec(u, a)

    monkeypatch.setattr(bqf.matrices, "_matvec", counted)
    for order in (1, 7, 20):
        calls.clear()
        argv = ["cumulants", "qf", "--matrix", matrix_files["a3"], "--order", str(order)]
        code, _ = invoke_json(capsys, argv + ["--dist", "poisson:lambda=3/2,alpha=2/3"])
        assert code == 0 and len(calls) == order
    for order in (1, 5):
        calls.clear()
        argv = ["cumulants", "oracle-check", "--dist", "gaussian:c=1,v=2", "--n", "2"]
        code, payload = invoke_json(capsys, argv + ["--order", str(order)])
        assert code == 0 and payload["equal"] is True and len(calls) == order


def test_stats_take_all_orders_from_one_cross_check(capsys, monkeypatch):
    # one engine pass of min(order, 4) matvecs checks every order at n <= 4,
    # not one pass per order (10 and 6 matvecs)
    calls = []
    matvec = bqf.matrices._matvec

    def counted(u, a):
        calls.append(a.n)
        return matvec(u, a)

    monkeypatch.setattr(bqf.matrices, "_matvec", counted)
    dist = ["--dist", "poisson:lambda=3/2,alpha=2/3"]
    for argv, count in (
        (["stats", "sample-variance", "--n", "3", *dist, "--order", "4"], 4),
        (["stats", "symmetrized", "--weights=1,0,-1", *dist, "--order", "3"], 3),
    ):
        calls.clear()
        code, _ = invoke_json(capsys, argv)
        assert code == 0 and len(calls) == count


def test_nonpositive_order_is_an_error_before_the_preset(capsys, matrix_files):
    # every command that builds a preset of 2 * --order cumulants refuses
    # --order < 1 first, with the value given, whatever the preset
    for dist in ("gaussian:c=0,v=1", "custom:1,2,3,4"):
        for order in (0, -2):
            tail = ["--dist", dist, f"--order={order}"]
            for argv in (
                ["cumulants", "qf", "--matrix", matrix_files["a3"]],
                ["cumulants", "oracle-check", "--n", "2"],
                ["stats", "sample-variance", "--n", "3"],
                ["stats", "shifted-sos", "--shifts", "3,4,0"],
                ["stats", "symmetrized", "--weights=1,0,-1"],
            ):
                code, out, err = invoke(capsys, argv + tail)
                assert (code, out) == (1, ""), argv + tail
                assert err == f"error: order must be positive, got {order}\n"


def test_cumulants_convert_both_directions(capsys):
    code, payload = invoke_json(
        capsys, ["cumulants", "convert", "--moments", "1,2,3"]
    )
    assert code == 0
    assert payload["cumulants"] == ["1", "1", "0"]
    assert payload["moments"] == ["1", "2", "3"]
    code, payload = invoke_json(
        capsys, ["cumulants", "convert", "--cumulants", "1,1,0", "--order", "3"]
    )
    assert code == 0
    assert payload["moments"] == ["1", "2", "3"]


def test_cumulants_convert_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cumulants", "convert"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["cumulants", "convert", "--moments", "1", "--cumulants", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cumulants_convert_order_zero_is_an_error(capsys):
    # --order 0 is an order out of range, not an absent flag
    for kind in ("--moments", "--cumulants"):
        argv = ["cumulants", "convert", kind, "1,2,3", "--order", "0"]
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "order must be positive, got 0" in err


def test_matrix_check(capsys, matrix_files):
    code, payload = invoke_json(
        capsys, ["matrix", "check", "--matrix", matrix_files["centering3"]]
    )
    assert code == 0
    assert payload["is_zero_row_sum"] is True
    assert payload["tr_ja2_zero"] is True
    assert payload["tr_jak_zero_upto_2n"] is True
    assert payload["constant_diagonal"] is True
    code, out, _ = invoke(
        capsys,
        ["matrix", "check", "--matrix", matrix_files["antidiag"], "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "is_zero_row_sum,false" in lines


def test_matrix_independence(capsys, matrix_files):
    code, payload = invoke_json(
        capsys,
        [
            "matrix",
            "independence",
            "--matrix",
            matrix_files["a3"],
            "--matrix",
            matrix_files["b3"],
        ],
    )
    assert code == 0
    assert payload["independent"] is False
    assert payload["witness_power"] == 2
    assert payload["witness_side"] == "AB"
    assert payload["kmax"] == 6
    code, payload = invoke_json(
        capsys,
        [
            "matrix",
            "independence",
            "--matrix",
            matrix_files["zs2a"],
            "--matrix",
            matrix_files["zs2b"],
            "--k",
            "5",
        ],
    )
    assert code == 0
    assert payload["independent"] is True
    assert payload["kmax"] == 1  # two-point models only see the first power
    assert payload["witness_power"] is None
    # no witness is an empty cell in csv
    code, out, _ = invoke(
        capsys,
        ["matrix", "independence", "--matrix", matrix_files["zs2a"],
         "--matrix", matrix_files["zs2b"], "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[-2:] == ["witness_power,", "witness_side,"]
    # I - P has zero row sums, so every J A^k B vanishes; J B A does not
    code, payload = invoke_json(
        capsys,
        [
            "matrix",
            "independence",
            "--matrix",
            matrix_files["centering3"],
            "--matrix",
            matrix_files["diag100"],
        ],
    )
    assert code == 0
    assert payload["independent"] is False
    assert (payload["witness_power"], payload["witness_side"]) == (1, "BA")


def test_matrix_h_series(capsys, matrix_files):
    code, payload = invoke_json(
        capsys,
        ["matrix", "h-series", "--matrix", matrix_files["p2"], "--order", "3"],
    )
    assert code == 0
    assert payload["coefficients"] == ["0", "2", "2", "2"]


def test_stats_sample_variance(capsys):
    code, payload = invoke_json(
        capsys,
        [
            "stats",
            "sample-variance",
            "--n",
            "3",
            "--dist",
            "gaussian:c=0,v=1",
            "--order",
            "2",
        ],
    )
    assert code == 0
    assert payload["cumulants"] == ["2", "0"]


def _digits_to_int(text):
    # read in 1000-digit pieces, below the interpreter's int-from-str limit
    value = 0
    for start in range(0, len(text), 1000):
        piece = text[start : start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_stats_sample_variance_prints_rationals_past_the_digit_limit(capsys):
    # K_2r = alpha^2r lambda = 10^-4800 at r = 400: the denominator has more
    # digits than str() of an int converts by default
    code, payload = invoke_json(
        capsys,
        [
            "stats",
            "sample-variance",
            "--n",
            "3",
            "--dist",
            "poisson:lambda=1,alpha=1/1000000",
            "--order",
            "400",
        ],
    )
    assert code == 0
    numerator, denominator = payload["cumulants"][-1].split("/")
    want = 3 * (1 - F(1, 3)) ** 400 * F(1, 10**4800)
    assert F(_digits_to_int(numerator), _digits_to_int(denominator)) == want
    assert len(denominator) > 4800
    with pytest.raises(DomainError):
        parse_rational("1/" + "1" * 5000)


def test_stats_shifted_sos_invariance(capsys):
    outputs = []
    for shifts in ("3,4,0", "5,0,0"):
        code, payload = invoke_json(
            capsys,
            [
                "stats",
                "shifted-sos",
                "--shifts",
                shifts,
                "--dist",
                "gaussian:c=0,v=1",
                "--order",
                "3",
            ],
        )
        assert code == 0
        assert payload["sum_squares"] == "25"
        outputs.append(payload["cumulants"])
    assert outputs[0] == outputs[1] == ["28", "100", "2600"]


def test_stats_shifted_sos_twelve_shifts_at_order_four(capsys):
    # 13^4 words of the joint polynomial would pass the term cap, but each
    # X_i^2 + 2 X_i is expanded alone; K_1 = n + s and then, for this
    # centred Gaussian family, the shift-only closed form in s = 12
    shifts = ",".join(["1"] * 12)
    argv = ["stats", "shifted-sos", f"--shifts={shifts}", "--dist", "gaussian:c=0,v=1"]
    code, payload = invoke_json(capsys, argv + ["--order", "4"])
    assert code == 0
    assert payload["cumulants"] == ["24", "48", "624", "8112"]
    assert payload["cumulants"][1:] == [str(kagan_closed_form(12, r)) for r in (2, 3, 4)]


def test_stats_shifted_sos_at_both_bounds(capsys):
    # 64 distinct shifts at the top --order, within a second in-process
    shifts = [F(i, 7) for i in range(-31, STATS_MAX_SHIFTS - 31)]
    s = sum(a * a for a in shifts)
    argv = ["stats", "shifted-sos", "--shifts=" + ",".join(map(format_rational, shifts))]
    argv += ["--dist", "gaussian:c=0,v=1", "--order", str(ORACLE_CHECK_MAX_ORDER)]
    start = time.perf_counter()
    code, payload = invoke_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 0
    want = [STATS_MAX_SHIFTS + s] + [
        kagan_closed_form(s, r) for r in range(2, ORACLE_CHECK_MAX_ORDER + 1)
    ]
    assert payload["cumulants"] == list(map(format_rational, want))


def test_stats_shifted_sos_shift_count_is_bounded(capsys):
    # the list is counted before any shift is parsed; at the bound the
    # order-1 run is quick, K_1 = sum E[(X_i + 1)^2] = 2 per shift
    dist = ["--dist", "gaussian:c=0,v=1", "--order", "1"]
    many = ",".join(["x"] * (STATS_MAX_SHIFTS + 1))
    code, out, err = invoke(capsys, ["stats", "shifted-sos", f"--shifts={many}", *dist])
    assert (code, out) == (1, "")
    assert err == (
        f"error: --shifts takes at most {STATS_MAX_SHIFTS} values, "
        f"got {STATS_MAX_SHIFTS + 1}\n"
    )
    ones = ",".join(["1"] * STATS_MAX_SHIFTS)
    code, payload = invoke_json(capsys, ["stats", "shifted-sos", f"--shifts={ones}", *dist])
    assert code == 0
    assert payload["cumulants"] == [str(2 * STATS_MAX_SHIFTS)]


def test_stats_symmetrized(capsys):
    code, payload = invoke_json(
        capsys,
        [
            "stats",
            "symmetrized",
            "--weights",
            "1,-1",
            "--dist",
            "custom:1,2,3,5",
            "--order",
            "2",
        ],
    )
    assert code == 0
    assert payload["cumulants"] == ["8", "40"]


def test_limit_tangent_csv(capsys):
    code, out, _ = invoke(
        capsys,
        [
            "limit",
            "tangent",
            "--a",
            "0",
            "--b",
            "1",
            "--n",
            "100,200",
            "--order",
            "2",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r,finite,limit,abs_error"
    # Tr(P B^2) = (n^2 - 1)/(3 n^2), rounded once, against float(1/3)
    assert lines[2] == "100,2,0.33329999999999999,0.33333333333333331,3.3333333333329662e-05"
    assert lines[4] == "200,2,0.33332499999999998,0.33333333333333331,8.3333333333324155e-06"


def test_limit_tangent_json_floats_are_wrapped(capsys):
    code, payload = invoke_json(
        capsys,
        ["limit", "tangent", "--a", "1/2", "--b", "3", "--n", "4", "--order", "1"],
    )
    assert code == 0
    assert payload["a"] == "1/2"
    row = payload["rows"][0]
    assert unwrap_float(row["finite"]) == pytest.approx(0.375, rel=1e-15)
    assert unwrap_float(row["limit"]) == 0.5


def test_approx_zeta_csv(capsys):
    code, out, _ = invoke(
        capsys, ["approx", "zeta", "--k", "1", "--n", "100", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,k,n,approx,target,rel_error"
    assert lines[1] == (
        "zeta,1,100,1.0822150013877667,1.0823232337092639,9.9999998268744295e-05"
    )


def test_approx_zigzag_csv(capsys):
    code, out, _ = invoke(
        capsys, ["approx", "zigzag", "--k", "4", "--n", "200", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[1] == (
        "zigzag,4,200,4.9999500000000001,5,9.9999999999766939e-06"
    )


def test_measure_atoms_csv(capsys):
    code, out, _ = invoke(
        capsys, ["measure", "atoms", "--pairs", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "location,mass"
    assert lines[1] == "-0.85795581792835851,0.22552330680347776"
    assert lines[3] == "0,0.5"
    assert lines[5] == "0.85795581792835851,0.22552330680347776"


def test_measure_atoms_json_total_mass(capsys):
    code, payload = invoke_json(capsys, ["measure", "atoms", "--pairs", "2"])
    assert code == 0
    assert payload["pairs"] == 2
    total = unwrap_float(payload["total_mass"])
    masses = [unwrap_float(a["mass"]) for a in payload["atoms"]]
    assert total == pytest.approx(sum(masses), abs=1e-15)
    assert len(payload["atoms"]) == 5


def test_measure_levy_csv(capsys):
    code, out, _ = invoke(
        capsys, ["measure", "levy", "--terms", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "-0.63661977236758138,0.11688429542735017"
    assert lines[4] == "0.63661977236758138,0.11688429542735017"


def test_measure_moments_csv(capsys):
    code, out, _ = invoke(
        capsys,
        ["measure", "moments", "--pairs", "50", "--order", "4", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,atom,series,error"
    assert lines[1].endswith("0.0010131951745473433")
    assert lines[2] == "1,0,0,0"
    assert lines[3].endswith("1.3685988398126625e-08")
    assert lines[4] == "3,0,0,0"
    assert lines[5].endswith("3.3278935163139067e-13")


def test_output_is_byte_identical_across_runs(capsys):
    argv = ["measure", "atoms", "--pairs", "3"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second
    argv = ["partitions", "enumerate", "--n", "4", "--format", "csv"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_exit_code_on_missing_file(capsys):
    code, out, err = invoke(
        capsys, ["matrix", "check", "--matrix", "/nonexistent/m.json"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_on_matrix_path_that_is_a_directory(capsys, tmp_path):
    code, out, err = invoke(capsys, ["matrix", "check", "--matrix", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_on_matrix_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "entries": [[["\xe9", "0"]]]}')
    code, out, err = invoke(capsys, ["matrix", "check", "--matrix", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_on_domain_error(capsys):
    # a bad rational, then a preset with a bad parameter, with none, with
    # one given twice, and an evenpoisson preset without odd=
    sample = ["stats", "sample-variance", "--n", "3", "--order", "2", "--dist"]
    cases = [
        ["cumulants", "convert", "--moments", "1,x,3"],
        sample + ["gaussian:c=1,x=2"],
        sample + ["gaussian"],
        sample + ["poisson:lambda=1,alpha=1,alpha=2"],
        sample + ["evenpoisson:x=1"],
    ]
    for argv in cases:
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_parse_rational_bounds_numerator_and_denominator():
    # each part below 2**RATIONAL_MAX_BITS; a huge decimal exponent is
    # refused before Fraction raises 10 to it (1e10000000 alone takes 13 s)
    top = 2**RATIONAL_MAX_BITS - 1
    assert parse_rational(f"-{top}/{top - 1}") == F(-top, top - 1)
    assert parse_rational("1" + "0" * 100 + "e-100") == 1
    bound = f"needs more than {RATIONAL_MAX_BITS} bits in its numerator or denominator$"
    start = time.perf_counter()
    for text in (str(top + 1), f"1/{top + 1}", "1e-10", "1e100", "1e10000000"):
        with pytest.raises(DomainError, match=f"^'{text}' {bound}"):
            parse_rational(text)
    assert time.perf_counter() - start < 1


TANGENT = ["limit", "tangent", "--n", "10", "--order", "64"]
# arrays nested past the recursion limit, also the raised one hypothesis
# runs its examples under
DEEP_JSON = "[" * 100_000 + "]" * 100_000
GAUSS = ["--dist", "gaussian:c=0,v=1", "--order", "2"]


@pytest.mark.parametrize(
    "argv, named, refused_up_front",
    [
        # K_r past the float range, with every flag inside its bound
        pytest.param(
            TANGENT + ["--a", "100000", "--b", "1"], "K_62 of the model at n = 10", False,
            id="overflow-a",
        ),
        pytest.param(
            TANGENT + ["--a", "0", "--b", "1000000"], "K_54 of the model at n = 10", False,
            id="overflow-b",
        ),
        # a 333-bit rational in each place one enters
        pytest.param(TANGENT + ["--a", "1e100", "--b", "1"], "'1e100'", True, id="a"),
        pytest.param(
            ["stats", "sample-variance", "--n", "3", "--order", "1000",
             "--dist", "poisson:lambda=1,alpha=1e100"], "'1e100'", True, id="preset",
        ),
        pytest.param(
            ["stats", "symmetrized", "--weights=1e100,-1e100"] + GAUSS, "'1e100'", True,
            id="weights",
        ),
        pytest.param(
            ["stats", "shifted-sos", "--shifts=1e100,1"] + GAUSS, "'1e100'", True,
            id="shifts",
        ),
        pytest.param(
            ["cumulants", "convert", "--moments", "1,1e100"], "'1e100'", True, id="moments"
        ),
        pytest.param(
            ["cumulants", "qf", "--matrix", "big.json"] + GAUSS, "'1e100'", True,
            id="matrix-entry",
        ),
        # JSON true is no matrix size, and json reads no int past 4300 digits
        pytest.param(
            ["matrix", "check", "--matrix", "bool.json"], "got True", True, id="bool-size"
        ),
        pytest.param(
            ["matrix", "check", "--matrix", "digits.json"], "is not valid JSON", True,
            id="digits",
        ),
        # nor arrays nested past the recursion limit
        pytest.param(
            ["matrix", "check", "--matrix", "deep.json"], "is not valid JSON", True,
            id="deep",
        ),
    ],
)
def test_hostile_input_ends_in_one_error_line(
    capsys, monkeypatch, tmp_path, argv, named, refused_up_front
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text('{"n": 1, "entries": [[["1e100", "0"]]]}')
    (tmp_path / "bool.json").write_text('{"n": true, "entries": [[["1", "0"]]]}')
    (tmp_path / "digits.json").write_text('{"n": 1, "entries": [[[1' + "0" * 5000 + ", 0]]]}")
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    start = time.perf_counter()
    code, out, err = invoke(capsys, argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert named in err and "Traceback" not in err
    assert elapsed < 1 or not refused_up_front


def test_matrix_file_is_sized_before_it_is_decoded_or_parsed(capsys, monkeypatch, tmp_path):
    # while n was checked only once every entry was parsed, this 400 x 400
    # file (1.9 MB) took 1.8 s and 76 MB a child to refuse
    def unreachable(*args):
        raise AssertionError("refused too late")

    n = 400
    rows = [[["1" if i == j else "0", "0"] for j in range(n)] for i in range(n)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": n, "entries": rows}))
    monkeypatch.setattr(matrices, "parse_rational", unreachable)
    start = time.perf_counter()
    code, out, err = invoke(capsys, ["matrix", "check", "--matrix", str(big)])
    assert time.perf_counter() - start < 0.5
    bound = f"must be at most {MATRIX_MAX_N} x {MATRIX_MAX_N}, got n = {n}"
    assert (code, out, err) == (1, "", f"error: --matrix {big} {bound}\n")
    # a valid 1 x 1 file padded past MATRIX_MAX_BYTES is never decoded
    long = tmp_path / "long.json"
    long.write_text('{"n": 1, "entries": [[["1", "0"]]]}' + " " * MATRIX_MAX_BYTES)
    monkeypatch.setattr(matrices, "json", SimpleNamespace(loads=unreachable))
    code, out, err = invoke(capsys, ["matrix", "check", "--matrix", str(long)])
    bound = f"has more than {MATRIX_MAX_BYTES} bytes"
    assert (code, out, err) == (1, "", f"error: matrix file {long} {bound}\n")


def distinct_denominators(count):
    """count rationals (2^32 - 3 - 2i)/(2^32 - 1 - 2i): each part fits in 32
    bits, but the lcm of the denominators grows by about 32 bits a value."""
    return [format_rational(F(2**32 - 3 - 2 * i, 2**32 - 1 - 2 * i)) for i in range(count)]


def test_check_denominators_bounds_the_lcm():
    top = 2**DENOMINATOR_MAX_BITS - 1
    check_denominators([F(1, top), F(5, top)], "values")
    check_denominators([F(1, 2), F(1, 2**31 - 1)], "values")  # lcm 2^32 - 2
    bound = f"^the values need a common denominator of more than {DENOMINATOR_MAX_BITS} bits"
    with pytest.raises(DomainError, match=bound + r" \(at 1/2147483647\)$"):
        check_denominators([F(1, 4), F(1, 2**31 - 1), F(1, 3)], "values")
    with pytest.raises(DomainError, match=bound + f" \\(at 1/{top + 1}\\)$"):
        check_denominators([F(1, top + 1)], "values")


def test_distinct_denominators_are_refused_before_any_work(capsys, tmp_path):
    # a 64 x 64 file whose 2080 entries each have their own 32-bit
    # denominator (a den of about 66 000 bits), and 16 such weights: each
    # ran past 150 s, and building that matrix alone takes seconds
    n = MATRIX_MAX_N
    values = iter(distinct_denominators(n * (n + 1) // 2))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = [next(values), "0"]
    path = tmp_path / "distinct.json"
    path.write_text(json.dumps({"n": n, "entries": rows}))
    weights = ",".join(f"{w},-{w}" for w in distinct_denominators(8))
    cases = [
        (["matrix", "h-series", "--matrix", str(path), "--order", "512"], "matrix entries"),
        (["cumulants", "qf", "--matrix", str(path), "--dist", "gaussian:c=1,v=1",
          "--order", "64"], "matrix entries"),
        (["stats", "symmetrized", "--weights", weights, "--order", "1000",
          "--dist", "poisson:lambda=3/2,alpha=2/3"], "list values"),
        (["cumulants", "convert", "--cumulants", ",".join(distinct_denominators(400))],
         "list values"),
        (["stats", "shifted-sos", "--shifts=" + weights, *GAUSS], "list values"),
    ]
    for argv, what in cases:
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1, argv[:2]
        assert (code, out) == (1, "")
        assert err == (
            f"error: the {what} need a common denominator of more than "
            f"{DENOMINATOR_MAX_BITS} bits (at 4294967291/4294967293)\n"
        )
    # two 16-bit denominators stay inside the bound
    weights = "1/65536,-1/65536,1/65535,-1/65535"
    assert invoke(capsys, ["stats", "symmetrized", "--weights", weights, *GAUSS])[0] == 0


def test_empty_list_entries_are_refused(capsys):
    # an empty piece of a list is refused like the flag's other malformed
    # values, not dropped: a usage error for --n, a domain error otherwise
    cases = [
        (["approx", "zigzag", "--k", "3"], "--n", ",5,", 2),
        (["limit", "tangent", "--a", "0", "--b", "1", "--order", "2"], "--n", "5,", 2),
        (["stats", "symmetrized", *GAUSS], "--weights", "1,,-1", 1),
        (["stats", "shifted-sos", *GAUSS], "--shifts", ",3", 1),
        (["cumulants", "convert"], "--moments", "1,2,", 1),
        (["cumulants", "convert"], "--cumulants", ",", 1),
        (["stats", "sample-variance", "--n", "3", "--order", "2"], "--dist", "custom:1,,2", 1),
    ]
    for head, flag, value, want in cases:
        for spelling in ([flag, value], [f"{flag}={value}"]):
            argv = head + spelling
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out) == (want, ""), argv
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and errors[0].endswith(
                f"the list {value.partition(':')[2] or value!r} has an empty entry"
            ), argv
    # a key=value preset refuses an empty parameter too
    for spelling in (["--dist", "gaussian:c=1,,v=2"], ["--dist=gaussian:c=1,,v=2"]):
        argv = ["stats", "sample-variance", "--n", "3", "--order", "2", *spelling]
        assert invoke(capsys, argv) == (
            1, "", "error: bad preset parameter '', expected one of ['c', 'v']\n"
        )


def test_exponential_arguments_are_bounded_up_front(capsys, matrix_files, tmp_path):
    # each bound is probed at limit + 1 only; it refuses before any work.
    # The Krylov lengths are bounded too: I - P is independent of itself,
    # so an unbounded --k scan would run to the end.
    c3 = matrix_files["centering3"]
    cases = [
        (["partitions", "enumerate", "--n", str(PARTITIONS_MAX_N + 1)], "--n"),
        (
            [
                "cumulants",
                "oracle-check",
                "--dist",
                "gaussian:c=1,v=2",
                "--order",
                str(ORACLE_CHECK_MAX_ORDER + 1),
            ],
            "--order",
        ),
        (
            [
                "cumulants",
                "qf",
                "--matrix",
                c3,
                "--dist",
                "poisson:lambda=1,alpha=1",
                "--order",
                str(QF_MAX_ORDER + 1),
            ],
            "--order",
        ),
        (
            ["matrix", "h-series", "--matrix", c3, "--order", str(H_SERIES_MAX_ORDER + 1)],
            "--order",
        ),
        (
            [
                "matrix",
                "independence",
                "--matrix",
                c3,
                "--matrix",
                c3,
                "--k",
                str(INDEPENDENCE_MAX_K + 1),
            ],
            "--k",
        ),
    ]
    # a matrix file's n is refused as soon as that file is loaded, here
    # before the sizes of the pair are compared
    big = str(tmp_path / "big.json")
    save_matrix(build_special("identity", MATRIX_MAX_N + 1), big)
    cases += [
        (["matrix", "h-series", "--matrix", big, "--order", "2"], "--matrix"),
        (["matrix", "independence", "--matrix", c3, "--matrix", big], "--matrix"),
    ]
    # the series orders and atom counts: a few seconds each at the limit,
    # a hang, a traceback or an out-of-memory crash well above it
    dist = ["--dist", "gaussian:c=1,v=2"]
    pairs, order = str(MEASURE_MAX_PAIRS + 1), str(MOMENTS_MAX_ORDER + 1)
    cases += [
        (["measure", "atoms", "--pairs", pairs], "--pairs"),
        (["measure", "moments", "--pairs", pairs, "--order", "2"], "--pairs"),
        (["measure", "moments", "--pairs", "2", "--order", order], "--order"),
        (["measure", "levy", "--terms", pairs], "--terms"),
        (
            ["limit", "tangent", "--a", "0", "--b", "1", "--n", "4"]
            + ["--order", str(LIMIT_MAX_ORDER + 1)],
            "--order",
        ),
        (
            ["cumulants", "oracle-check", *dist, "--order", "2"]
            + ["--n", str(ORACLE_CHECK_MAX_N + 1)],
            "--n",
        ),
    ]
    # the model sizes: a list takes at most MODEL_MAX_COUNT of them, and the
    # exact rationals grow with their digits; the oracle's --n holds with
    # --matrix too, and a bound refuses before a missing file is read
    big_n, many_n = str(MODEL_MAX_N + 1), ",".join(["4"] * (MODEL_MAX_COUNT + 1))
    tangent = ["limit", "tangent", "--a", "1/2", "--b", "1", "--order", "2"]
    cases += [
        (tangent + ["--n", big_n], "--n"),
        (tangent + ["--n", many_n], "--n"),
        (["stats", "sample-variance", "--n", big_n, *dist, "--order", "2"], "--n"),
        (
            ["cumulants", "oracle-check", "--matrix", c3, *dist, "--order", "2"]
            + ["--n", str(ORACLE_CHECK_MAX_N + 1)],
            "--n",
        ),
        (
            ["cumulants", "qf", "--matrix", c3 + ".missing", *dist]
            + ["--order", str(QF_MAX_ORDER + 1)],
            "--order",
        ),
    ]
    for kind in ("zeta", "tangent", "zigzag"):
        cases.append((["approx", kind, "--k", str(APPROX_MAX_K + 1), "--n", "4"], "--k"))
        cases.append((["approx", kind, "--k", "1", "--n", f"4,{big_n}"], "--n"))
        cases.append((["approx", kind, "--k", "1", "--n", many_n], "--n"))
    stats_order = ["--order", str(STATS_MAX_ORDER + 1)]
    cases += [
        (["stats", "sample-variance", "--n", "3", *dist, *stats_order], "--order"),
        (["stats", "symmetrized", "--weights=1,-1", *dist, *stats_order], "--order"),
        (
            ["stats", "shifted-sos", "--shifts=1", *dist]
            + ["--order", str(ORACLE_CHECK_MAX_ORDER + 1)],
            "--order",
        ),
    ]
    # the rational lists are counted before any piece is parsed
    weights = ",".join(["x"] * (STATS_MAX_WEIGHTS + 1))
    values = ",".join(["x"] * (CONVERT_MAX_VALUES + 1))
    convert = ["cumulants", "convert", "--order", "2"]
    cases += [
        (["stats", "symmetrized", "--weights", weights, *dist, "--order", "2"],
         "--weights"),
        (convert + ["--moments", values], "--moments"),
        (convert + ["--cumulants", values], "--cumulants"),
    ]
    for argv, flag in cases:
        code, out, err = invoke(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and flag in err


def test_exit_code_on_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["partitions", "enumerate"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["approx", "gamma", "--k", "1", "--n", "10"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_flags_are_checked_by_the_parser(capsys, matrix_files):
    # a list where one n is taken, an --n list with a non-integer or no
    # value, --seed where nothing is sampled, and a --matrix count other
    # than the subcommand's are usage errors
    c3 = matrix_files["centering3"]
    oracle = ["cumulants", "oracle-check", "--dist", "gaussian:c=1,v=2", "--order", "2"]
    cases = [
        (oracle + ["--n", "3,5"], "--n"),
        (["approx", "zeta", "--k", "1", "--n", "10,x"], "--n"),
        (["approx", "zeta", "--k", "1", "--n", ","], "--n"),
        (["approx", "zeta", "--k", "1", "--n", "10", "--seed", "1"], "--seed"),
        (["matrix", "check"], "--matrix"),
        (["matrix", "check", "--matrix", c3, "--matrix", c3], "--matrix"),
    ]
    for argv, flag in cases:
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        last = err.splitlines()[-1]
        assert "error:" in last and flag in last


def test_nonpositive_model_size_is_refused_before_any_work(capsys):
    # each listed n costs one series, seconds at --k 64; a size below 1 is
    # a usage error before the first of them
    argvs = [
        ["approx", kind, "--k", str(APPROX_MAX_K), "--n", "1000000,-1"]
        for kind in ("zeta", "tangent", "zigzag")
    ]
    argvs.append(["limit", "tangent", "--a", "1/2", "--b", "1", "--order", "64", "--n", "5,0"])
    for argv in argvs:
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert time.perf_counter() - start < 0.5
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"error: argument --n: not a list of positive integers: {argv[-1]!r}"
        )


def test_main_entry_point_subprocess():
    # the child imports the same bqf as this process, installed or not
    path = [os.path.dirname(os.path.dirname(bqf.__file__)), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "from bqf.cli import main; raise SystemExit(main("
         "['partitions', 'enumerate', '--n', '2', '--format', 'plain']))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "cuts  blocks"


def test_each_subcommand_imports_only_the_layers_it_calls():
    # start-up is most of a CLI call, so a subcommand loads no layer it
    # never calls; a fresh child per case lists the bqf modules it loaded
    path = [os.path.dirname(os.path.dirname(bqf.__file__)), os.environ.get("PYTHONPATH")]
    layers = {"partitions", "cumulants", "matrices", "series", "stats", "measure"}
    cases = [
        ([], layers),
        (["approx", "zeta", "--k", "1", "--n", "10"], layers - {"series", "measure"}),
        (
            ["partitions", "enumerate", "--n", "3"],
            {"series", "measure", "matrices", "cumulants"},
        ),
    ]
    script = (
        "import sys\n"
        "import bqf.cli\n"
        "if sys.argv[1:]:\n"
        "    assert bqf.cli.main(sys.argv[1:]) == 0\n"
        "print(*(m[4:] for m in sys.modules if m.startswith('bqf.')), file=sys.stderr)\n"
    )
    for argv, unwanted in cases:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.split())
        assert not loaded & unwanted, (argv, sorted(loaded))


def test_no_subcommand_loads_the_oracles(tmp_path):
    # bqf.oracles serves the tests alone: one child runs every subcommand
    # that reads a matrix, runs the engine or the polynomial oracle, or
    # calls stats, and has not loaded it
    path = [os.path.dirname(os.path.dirname(bqf.__file__)), os.environ.get("PYTHONPATH")]
    matrix = str(tmp_path / "a.json")
    save_matrix(HermitianMatrix([[1, F(1, 2)], [F(1, 2), -2]]), matrix)
    dist = ["--dist", "gaussian:c=1,v=2"]
    commands = [
        ["cumulants", "qf", "--matrix", matrix, *dist, "--order", "4"],
        ["cumulants", "oracle-check", "--n", "3", *dist, "--order", "3", "--seed", "7"],
        ["cumulants", "oracle-check", "--matrix", matrix, *dist, "--order", "3"],
        ["matrix", "check", "--matrix", matrix],
        ["matrix", "independence", "--matrix", matrix, "--matrix", matrix, "--k", "2"],
        ["matrix", "h-series", "--matrix", matrix, "--order", "4"],
        ["stats", "sample-variance", "--n", "3", "--dist", "gaussian:c=0,v=1", "--order", "2"],
        ["stats", "shifted-sos", "--shifts", "3,4,0", "--dist", "gaussian:c=0,v=1", "--order", "3"],
        ["stats", "symmetrized", "--weights", "1,0,-1", "--dist", "custom:1,2,3,5", "--order", "2"],
    ]
    script = (
        "import json, sys\n"
        "import bqf.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert bqf.cli.main(argv) == 0, argv\n"
        "assert 'bqf.oracles' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count('"equal": true') == 2


def test_a_closed_reader_ends_the_child_quietly():
    # like `| head`: the reader goes away before the 0.8 MB of JSON, more
    # than a pipe holds, is written; main() exits 1 and the interpreter's
    # shutdown flush raises nothing
    path = [os.path.dirname(os.path.dirname(bqf.__file__)), os.environ.get("PYTHONPATH")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bqf.cli", "measure", "atoms", "--pairs", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_cli_and_layers_import_neither_dataclasses_nor_inspect():
    # the value types are namedtuples, so a CLI child pays for neither
    # module; one fresh child imports the CLI and every layer
    path = [os.path.dirname(os.path.dirname(bqf.__file__)), os.environ.get("PYTHONPATH")]
    script = (
        "import sys\n"
        "import bqf.cli, bqf.partitions, bqf.cumulants, bqf.series\n"
        "import bqf.matrices, bqf.stats, bqf.measure\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_every_bound_is_named_in_the_readme():
    # a bound added to bqf.cli lands with its line in the README's list
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    bounds = [name for name in vars(cli) if re.fullmatch(r"[A-Z_]+_MAX_[A-Z_]+", name)]
    assert len(bounds) >= 17
    assert [name for name in bounds if f"(`{name}`)" not in text] == []


def test_zeta_approximations_run_without_numpy():
    # bqf has no runtime dependency: a child that cannot import numpy
    # still computes both zeta targets, the k = 1 row byte for byte
    path = [os.path.dirname(os.path.dirname(bqf.__file__)), os.environ.get("PYTHONPATH")]
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from bqf.cli import main\n"
        "assert main(['approx', 'zeta', '--k', '0', '--n', '5']) == 0\n"
        "raise SystemExit(main(['approx', 'zeta', '--k', '1', '--n', '100',"
        " '--format', 'csv']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "zeta,1,100,1.0822150013877667,1.0823232337092639,9.9999998268744295e-05"
    )


def test_main_uses_provided_argv(capsys):
    assert main(["partitions", "enumerate", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1


# sha256 of the stdout of each README example in json, csv and plain: the
# CLI's bytes are a contract, so a refactor of the output code keeps them
README_STDOUT_SHA256 = {
    "bqf partitions enumerate --n 3": (
        "97bf7f1588521c9d65c33a0115e0956c9976820ec576200a7ab69276bb30d364",
        "2c2551ed8f4ed37aeb2faf767308d40b5067f8376fb32543e56807a4ff5c3376",
        "9e0f238d74a8b11dff71aaa5c68cecfd3fab989508f1a317ca57d6dd2b17abea",
    ),
    "bqf cumulants qf --matrix a.json --dist gaussian:c=1,v=2 --order 4": (
        "46c0f409e2f82e1ea9d52b16ec385615ea4c4336ae5a76f1102ce8a7e93ff9d9",
        "6711a38a61b64526ee8621375b2cc69752630d943f3e9c2fa93eaf5aeea5e640",
        "213d5f38ec95f635d0a83e81b3adae488b0b34a9096c3f854d2e60e10d2047cc",
    ),
    "bqf cumulants oracle-check --n 3 --dist gaussian:c=1,v=2 --order 3 --seed 7": (
        "5a1fe0c0c7ddccee7ca4fb1d1535160a54163955f5c1e8ffaeb3fa7309e01fda",
        "a4f93b2f1a3d4b5d061920921e522d358be061c39b12f2a68bbed64cd1ecd17b",
        "463031a19fbdbbdb5114bc7759a9e448910e0fb7f5baee728be31eb63f68b1d9",
    ),
    "bqf cumulants convert --moments 1,2,3,5": (
        "969a1e91bb30a8c02135e429828d6c63fb25a3a0fb5b8df0cd72deddb6fa74bf",
        "3bdbaff0d918a0990a7e73c6f9de638a54c09eb1c291f644a0ae0482887b4dfd",
        "b376535b1b7aa9c1d9ab3d950a09e2d1dc529c6848872bcfe0705bbca7939191",
    ),
    "bqf cumulants convert --cumulants 1,1,1,2": (
        "26360783d3a88941f9afad840f1488d369dc94629e647fd1b66d07a2961c36a7",
        "051a0c042cfe59857ab7e05176563289e3d015edd3d6adba448d391f8964ee24",
        "8cddbb078fee32786de9d5f2b2ea1ecc61363100542cd9d2c53d6c50fa1db4a2",
    ),
    "bqf matrix check --matrix a.json": (
        "0b59bdb8df7eaacd2e536e5f95808be0501e28f530ee2d60564f89087a656728",
        "807f80a7fab0e83ae7a4faf4d4de0fbad3a241cb3b11a919a7095cacb0038bce",
        "6ee60ed38091e57694933f2d610d015d5ef5dcf8a1a0e27e1d3a048629a0509a",
    ),
    "bqf matrix independence --matrix a.json --matrix b.json --k 6": (
        "5d72f1d49ac52a0e35e64e920c68e6c6b935060376ec62c4e4e09d85da37f1d1",
        "3100703ed57ef79471670ddebc2ad60cf3f00fced810dbdd6cf5e971342a3a50",
        "6a2854657f53935ce4b601e87cd7ff95d6cf27766f085117874aede5908022f3",
    ),
    "bqf matrix h-series --matrix a.json --order 6": (
        "c96ec138cfc8971984bfdb6c56aa1c826c946df5b127b1b2382631be59fe0637",
        "484ac24c435e4b01a8db5d6a9c822027dd43c9abc1803fcc423c394567786957",
        "101c11d2984f463b3eabf8a402d3ab99f9c122eb08e5562dfa6c2654f31be835",
    ),
    "bqf stats sample-variance --n 3 --dist gaussian:c=0,v=1 --order 2": (
        "c7ce789ed0d5178444182946609c4d1a63a480fc3830c7f3bf6b2a32ff4b9c90",
        "bb3d938f0961f76ca500affbfd25c47ae21aa7bf058d14787fa6133953a945c8",
        "cc1e3202d20e2411f3819b46e715ccb154f1c00071e59f4f99929840503ff9f7",
    ),
    "bqf stats shifted-sos --shifts 3,4,0 --dist gaussian:c=0,v=1 --order 3": (
        "b7c5a38304014180141ef7b94335773fbb15f49f5dbcb064b573de5be1260373",
        "8309b91d28fe565b3342f4158399e817bf34c2b9e6a60a9bda29e4320e35c397",
        "2652c70bcc20c961bd2ac6a3e778fc1fc0cef0ab499435798f82fe842d259529",
    ),
    "bqf stats symmetrized --weights 1,0,-1 --dist custom:1,2,3,5 --order 2": (
        "366d19772a12e235033692933419884bd0048e616342811cc06c5fb7c365c261",
        "1754c603cfdd12ab5cf0377d7a33450e04d7ed698c38486a70f0231905bad69e",
        "4969edff3380acd858b2c414140ea3185092f66a1989e8c7e643fdd922675e83",
    ),
    "bqf limit tangent --a 0 --b 1 --n 100,200 --order 2 --format csv": (
        "4404295395ec610fff9910c16213849de5db3db5468622c36f6479afcf4c49d7",
        "15af2bd4dcced7aa967cfe7081614902935fc92e772a998bde73827379ebc5dc",
        "a6a19be58e993a7f3aaae62f7490e929d2764ab983eea52d32f0bdc9878d8a8e",
    ),
    "bqf approx zeta --k 1 --n 100 --format csv": (
        "496d145f8d5017bd8173e7e0107ed85d470c1e269e55a65def17a9f894eade80",
        "1ba7d29e683f77e6ad07e60b539624383100f702a2ab0545ef41237c9c1f1b4a",
        "3f458f9ffe2b2c9bbb4b29a609b6cfcbda9858024e29a6abc25fcd159a2f71b4",
    ),
    "bqf approx tangent --k 1 --n 200": (
        "d2ea1a097cf0c5307fb040549b93d3d844393aee6d7071e65ab248cb38b2ca49",
        "ff68d6e5b9e7a1491499bc719b04da07989b4ab824fcc6fab0fa503b8076ef5d",
        "0e3f451037052def73e0f472cf32dc9f4bedcab875acb363177e59999f383480",
    ),
    "bqf approx zigzag --k 4 --n 200 --format csv": (
        "ce9cb65b77d7eb8e3fbd74ea8271a6b5586b8733e50aa4ef6a5483652beb44d2",
        "cb8db138b29e67d590c49a38f114779dc7d9b8ab5e5438d73ec40ba93d76e475",
        "f11c1b3ab27af88aa615da2124e44ced397907003989c2be7394c7997e08dc76",
    ),
    "bqf measure atoms --pairs 50": (
        "905b95b88cbf7db8dcd7d91a2377abbade8a582df0615400d1937a7cac25e89b",
        "ef9ed622a289901a73e789b0fb5b1e7d584a589d02811c7357d6086f8fdb3fa8",
        "5d69f4b9ba2703e8a539b7814573302acf389e7cc31e32e554c45f6bfb0303cd",
    ),
    "bqf measure levy --terms 10000": (
        "318fced8103fa5d11e1797a329b500b39d3494c2d67832354fbdbd91195032d3",
        "eaa7b410c8c332d6f816ccad0f3b579e93e15e3574dfd8c0145a86a91f88a91c",
        "91e06f9ce52f4176afdf2a3fcdbc3d4dfb32f21dcdee97d451903112caa43ce3",
    ),
    "bqf measure moments --pairs 50 --order 4 --format csv": (
        "8f9d537725f3a3f90629260fedf0602d388752a62292e8f96ddd85279937ea94",
        "d5b71ffbcc286eb3f53468a61a714d763132f18d183bb72d5fe887a890c154ff",
        "cf1a8b9c9602ba868d04926ab98dc3168e2e58d6588ee74e7729f07506805b83",
    ),
}


def test_readme_examples_run(capsys, monkeypatch, tmp_path):
    # every bqf line of the README's example block, with a.json and b.json
    # two real symmetric 3 x 3 matrices, prints the recorded bytes in each
    # format
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## Command-line tool.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("bqf ")]
    assert lines == list(README_STDOUT_SHA256)
    save_matrix(HermitianMatrix(COUPLED3_A), tmp_path / "a.json")
    save_matrix(HermitianMatrix(COUPLED3_B), tmp_path / "b.json")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        for fmt, want in zip(("json", "csv", "plain"), README_STDOUT_SHA256[line]):
            code, out, err = invoke(capsys, shlex.split(line)[1:] + ["--format", fmt])
            assert (code, err) == (0, ""), line
            assert hashlib.sha256(out.encode()).hexdigest() == want, (line, fmt)


def _json_value(value):
    """The tree that json.dumps(indent=2) once wrote for the CLI: the
    oracle for the one-pass writer _json."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, F):
        return format_rational(value)
    if isinstance(value, float):
        return {"float": True, "value": _fmt_float(value)}
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


# quotes, backslashes, control characters and non-ASCII text turn up often
JSON_TEXT = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f ab\xe9\u2028\u4e2d\U0001f600'))
JSON_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, math.inf, -math.inf, math.nan]
)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | JSON_TEXT
    | st.builds(F, st.integers(), st.integers(min_value=1))
    | JSON_FLOATS
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(JSON_TEXT, children),
    max_leaves=25,
)


@settings(max_examples=40, deadline=None)
@given(JSON_TREES)
@example({"empty": [], "none": {}, "tuple": (), "nested": [[{}], ([],)]})
@example([-0.0, 5e-324, math.inf, -math.inf, math.nan, True, 0, -(10**40), F(-7, 3)])
def test_json_writer_matches_json_dumps_property(value):
    assert _json(value) == json.dumps(_json_value(value), indent=2)


# keys with quotes, escapes and "%", which the row template must not read
TABLE_KEYS = st.text(st.sampled_from('%"\\\x00\n\xe9\u2028\U0001f600 a.17gs'))


@st.composite
def json_tables(draw):
    header = tuple(draw(st.lists(TABLE_KEYS, unique=True, max_size=4)))
    cells = JSON_FLOATS if draw(st.booleans()) else JSON_LEAVES  # floats only: template
    rows = draw(st.lists(st.tuples(*[cells] * len(header)), max_size=5))
    return header, rows, draw(st.integers(min_value=0, max_value=len(header)))


@settings(max_examples=60, deadline=None)
@given(json_tables())
@example(
    (("location", "mass"), [(-0.0, 5e-324), (math.inf, -math.inf), (math.nan, 1.5)], 0)
)
@example((("kind", "k", "n%s"), [("zeta", 1, 0.5), ("zeta", 1, None)], 2))
@example((("a", "b"), [], 0))
@example(((), [(), ()], 0))
@example((("a", "b"), [(1, 2.0)], 2))
def test_table_writer_matches_list_of_dicts_property(table):
    # the table written from its row tuples is _json of one dict per row
    header, rows, skip = table
    dicts = [dict(zip(header[skip:], row[skip:])) for row in rows]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args = argparse.Namespace(format="json")
        cli._emit_table(args, {"n": 1}, "rows", header, rows, skip)
    assert out.getvalue() == _json({"n": 1, "rows": dicts}) + "\n"
    cut = [row[skip:] for row in rows]
    assert _json([[cli._Table(header[skip:], cut)]]) == _json([[dicts]])


def test_json_writer_refuses_other_types():
    for value in (object(), {"a": [1, {2}]}, b"bytes", 1j):
        with pytest.raises(TypeError, match="cannot serialize"):
            _json(value)


def _subparsers(parser):
    """name -> parser of the commands an argparse parser routes to."""
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_parser_declares_only_the_named_command(capsys, monkeypatch):
    # the narrow tree holds only the named group and command, and its help
    # text at all three levels is the full tree's
    full = _build_parser([])
    for group, group_parser in _subparsers(full).items():
        for command, command_parser in _subparsers(group_parser).items():
            narrow = _build_parser([group, command, "--format", "csv"])
            assert list(_subparsers(narrow)) == [group]
            narrow_group = _subparsers(narrow)[group]
            assert list(_subparsers(narrow_group)) == [command]
            assert narrow.format_help() == full.format_help()
            assert narrow_group.format_help() == group_parser.format_help()
            narrow_command = _subparsers(narrow_group)[command]
            assert narrow_command.format_help() == command_parser.format_help()

    # three parsers for a routed argv, against all 25 for the full tree
    built = []
    init = argparse.ArgumentParser.__init__
    with monkeypatch.context() as patch:
        patch.setattr(
            argparse.ArgumentParser,
            "__init__",
            lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k),
        )
        _build_parser(["approx", "zeta", "--k", "1", "--n", "3"])
        assert built == ["bqf", "bqf approx", "bqf approx zeta"]
        built.clear()
        _build_parser(["approx", "-h"])
        assert len(built) == 25

    # run gives the same exit code, stdout and stderr as with the full parser
    zeta = ["zeta", "--k", "1", "--n", "3"]
    argvs = [
        [],
        ["-h"],
        ["approx", "-h"],
        ["approx", "zeta", "-h"],
        ["approx", "zeta", "-h", "--k", "x"],
        ["approx", "--", *zeta],
        ["--", "approx", *zeta],
        ["approx", "--format", "csv", *zeta],
        ["approx", *zeta, "--form", "csv"],
        ["approx", "zeta", "--k", "1"],
        ["approx", "zeta", "--k", "1", "--n", "3", "--format", "xml"],
        ["approx", "zeta", "--k", "1", "--n", "3", "--seed", "1"],
        ["approx", "zeta", "--k", "65", "--n", "3"],
        ["aprox", *zeta],
        ["approx", "gamma", "--k", "1", "--n", "3"],
        ["measure", "levy", "--terms", "2", "--format", "plain"],
    ]

    def outcomes():
        results = []
        for argv in argvs:
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    narrow = outcomes()
    codes = [code for code, _, _ in narrow]
    assert codes == [2, 0, 0, 0, 0, 2, 2, 2, 0, 2, 2, 2, 1, 2, 2, 0]
    # the full tree names the arguments, not every choice, in these errors
    assert "bqf: error: argument group: invalid choice: 'aprox'" in narrow[13][2]
    assert "bqf approx: error: argument command: invalid choice: 'gamma'" in (
        narrow[14][2]
    )
    monkeypatch.setattr(cli, "_build_parser", lambda argv: _build_parser([]))
    assert outcomes() == narrow


# (good, hostile) values for each kind of declared flag, all cheap to run:
# no order, size or count above 3, so an argv that passes every check
# finishes in milliseconds.
INTS = (["1", "2", "3"], ["-1", "0", "x", "1/0", "nan", "1e999999999"])
N_LISTS = (["3", "2,3"], ["0", "-1", "5,0", "1000000,-1", ",", "3,x", "2,,3"])
RATIONALS = (["0", "1/2", "-1"], ["1/0", "nan", "1e999999999", "x"])
RATIONAL_LISTS = (
    ["1,2", "1/2,-1"],
    ["1,1/0", "nan", "1e999999999,1", ",", "1,2,", ",".join(distinct_denominators(2))],
)
PRESETS = (
    ["gaussian:c=0,v=1", "poisson:lambda=3/2,alpha=2/3"],
    ["evenpoisson:odd=1/0", "custom:1,nan", "gaussian:c=1e999999999,v=1", "poisson:lambda=1"],
)


@st.composite
def declared_argvs(draw, commands, matrix_paths):
    """An argv of one of the commands, ((group, command), flag actions), its
    flags in either spelling and any order.  Each flag is mostly given
    (--matrix 0 to 3 times), mostly with a good value of its declared kind
    and otherwise with a hostile one."""
    (group, command), actions = draw(st.sampled_from(commands))
    pieces = []
    for action in actions:
        flag = action.option_strings[0]
        if action.choices:
            pool = (list(action.choices), ["xml"])
        elif action.type is int:
            pool = INTS
        elif action.type is cli._int_list:
            pool = N_LISTS
        elif flag == "--matrix":
            pool = matrix_paths
        elif flag == "--dist":
            pool = PRESETS
        elif flag in ("--a", "--b"):
            pool = RATIONALS
        else:
            pool = RATIONAL_LISTS
        if flag == "--matrix":
            count = draw(st.sampled_from([1, 2, 0, 3]))
        else:
            count = int(draw(st.integers(0, 7)) < 7)
        for _ in range(count):
            good, hostile = pool
            value = draw(st.sampled_from(hostile if draw(st.integers(0, 3)) == 3 else good))
            pieces.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    return [group, command, *[t for piece in draw(st.permutations(pieces)) for t in piece]]


def _indexed(payload, *keys, start=1):
    return [[i, *cells] for i, cells in enumerate(zip(*(payload[k] for k in keys)), start)]


def _blocks(blocks):
    return "".join("(" + ",".join(map(str, block)) + ")" for block in blocks)


# (group, command) -> the rows of its csv and plain tables, read from its
# JSON payload
JSON_TABLES = {
    ("partitions", "enumerate"): lambda p: [
        [";".join(map(str, q["cuts"])), _blocks(q["blocks"])] for q in p["partitions"]
    ],
    ("cumulants", "qf"): lambda p: _indexed(p, "cumulants"),
    ("cumulants", "oracle-check"): lambda p: _indexed(p, "engine", "oracle"),
    ("cumulants", "convert"): lambda p: _indexed(p, "moments", "cumulants"),
    ("matrix", "check"): lambda p: list(map(list, p.items())),
    ("matrix", "independence"): lambda p: list(map(list, p.items())),
    ("matrix", "h-series"): lambda p: _indexed(p, "coefficients", start=0),
    ("stats", "sample-variance"): lambda p: _indexed(p, "cumulants"),
    ("stats", "shifted-sos"): lambda p: _indexed(p, "cumulants"),
    ("stats", "symmetrized"): lambda p: _indexed(p, "cumulants"),
    ("limit", "tangent"): lambda p: [list(row.values()) for row in p["rows"]],
    **{
        ("approx", kind): lambda p: [[p["kind"], p["k"], *row.values()] for row in p["rows"]]
        for kind in ("zeta", "tangent", "zigzag")
    },
    ("measure", "atoms"): lambda p: [list(row.values()) for row in p["atoms"]],
    ("measure", "levy"): lambda p: [list(row.values()) for row in p["atoms"]],
    ("measure", "moments"): lambda p: [list(row.values()) for row in p["rows"]],
}


def _json_cell(value) -> str:
    """A JSON scalar as the csv and plain tables write it."""
    if isinstance(value, dict):  # the float wrapper
        return value["value"]
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


# every refusal of a generated argv returns within this many seconds
REFUSAL_SECONDS = 1


def test_generated_argvs_keep_the_cli_contract(tmp_path):
    # every argv ends in exit code 0, 1 or 2 with no traceback, and a
    # failure prints exactly one error: line within REFUSAL_SECONDS; an
    # argv that succeeds holds the same cells in its json, csv and plain
    # tables
    good = tmp_path / "good.json"
    save_matrix(HermitianMatrix([[1, F(-1, 2)], [F(-1, 2), 0]]), good)
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    distinct = tmp_path / "distinct.json"
    x, y = distinct_denominators(2)
    distinct.write_text(json.dumps({"n": 2, "entries": [[[x, "0"], ["0", "0"]],
                                                        [["0", "0"], [y, "0"]]]}))
    paths = ([str(good)], [str(deep), str(tmp_path / "missing.json"), str(distinct)])
    commands = [
        ((group, command), [a for a in parser._actions if a.dest != "help"])
        for group, group_parser in _subparsers(_build_parser([])).items()
        for command, parser in _subparsers(group_parser).items()
    ]

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start

    @settings(max_examples=150, deadline=None)
    @given(declared_argvs(commands, paths))
    @example(["matrix", "check", "--matrix", str(deep)])
    @example(["limit", "tangent", "--a", "0", "--b", "1", "--order", "2", "--n", "5,0"])
    # one success for each table the generated argvs reach least often
    @example(["cumulants", "qf", "--matrix", str(good), "--dist", PRESETS[0][1], "--order", "3"])
    @example(["cumulants", "oracle-check", "--dist", PRESETS[0][1], "--order", "3"])
    @example(["cumulants", "convert", "--cumulants", "1/2,-1", "--order", "1"])
    @example(["matrix", "independence", "--matrix", str(good), "--matrix", str(good)])
    @example(["matrix", "h-series", "--matrix", str(good), "--order", "3"])
    @example(["stats", "sample-variance", "--n", "3", "--dist", PRESETS[0][0], "--order", "3"])
    @example(["stats", "symmetrized", "--weights", "1/2,-1/2", "--dist", PRESETS[0][1],
              "--order", "3"])
    @example(["approx", "tangent", "--k", "2", "--n", "2,3"])
    def check(argv):
        code, _, err, elapsed = outcome(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == (code != 0), (argv, err)
        if code:
            assert elapsed < REFUSAL_SECONDS, argv
            return
        # the last --format wins
        tables = {fmt: outcome(argv + ["--format", fmt])[1] for fmt in ("json", "csv", "plain")}
        want = [list(map(_json_cell, row)) for row in
                JSON_TABLES[tuple(argv[:2])](json.loads(tables["json"]))]
        csv_rows = list(csv.reader(io.StringIO(tables["csv"])))
        plain_rows = [line.split("  ") for line in tables["plain"].splitlines()]
        assert csv_rows[0] == plain_rows[0], argv
        assert csv_rows[1:] == plain_rows[1:] == want, argv

    check()

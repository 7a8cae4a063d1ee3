"""End-to-end command-line checks: every subcommand, all three formats,
deterministic bytes, and the documented exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import bqf
from bqf.cli import (
    H_SERIES_MAX_ORDER,
    INDEPENDENCE_MAX_K,
    ORACLE_CHECK_MAX_ORDER,
    PARTITIONS_MAX_N,
    QF_MAX_ORDER,
    main,
    run,
)
from bqf.matrices import (
    HermitianMatrix,
    build_special,
    matrix_add,
    matrix_scale,
    save_matrix,
)

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
    code, out, err = invoke(
        capsys, ["cumulants", "convert", "--moments", "1,x,3"]
    )
    assert code == 1
    assert err.startswith("error:")


def test_exponential_arguments_are_bounded_up_front(capsys, matrix_files):
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


def test_main_uses_provided_argv(capsys):
    assert main(["partitions", "enumerate", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1

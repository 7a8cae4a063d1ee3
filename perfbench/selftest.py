"""Quick self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Tiny runs use the first few ops of each pool and one set-up, so the whole
file takes well under a minute.
"""

import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import refs
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_OPS = 4


def tiny(build):
    return lambda *args: build(*args)[:TINY_OPS]


def tiny_run(name, seed=3, trace=0, build=None):
    build = build or tiny(workloads.WORKLOADS[name])
    with mock.patch.dict(workloads.WORKLOADS, {name: build}):
        return run.run_workload(name, seed, 0, trace, min_ops=1, setup_reps=1)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        # scalar-oracle stays runnable but is not one of the benchmark's workloads.
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    info, result = tiny_run(name, trace=trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], info["errors"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], TINY_OPS)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, units(section))
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    json.dumps(result, allow_nan=False)

    def test_traced_run_restores_every_rebound_name(self):
        modules = run.load_bqf()
        before = {layer: dict(vars(mod)) for layer, mod in modules.items()}
        tiny_run("qf-engine", trace=1)
        for layer, mod in modules.items():
            for key, value in before[layer].items():
                self.assertIs(vars(mod)[key], value, f"bqf.{layer}.{key}")

    def test_traced_run_sees_the_layers_it_is_chosen_for(self):
        _, result = tiny_run("scalar-oracle", trace=1)
        metrics = result["metrics"]
        self.assertGreater(metrics["cumulants.calls"]["value"], 0)
        self.assertGreater(metrics["stats.calls"]["value"] + metrics["partitions.calls"]["value"], 0)


class Failures(unittest.TestCase):
    def test_perturbed_reference_counts_failed_ops(self):
        exact = refs.qf_cumulant_dp
        with mock.patch.object(refs, "qf_cumulant_dp", lambda *a: exact(*a) + 1):
            info, result = tiny_run("qf-engine")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertLess(result["metrics"]["ops_ok_ratio"]["value"], 1)
        self.assertTrue(info["errors"])

    def test_raising_op_counts_as_failed(self):
        base = workloads.WORKLOADS["scalar-oracle"]

        def build(*args):
            ops = base(*args)[:TINY_OPS]
            ops[0] = workloads.Op("boom", lambda ctx: 1 / 0, ops[0].check, str)
            return ops

        info, result = tiny_run("scalar-oracle", build=build)
        self.assertEqual(result["failed"], 1)
        self.assertIn("ZeroDivisionError", info["errors"][0])

    def test_missing_sources_exit_nonzero_without_a_result(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "qf-engine",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class Seeds(unittest.TestCase):
    def test_another_seed_changes_inputs_not_metric_names(self):
        info_a, result_a = tiny_run("qf-engine", seed=1)
        info_b, result_b = tiny_run("qf-engine", seed=2)
        self.assertNotEqual(info_a["digest"], info_b["digest"])
        self.assertEqual(set(result_a["metrics"]), set(result_b["metrics"]))

    def test_same_seed_same_digest(self):
        modules = run.load_bqf()
        lib = SimpleNamespace(**modules)
        ctx = SimpleNamespace(lib=lib, inprocess=True)
        digests = []
        for _ in range(2):
            ops = workloads.build_scalar_oracle(5, lib, run.ROOT)
            digests.append(run.digest(ops, [(op.run(ctx), True) for op in ops]))
        self.assertEqual(digests[0], digests[1])


class References(unittest.TestCase):
    """The references agree with bqf's own oracles on small cases."""

    def setUp(self):
        modules = run.load_bqf()
        self.mx, self.cm, self.series = modules["matrices"], modules["cumulants"], modules["series"]

    def test_dp_matches_hadamard_route_and_word_moment_oracle(self):
        rng = random.Random(7)
        for trial in range(12):
            n, r = rng.randint(1, 3), rng.randint(1, 4)
            kind = workloads.KINDS[trial % 4]
            seq = self.cm.parse_distribution(workloads._preset(kind, rng, r), 2 * r)
            a = workloads._hermitian(self.mx, rng, n, complex_entries=trial % 2 == 0)
            dp = refs.qf_cumulant_dp(refs.grid_of(a), refs.iid_kvec(seq, n), r)
            self.assertEqual(dp, self.mx.qf_cumulant_hadamard(a, seq, r))
            if trial % 2:
                poly = workloads._qf_poly(self.cm, a)
                family = self.cm.constant_family(seq, n)
                self.assertEqual(dp, self.cm.element_cumulants(poly, family, r).values[r - 1])

    def test_series_traces_and_integer_sequences(self):
        b = self.mx.build_special("B", 5)
        pb = self.mx.matrix_add(self.mx.build_special("P", 5), b)
        for m in range(5):
            self.assertEqual(self.series.limit_mgf_series(0, 1, 5, m).coefficient(m), self.mx.omega_moment(b, m))
            self.assertEqual(self.series.limit_mgf_series(1, 1, 5, m).coefficient(m), self.mx.omega_moment(pb, m))
        e = refs.entringer_numbers(9)
        self.assertEqual(self.series.zigzag_numbers(9), e)
        self.assertEqual(self.series.tangent_numbers(5), e[1::2])

    def test_limit_and_zeta_closed_forms(self):
        for a, b in ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3))):
            h = self.series.limit_h_series(a, b, 3)
            self.assertEqual([refs.limit_cumulant(a, b, r) for r in (1, 2, 3)], list(h.coeffs[1:]))
        measure = run.load_bqf()["measure"]
        for exponent in (2, 4, 6):
            self.assertTrue(refs.close(measure._p_series_target(exponent), refs.p_series_partial(exponent)))


if __name__ == "__main__":
    unittest.main()

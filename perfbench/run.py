"""The bqf benchmark: closed-loop workloads, one client, one process.

Run from the repository root:

    python3 perfbench/run.py --workload qf-engine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one after another

A run sets up the workload's op pool several times (a fresh interpreter
importing bqf, seeded inputs, matrix files, references, cache warm-up) and
reports the median set-up time.  It then runs whole passes over the pool
until at least MIN_OPS ops are done and the pass boundary nearest to
--seconds is reached, so that every run weighs each cell of the pool
equally and the 90th percentile has ten samples beyond it.  Every answer
is checked against its reference after the clock stops; a wrong answer or
an exception counts as a failed op.

--trace 1 runs every op twice in a row, once plain and once with spans
around every call into a bqf layer (see tracer.py), and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records the environment, the per-workload
digest of exact results, and the set-up times.  Both also go to
perfbench/out/.  Only the standard library is used, so the benchmark's own
imports do not hide what bqf imports.
"""

import argparse
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100
SETUP_REPS = 3
PROBE_REPS = 3
HOST_LOOP_STEPS = 1_000_000

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_ratio": "fraction",
}


def load_bqf() -> dict:
    """Import every bqf layer from this checkout's src/, or exit nonzero."""
    if not (SRC / "bqf" / "__init__.py").is_file():
        raise SystemExit(f"error: no bqf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"bqf.{layer}") for layer in tracing.LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: bqf was imported from {origin}, not from {SRC}")
    return modules


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def _numpy() -> dict:
    # Located without importing it, so the harness's memory stays bqf's own.
    if importlib.util.find_spec("numpy") is None:
        return {"importable": False, "version": None}
    try:
        version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        version = None
    return {"importable": True, "version": version}


def host_loop_s() -> float:
    """Median time of a fixed pure-Python loop.  The load average cannot
    see a busy host under a VM; this shows how fast the host ran us."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(HOST_LOOP_STEPS):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times)


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": os.getloadavg(),
        "host_loop_s_start": host_loop_s(),
        "git_commit": _git_commit(),
        "seed": seed,
        "numpy": _numpy(),
    }


def _child(args, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
        check=True,
    )


def setup(name: str, seed: int, lib, reps: int):
    """Set the workload up `reps` times; return the last op pool and the
    time each set-up took, counting a fresh interpreter importing bqf."""
    env = workloads.child_env(ROOT)
    times = []
    for _ in range(reps):
        start = perf_counter()
        _child(["-c", "import bqf.cli"], env)
        ops = workloads.WORKLOADS[name](seed, lib, ROOT)
        times.append(perf_counter() - start)
    return ops, times


def _tally(size: int) -> dict:
    return {"latencies": [], "failed": 0, "errors": [], "first": [None] * size,
            "passes": 0, "pass_s": [], "wall_s": 0.0}


def _record(tally, i, op, ctx, tracer=None):
    """Time one op, then check its answer with the clock stopped."""
    if tracer is not None:
        tracer.op += 1
    t0 = perf_counter()
    try:
        result, why = op.run(ctx), None
    except Exception as exc:  # a failed op is counted, the run goes on
        result, why = None, repr(exc)
    tally["latencies"].append(perf_counter() - t0)
    if why is None:
        try:
            if not op.check(result):
                why = "answer differs from the reference"
        except Exception as exc:
            why = f"check raised {exc!r}"
    if why is not None:
        tally["failed"] += 1
        if len(tally["errors"]) < 20:
            tally["errors"].append(f"{op.cell}: {why}")
    if tally["passes"] == 0:
        tally["first"][i] = (result, why is None)


def _end_pass(tally, size: int):
    tally["pass_s"].append(sum(tally["latencies"][-size:]))
    tally["passes"] += 1


def _near_deadline(elapsed: float, passes: int, seconds: float) -> bool:
    """Whether the pass boundary just reached is the one nearest `seconds`."""
    return elapsed + elapsed / passes / 2 >= seconds


def measure(ops, ctx, seconds: float, min_ops: int) -> dict:
    """Whole passes over the pool until at least `min_ops` ops are done and
    the pass boundary nearest to `seconds` is reached, so that a run lasts
    about `seconds` however long a pass is.  Only op.run is timed."""
    tally = _tally(len(ops))
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            _record(tally, i, op, ctx)
        _end_pass(tally, len(ops))
        if _near_deadline(perf_counter() - start, tally["passes"], seconds) and len(tally["latencies"]) >= min_ops:
            break
    tally["wall_s"] = perf_counter() - start
    return tally


def measure_traced(ops, ctx, modules, seconds: float):
    """Whole passes until the boundary nearest `seconds`, each op run once
    without and once with spans, back to back and in alternating order.  The
    two runs of an op lie milliseconds apart, so a change in host speed
    weighs on both alike."""
    tr = tracing.Tracer()
    plain, traced = _tally(len(ops)), _tally(len(ops))
    start = perf_counter()
    while plain["passes"] == 0 or not _near_deadline(perf_counter() - start, plain["passes"], seconds):
        for i, op in enumerate(ops):
            for with_spans in (False, True) if (i + plain["passes"]) % 2 == 0 else (True, False):
                if not with_spans:
                    _record(plain, i, op, ctx)
                    continue
                try:
                    proxies = SimpleNamespace(**tr.install(modules))
                    _record(traced, i, op, SimpleNamespace(lib=proxies, inprocess=True), tr)
                finally:
                    tr.restore()
        _end_pass(plain, len(ops))
        _end_pass(traced, len(ops))
    plain["wall_s"] = traced["wall_s"] = perf_counter() - start
    return tr, plain, traced


def digest(ops, first) -> str:
    """sha256 over the exact part of each pool answer, in pool order."""
    h = hashlib.sha256()
    for op, (result, ok) in zip(ops, first):
        text = op.exact(result) if ok else "FAILED"
        h.update(f"{op.cell}|{text}\n".encode("utf-8"))
    return h.hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, run, setup_times) -> dict:
    lat = run["latencies"]
    attempted = len(lat)
    ok = attempted - run["failed"]
    who = resource.RUSAGE_CHILDREN if name == "cli-mix" else resource.RUSAGE_SELF
    values = {
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ops_ok_ratio": ok / attempted,
    }
    return {key: _metric(values[key], unit) for key, unit in END_TO_END_UNITS.items()}


def _import_probe(env) -> tuple:
    """bqf.cli and numpy cumulative import times from -X importtime."""
    proc = _child(["-X", "importtime", "-c", "import bqf.cli"], env)
    cumulative = {}
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split("|")
        try:
            micros = int(fields[1])
        except ValueError:
            continue  # the header line
        cumulative[fields[2].strip()] = micros / 1e6
    return cumulative.get("bqf.cli", 0.0), cumulative.get("numpy", 0.0)


def per_layer(name, modules, tr, untraced, traced) -> dict:
    env = workloads.child_env(ROOT)
    interp = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        _child(["-c", "pass"], env)
        interp.append(perf_counter() - t0)
    probes = [_import_probe(env) for _ in range(PROBE_REPS)]
    interp_s = statistics.median(interp)
    import_s = statistics.median(p[0] for p in probes)
    numpy_s = statistics.median(p[1] for p in probes)

    busy = sum(traced["latencies"])
    selfs = tr.self_times()
    calls = tr.calls()
    visited_qf, useful, qf_matvecs, qf_products = tr.partition_counts(
        modules["partitions"], modules["cumulants"]
    )
    top = sum(
        rec[tracing.END] - rec[tracing.START] for rec in tr.spans if rec[tracing.PARENT] < 0
    )
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = _metric(calls[layer], "count")
        out[f"{layer}.self_s"] = _metric(selfs[layer], "s")
        out[f"{layer}.self_share"] = _metric(selfs[layer] / busy, "fraction")
    stdout_bytes = 0
    startup_share = 0.0
    if name == "cli-mix":
        stdout_bytes = sum(len(result[1]) for result, ok in traced["first"] if ok)
        mean_op = sum(untraced["latencies"]) / len(untraced["latencies"])
        startup_share = (interp_s + import_s) / (interp_s + import_s + mean_op)
    out.update(
        {
            "partitions.visited": _metric(tr.visited, "count"),
            "matrices.useful_partition_ratio": _metric(useful / visited_qf if visited_qf else 0.0, "fraction"),
            "matrices.max_bits": _metric(tr.max_bits["matrices"], "bits"),
            "matrices.matvecs": _metric(qf_matvecs + tr.trace_matvecs, "count"),
            "matrices.entry_products": _metric(qf_products + tr.trace_entry_products, "count"),
            "cumulants.max_bits": _metric(tr.max_bits["cumulants"], "bits"),
            "stats.crosscheck_s": _metric(tr.time_in("matrices", "qf_cumulant_iid", "stats"), "s"),
            "cli.interp_s": _metric(interp_s, "s"),
            "cli.import_s": _metric(import_s, "s"),
            "cli.import_numpy_s": _metric(numpy_s, "s"),
            "cli.stdout_bytes": _metric(stdout_bytes, "B"),
            "cli.startup_share": _metric(startup_share, "fraction"),
            "harness.self_share": _metric((busy - top) / busy, "fraction"),
            "trace.overhead": _metric(busy / sum(untraced["latencies"]) - 1, "fraction"),
        }
    )
    return out


def run_workload(name, seed, seconds, trace, min_ops=MIN_OPS, setup_reps=SETUP_REPS):
    """One benchmark run; returns (info, result) as printed by main."""
    modules = load_bqf()
    os.chdir(ROOT)  # cli-mix passes matrix files by paths relative to the root
    OUT.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    lib = SimpleNamespace(**modules)
    ops, setup_times = setup(name, seed, lib, setup_reps)
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "pool_size": len(ops),
        "setup_times_s": setup_times,
    }
    if not trace:
        ctx = SimpleNamespace(lib=lib, inprocess=False)
        run = measure(ops, ctx, seconds, min_ops)
        phases = [run]
        metrics = end_to_end(name, run, setup_times)
    else:
        # cli-mix replays its argv through bqf.cli.run in both halves, so they
        # differ only by the spans.
        ctx = SimpleNamespace(lib=lib, inprocess=True)
        tr, untraced, run = measure_traced(ops, ctx, modules, seconds)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tr.dump(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        phases = [untraced, run]
        metrics = per_layer(name, modules, tr, untraced, run)
    attempted = sum(len(phase["latencies"]) for phase in phases)
    failed = sum(phase["failed"] for phase in phases)
    info.update(
        {
            "passes": run["passes"],
            "pass_s": run["pass_s"],
            "measured_wall_s": run["wall_s"],
            "ops_failed_ratio": failed / attempted,
            "digest": digest(ops, run["first"]),
            "errors": [e for phase in phases for e in phase["errors"]],
        }
    )
    info["environment"]["loadavg_end"] = os.getloadavg()
    info["environment"]["host_loop_s_end"] = host_loop_s()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / f"{name}-seed{seed}-trace{int(bool(trace))}.json", "w", encoding="utf-8") as handle:
        json.dump({"info": info, "result": result, "latencies_s": run["latencies"]}, handle, indent=1)
    return info, result


def run_all(seed, seconds, trace) -> dict:
    """Each workload in a process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            check=True,
        )
        lines = proc.stdout.decode().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}: digest {info['digest']} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:34s} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bqf benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_bqf()  # exits before any output when the sources are missing
    if args.workload is None:
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    info, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

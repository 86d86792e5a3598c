"""progchan benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics and checks every
op; with ``--trace 1`` it runs each op untraced and traced, and reports the
per-layer metrics, the fixed-size single-call rows and the tracing overhead.
End-to-end times are CPU times (see workloads.py for why); spans, the
fixed-size rows and the CLI rows are wall-clock times.
The last line of standard output is the result; the line before it records
the environment.  The program is imported from ``src/`` of the checkout,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# single-threaded BLAS for this process and every child, fixed before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import baseline  # noqa: E402  (these import numpy)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
MODULES = (
    "minimax", "pauli", "matops", "matio", "channels", "kernels", "oracle", "circuits", "cli"
)
SETUP_REPEATS = {"full": 7, "tiny": 1}
ROW_REPEATS = {"full": 5, "tiny": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=tuple(workloads.SIZES), default="full", help="tiny: smoke-test sizes"
    )
    return parser.parse_args(argv)


def child_env() -> dict:
    """Environment for every subprocess: single-threaded BLAS, progchan from src/."""
    env = dict(os.environ)
    env.pop("PROGCHAN_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def quantile(values, q: float) -> float:
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def measure_setup(workload, repeats: int, env: dict) -> float:
    """Median CPU time of a fresh interpreter importing progchan and running a first op.

    Probe k runs the k-th op of the stream, so the median does not hang on
    the cost of one seeded device.
    """
    samples = []
    for index in range(repeats):
        command = workload.setup_command(index)
        start = workloads.children_cpu()
        subprocess.run(command, env=env, cwd=WORKDIR, check=True, stdout=subprocess.DEVNULL)
        samples.append(workloads.children_cpu() - start)
    return statistics.median(samples)


def closed_loop(workload, seconds: float, step):
    """Run ops until ``seconds`` have passed and the current cycle is complete.

    ``step(op, index)`` runs one op and returns (seconds, ok); an exception
    counts as a failed op.
    """
    latencies = []
    failed = 0
    deadline = perf_counter() + seconds
    for index, op in enumerate(workload.ops()):
        try:
            elapsed, ok = step(op, index)
        except Exception:
            elapsed, ok = None, False
        if elapsed is not None:
            latencies.append(elapsed)
        failed += not ok
        if perf_counter() >= deadline and workload.ends_cycle(op):
            return latencies, index + 1, failed


def untimed_check(workload, op, result) -> bool:
    try:
        return bool(workload.check(op, result))
    except Exception:
        return False


def end_to_end(workload, args, env: dict):
    """setup_s, throughput, latency quantiles, share of ops passing their check, peak RSS."""
    setup_s = measure_setup(workload, SETUP_REPEATS[args.size], env)

    def step(op, index):
        result, elapsed = workload.measure(op)
        return elapsed, untimed_check(workload, op, result)

    if workload.in_process:
        workload.run(next(iter(workload.ops())))  # warm-up, not counted
    latencies, attempted, failed = closed_loop(workload, args.seconds, step)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, attempted, failed


def traced(workload, args, env: dict, pc: dict):
    """Per-layer metrics from spans, the fixed-size rows, and the tracing overhead."""
    rows, kernel_record = baseline.rows(pc, args.seed, ROW_REPEATS[args.size])
    rows.update(baseline.process_rows(env, ROW_REPEATS[args.size]))
    tracer = tracing.Tracer()
    tracer.install(pc)
    untraced_s, traced_s = [], []

    def step(op, index):
        plain, with_trace, ok = workload.run_traced(op, tracer, traced_first=index % 2 == 1)
        untraced_s.append(plain)
        traced_s.append(with_trace)
        return plain, ok

    try:
        if workload.in_process:
            workload.run(next(iter(workload.ops())))  # warm-up, not counted
        _, attempted, failed = closed_loop(workload, args.seconds, step)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, len(traced_s))
    metrics.update(rows)
    cli_rows = workload.cli_rows()
    for verb in workloads.CLI_VERBS:
        wall, inproc = cli_rows.get(verb, (0.0, 0.0))
        metrics[f"cli.{verb}.wall_ms"] = (wall * 1e3, "ms")
        metrics[f"cli.{verb}.inproc_ms"] = (inproc * 1e3, "ms")
    overhead = 1.0 - sum(untraced_s) / sum(traced_s)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, attempted, failed, {"kernels": kernel_record, "traced_ops": len(traced_s)}


def environment(pc: dict, args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": pc["kernels"].backend_name(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "op_clock": "CPU time of the op's thread, or of the verb's child process",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "sizes": workload.sizes(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "progchan" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no progchan sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    pc = {name: importlib.import_module(f"progchan.{name}") for name in MODULES}
    if Path(pc["minimax"].__file__).resolve().parent != SRC / "progchan":
        sys.stderr.write("perfbench: progchan was not imported from src/\n")
        return 2
    env = child_env()
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    workload = workloads.WORKLOADS[args.workload](pc, args.seed, args.size, WORKDIR, env)
    try:
        record = environment(pc, args, workload)
        if args.trace:
            metrics, attempted, failed, extra = traced(workload, args, env, pc)
            record.update(extra)
        else:
            metrics, attempted, failed = end_to_end(workload, args, env)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps({"env": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

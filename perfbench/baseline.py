"""Single-call timings at fixed sizes, and interpreter start-up probes.

The rows repeat one call on one seeded device and report the median, so
they can be set beside earlier per-call measurements of the same sizes.
They include the kernel comparison: when the compiled scan kernel is
importable, both backends sweep the same points and their largest
difference is recorded.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import inputs


def _median_time(fn, repeats: int, calls: int = 1) -> float:
    """Median over ``repeats`` of the mean time of ``calls`` back-to-back calls, in s."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples)


def rows(pc, seed: int, repeats: int) -> tuple[dict, dict]:
    """(metrics, kernel record) for the fixed-size rows; ``pc`` maps module names to modules."""
    mm, ch, kernels, oracle = pc["minimax"], pc["channels"], pc["kernels"], pc["oracle"]
    rng = np.random.default_rng(seed)
    v = inputs.haar(rng, 4)
    u = inputs.haar(rng, 2)
    sigma = mm.fidelity_uv(u, v)[1]
    optimal = inputs.canonical([np.pi / 4, 0.0, np.pi / 4])
    parts = kernels.device_parts(optimal)
    sweep_points = oracle.sample_su2(oracle.ScanConfig(resolution=200_000, seed=seed))
    point = sweep_points[len(sweep_points) // 2]

    def scan(resolution, refine):
        config = oracle.ScanConfig(resolution=resolution, refine_steps=refine, seed=seed)
        return lambda: oracle.minimax_scan(optimal, config)

    sample_config = oracle.ScanConfig(resolution=100_000, seed=seed)
    slow = {
        "sweep_200k": lambda: kernels.fidelity_from_bloch_batch(parts, sweep_points),
        "sample_su2_100k": lambda: oracle.sample_su2(sample_config),
        "scan_10k_50": scan(10_000, 50),
        "scan_100k_200": scan(100_000, 200),
        "sigma_1000": lambda: oracle.sigma_dominance_check(u, v, 1000, seed=seed),
    }
    fast = {
        "point": lambda: kernels.fidelity_from_bloch(parts, point),
        "decompose": lambda: mm.kraus_cirac_decompose(v),
        "worst_case_fidelity": lambda: mm.worst_case_fidelity(v),
        "fidelity_uv": lambda: mm.fidelity_uv(u, v),
        "s_operator": lambda: mm.s_operator(u, v),
        "program_channel": lambda: ch.program_channel(v, sigma),
    }
    out = {}
    for name, fn in slow.items():
        out[f"baseline.{name}_ms"] = (_median_time(fn, repeats) * 1e3, "ms")
    calls = 20 * repeats
    for name, fn in fast.items():
        out[f"baseline.{name}_us"] = (_median_time(fn, repeats, calls) * 1e6, "us")
    return out, _compare_kernels(parts, sweep_points, repeats)


def _compare_kernels(parts, points, repeats: int) -> dict:
    from progchan import _scan_py

    try:
        from progchan import _scan_kernel
    except ImportError:
        _scan_kernel = None
    points = np.ascontiguousarray(points)
    out_py = np.empty(len(points))
    numpy_s = _median_time(lambda: _scan_py.fidelity_batch(parts, points, out_py), repeats)
    record = {"points": len(points), "numpy_ms": numpy_s * 1e3}
    if _scan_kernel is None:
        record["compiled"] = "not built"
        return record
    out_c = np.empty(len(points))
    compiled_s = _median_time(lambda: _scan_kernel.fidelity_batch(parts, points, out_c), repeats)
    record["compiled_ms"] = compiled_s * 1e3
    record["max_abs_diff"] = float(np.max(np.abs(out_py - out_c)))
    return record


def process_rows(env: dict, repeats: int) -> dict:
    """Wall time of a fresh interpreter: bare, importing numpy, importing progchan."""
    out = {}
    probes = {"bare": "pass", "import_numpy": "import numpy", "import_progchan": "import progchan"}
    for name, code in probes.items():
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            samples.append(perf_counter() - start)
        out[f"process.{name}_ms"] = (statistics.median(samples) * 1e3, "ms")
    return out

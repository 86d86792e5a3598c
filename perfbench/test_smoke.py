"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python -m pytest perfbench/test_smoke.py -q

Each workload runs for one second, untraced and traced, and must emit every
metric BENCHMARK.json names, with its unit, and no failed op.  The benchmark
must refuse to run where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    command = [sys.executable, "perfbench/run.py", *map(str, args)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    args = ["--workload", workload, "--seed", 3, "--seconds", 1, "--trace", trace, "--size", "tiny"]
    proc = run_bench(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    proc = run_bench(tmp_path, "--workload", "closed-form", "--seed", 3, "--seconds", 1)
    assert proc.returncode != 0
    assert proc.stdout == ""

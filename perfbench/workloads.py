"""The three workloads: what one op is, how it is timed and how it is checked.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned.  Library calls go through module attributes
(``minimax.worst_case_fidelity``), so spans installed by tracing.py see them.

An op's latency is the CPU time it costs: the calling thread's for an
in-process op, the child's (user + system) for a CLI verb.  On a shared
machine the wall clock mostly measures the neighbours: on a 2-vCPU Xeon
virtual machine shared with other tenants, over 110 s of oracle-scan ops,
the p90 of 10-s windows spread 21% (quartile distance over median) by wall
clock and 5.5% by CPU clock.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

import inputs

EXACT = 1e-12
CHANNEL_TOL = 1e-10
# acceptance bracket for the oracle's distance to the closed form
GAP_LOW, GAP_HIGH = -1e-9, 2e-3

SIZES = {
    "full": {"resolution": 100_000, "refine_steps": 200, "sigma_samples": 1000, "alpha_grid": 9},
    "tiny": {"resolution": 10_000, "refine_steps": 50, "sigma_samples": 50, "alpha_grid": 3},
}


def children_cpu() -> float:
    """CPU seconds used by waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _close(a, b, tol=EXACT) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


class InProcess:
    """Ops on a seeded device stream, called in this process."""

    name: str
    mix: dict
    in_process = True

    def __init__(self, pc: dict, seed: int, size: str, workdir: Path, env: dict):
        self.pc = pc
        self.seed = seed
        self.size_name = size
        self.size = SIZES[size]

    def sizes(self) -> dict:
        return {"device_mix": self.mix}

    def ops(self):
        return inputs.device_stream(self.seed, self.mix)

    def ends_cycle(self, op) -> bool:
        return True

    def setup_command(self, index: int) -> list:
        """A fresh interpreter that imports progchan and runs the index-th op."""
        probe = str(Path(__file__).with_name("probe.py"))
        return [sys.executable, probe, self.name, str(self.seed), self.size_name, str(index)]

    def measure(self, op):
        """(result, CPU seconds) of one op."""
        start = thread_time()
        result = self.run(op)
        return result, thread_time() - start

    def run_traced(self, op, tracer, traced_first: bool):
        """Run op untraced and traced, in the given order; (untraced s, traced s, ok)."""
        times = {}
        ok = True
        for traced in (traced_first, not traced_first):
            tracer.active = traced
            start = thread_time()
            try:
                result = self.run(op)
            except Exception:
                result = None
            times[traced] = thread_time() - start
            tracer.active = False
            ok = ok and result is not None and self.check(op, result)
        return times[False], times[True], ok

    def cli_rows(self) -> dict:
        return {}


class ClosedForm(InProcess):
    """worst_case_fidelity, fidelity_uv at a random target, then the programmed channel."""

    name = "closed-form"
    mix = inputs.CLOSED_FORM_MIX

    def run(self, op):
        mm, ch = self.pc["minimax"], self.pc["channels"]
        rep = mm.worst_case_fidelity(op.v)
        f_u, sigma_u = mm.fidelity_uv(op.u, op.v)
        channel = ch.program_channel(op.v, rep.optimal_sigma)
        return rep, f_u, sigma_u, ch.channel_fidelity(rep.worst_unitary, channel)

    def check(self, op, result) -> bool:
        rep, f_u, sigma_u, f_channel = result
        f = rep.fidelity
        ok = abs(f_channel - f) <= CHANNEL_TOL
        overlap = self.pc["channels"].program_overlap(op.u, op.v, sigma_u)
        ok = ok and abs(overlap - f_u) <= CHANNEL_TOL
        ok = ok and f <= 0.25 + EXACT
        if op.kind == "optimal":
            ok = ok and abs(f - 0.25) <= EXACT
        if op.kind == "controlled":
            ok = ok and abs(f) <= EXACT
        return bool(ok)


class OracleScan(InProcess):
    """The oracle verb's work, in process: minimax_scan, then the sigma check at its minimum."""

    name = "oracle-scan"
    mix = inputs.ORACLE_MIX

    def sizes(self) -> dict:
        keys = ("resolution", "refine_steps", "sigma_samples")
        return {"device_mix": self.mix, **{k: self.size[k] for k in keys}}

    def run(self, op):
        oracle = self.pc["oracle"]
        config = oracle.ScanConfig(
            resolution=self.size["resolution"],
            refine_steps=self.size["refine_steps"],
            seed=op.seed,
        )
        result = oracle.minimax_scan(op.v, config)
        worst_u = self.pc["pauli"].bloch_to_matrix(result.worst_bloch)
        top = oracle.sigma_dominance_check(worst_u, op.v, self.size["sigma_samples"], seed=op.seed)
        return result, worst_u, top

    def check(self, op, result) -> bool:
        scan, worst_u, top = result
        best = self.pc["minimax"].fidelity_uv(worst_u, op.v)[0]
        return GAP_LOW <= scan.gap_to_closed_form <= GAP_HIGH and top <= best + EXACT


def _csv_float(text: str) -> float:
    # scan writes its alpha columns as repr() of numpy scalars, which numpy >= 2
    # prints as "np.float64(x)"; the value inside is still checked
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def _read_matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj["rows"]])


def _close_obj(obj, matrix) -> bool:
    return obj["dim"] == matrix.shape[0] and _close(_read_matrix(obj), matrix)


class Verb:
    """One CLI invocation of the chain; ``out`` is the file it writes, or None for stdout."""

    def __init__(self, name: str, args: list, out: Path | None = None):
        self.name = name
        self.argv = [name, *map(str, args)] + (["--out", str(out)] if out else [])
        self.out = out


class CliChain:
    """A fixed script of verbs, each a fresh `python -m progchan` subprocess.

    The matrix each verb reads was written earlier in the chain; the
    benchmark itself unwraps optimal-v's output (which worst-case cannot
    read directly) and worst-case's witnesses into plain matrix files.
    """

    in_process = False

    def __init__(self, pc: dict, seed: int, size: str, workdir: Path, env: dict):
        self.pc = pc
        self.size = SIZES[size]
        self.env = env
        self.dir = workdir
        rng = np.random.default_rng(seed)
        self.sx, self.sz = (int(s) for s in rng.choice([-1, 1], size=2))
        self.alpha = ",".join(repr(float(a)) for a in inputs.chamber_alpha(rng))
        self.verb_seed = int(rng.integers(2**31))
        names = ("vopt", "v", "wc", "u", "sigma", "dec", "fid", "prog", "oracle")
        f = self.files = {name: workdir / f"{name}.json" for name in names}
        # the oracle verb runs at its defaults: 10k points, 50 polish steps, 1000 programs
        self.oracle_sigma = 1000 if size == "full" else self.size["sigma_samples"]
        oracle_args = [] if size == "full" else ["--sigma-samples", self.oracle_sigma]
        self.chain = [
            Verb("optimal-v", ["--sx", self.sx, "--sz", self.sz, "--emit-circuit"], f["vopt"]),
            Verb("worst-case", ["--v", f["v"]], f["wc"]),
            Verb("decompose", ["--v", f["v"]], f["dec"]),
            Verb("fidelity", ["--u", f["u"], "--v", f["v"]], f["fid"]),
            Verb("program", ["--v", f["v"], "--sigma", f["sigma"]], f["prog"]),
            Verb("circuit", ["--alpha", self.alpha]),
            Verb("verify", ["--seed", self.verb_seed]),
            Verb("oracle", ["--v", f["v"], "--seed", self.verb_seed, *oracle_args], f["oracle"]),
            Verb("scan", ["--alpha-grid", self.size["alpha_grid"]], workdir / "grid.csv"),
        ]
        assert tuple(v.name for v in self.chain) == CLI_VERBS
        self.first_output: dict[str, bytes] = {}
        self.first_ok: dict[str, bool] = {}
        self.wall_s: dict[str, list] = {}
        self.inproc_s: dict[str, list] = {}

    def sizes(self) -> dict:
        return {
            "verbs": [" ".join(v.argv).replace(str(self.dir) + "/", "") for v in self.chain],
            "subprocesses": "one at a time",
        }

    def command(self, verb: Verb) -> list:
        return [sys.executable, "-m", "progchan", *verb.argv]

    def ops(self):
        while True:
            yield from self.chain

    def ends_cycle(self, verb) -> bool:
        return verb is self.chain[-1]

    def setup_command(self, index: int) -> list:
        """The first verb: itself a fresh interpreter importing progchan."""
        return self.command(self.chain[0])

    def run(self, verb):
        proc = subprocess.run(self.command(verb), env=self.env, cwd=self.dir, capture_output=True)
        return proc.returncode, proc.stdout

    def measure(self, verb):
        """(result, CPU seconds of the verb's process)."""
        start = children_cpu()
        result = self.run(verb)
        return result, children_cpu() - start

    def run_traced(self, verb, tracer, traced_first: bool):
        """The verb as a subprocess, for its wall time, then the same argv through
        cli.main untraced and traced, in the given order; (untraced s, traced s, ok).
        """
        start = perf_counter()
        result = self.run(verb)
        self.wall_s.setdefault(verb.name, []).append(perf_counter() - start)
        ok = self.check(verb, result)
        times = {}
        for traced in (traced_first, not traced_first):
            tracer.active = traced
            start, start_cpu = perf_counter(), thread_time()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                ok = self.pc["cli"].main(list(verb.argv)) == 0 and ok
            times[traced] = thread_time() - start_cpu
            tracer.active = False
            if not traced:
                self.inproc_s.setdefault(verb.name, []).append(perf_counter() - start)
        return times[False], times[True], ok

    def cli_rows(self) -> dict:
        """Per verb: median (subprocess wall s, in-process wall s)."""
        return {
            name: (statistics.median(self.wall_s[name]), statistics.median(self.inproc_s[name]))
            for name in self.inproc_s
        }

    def check(self, verb, result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        output = verb.out.read_bytes() if verb.out else stdout
        self._unwrap(verb)
        if verb.name not in self.first_output:
            self.first_output[verb.name] = output
            self.first_ok[verb.name] = self._matches_library(verb, output)
        return self.first_ok[verb.name] and output == self.first_output[verb.name]

    def _unwrap(self, verb) -> None:
        f = self.files
        if verb.name == "optimal-v":
            f["v"].write_text(json.dumps(json.loads(f["vopt"].read_text())["v"]))
        elif verb.name == "worst-case":
            report = json.loads(f["wc"].read_text())
            f["u"].write_text(json.dumps(report["worst_unitary"]))
            f["sigma"].write_text(json.dumps(report["optimal_sigma"]))

    def _load(self, key) -> np.ndarray:
        return _read_matrix(json.loads(self.files[key].read_text()))

    def _matches_library(self, verb, output: bytes) -> bool:
        """The verb's output against the same computation through the library."""
        pc = self.pc
        mm, ch, circuits, oracle = pc["minimax"], pc["channels"], pc["circuits"], pc["oracle"]
        text = output.decode()
        if verb.name == "verify":
            lines = text.splitlines()
            return bool(lines) and all(line.split()[1] != "fail" for line in lines)
        if verb.name == "circuit":
            eye = np.eye(2, dtype=complex)
            alpha = np.array([float(a) for a in self.alpha.split(",")])
            form = mm.CanonicalForm(alpha, eye, eye, eye, eye)
            return text == circuits.format_circuit(circuits.build_general_circuit(form))
        if verb.name == "scan":
            rows = list(csv.DictReader(io.StringIO(text)))
            ok = bool(rows)
            for row in rows:
                alpha = [_csv_float(row[k]) for k in ("a1", "a2", "a3")]
                weights = pc["pauli"].hadamard_t(mm.theta_from_alpha(alpha)).moduli ** 2
                listed = [float(row[f"t{j}_sq"]) for j in range(4)]
                f = float(row["fidelity"])
                ok = ok and _close(listed, weights) and abs(f - weights.min() / 4) <= EXACT
                ok = ok and f <= 0.25 + EXACT
            return ok
        obj = json.loads(text)
        v = self._load("v")
        if verb.name == "optimal-v":
            circuit = circuits.format_circuit(circuits.build_optimal_circuit(self.sx, self.sz))
            return (
                _close_obj(obj["v"], mm.optimal_interaction(self.sx, self.sz))
                and abs(obj["fidelity"] - mm.worst_case_fidelity(v).fidelity) <= EXACT
                and obj["circuit"] == circuit.splitlines()
            )
        if verb.name == "worst-case":
            rep = mm.worst_case_fidelity(v)
            t = np.array([complex(re, im) for re, im in obj["t"]])
            return (
                abs(obj["fidelity"] - rep.fidelity) <= EXACT
                and abs(obj["epsilon"] - rep.epsilon) <= EXACT
                and obj["argmin_j"] == rep.argmin_j
                and _close_obj(obj["worst_unitary"], rep.worst_unitary)
                and _close_obj(obj["optimal_sigma"], rep.optimal_sigma)
                and _close(t, rep.t.t)
            )
        if verb.name == "decompose":
            form = mm.kraus_cirac_decompose(v)
            return _close(obj["alpha"], form.alpha) and all(
                _close_obj(obj[w], getattr(form, w)) for w in ("w1", "w2", "w3", "w4")
            )
        if verb.name == "fidelity":
            f, sigma = mm.fidelity_uv(self._load("u"), v)
            return abs(obj["fidelity"] - f) <= EXACT and _close_obj(obj["optimal_sigma"], sigma)
        if verb.name == "program":
            ops = ch.program_channel(v, self._load("sigma")).ops
            kraus = obj["kraus"]
            return len(kraus) == len(ops) and all(_close_obj(k, op) for k, op in zip(kraus, ops))
        if verb.name == "oracle":
            config = oracle.ScanConfig(
                resolution=obj["resolution"], refine_steps=obj["refine_steps"], seed=obj["seed"]
            )
            scan = oracle.minimax_scan(v, config)
            worst_u = pc["pauli"].bloch_to_matrix(scan.worst_bloch)
            top = oracle.sigma_dominance_check(worst_u, v, self.oracle_sigma, seed=obj["seed"])
            return (
                abs(obj["f_min"] - scan.f_min) <= EXACT
                and abs(obj["gap_to_closed_form"] - scan.gap_to_closed_form) <= EXACT
                and GAP_LOW <= obj["gap_to_closed_form"] <= GAP_HIGH
                and _close(obj["worst_bloch"], scan.worst_bloch)
                and obj["evaluations"] == scan.evaluations
                and abs(obj["sigma_dominance_max"] - top) <= EXACT
                and top <= mm.fidelity_uv(worst_u, v)[0] + EXACT
            )
        raise ValueError(f"no library check for verb {verb.name!r}")


CLI_VERBS = (
    "optimal-v",
    "worst-case",
    "decompose",
    "fidelity",
    "program",
    "circuit",
    "verify",
    "oracle",
    "scan",
)
WORKLOADS = {"closed-form": ClosedForm, "oracle-scan": OracleScan, "cli-chain": CliChain}

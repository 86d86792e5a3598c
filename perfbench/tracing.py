"""Spans around progchan's layer boundaries, recorded from outside the package.

Each hook rebinds a public function in the module that calls it, so a call
made inside the package (``worst_case_fidelity`` calling
``kraus_cirac_decompose``) is caught as well as one made by the benchmark.
A wrapper records one span (layer, start, end, parent span) and, where
the layer has one, a size such as the number of Bloch points swept.  Spans
stay in memory; self time is computed once, when the run ends.
"""

from __future__ import annotations

import functools
import math
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, layer).  Several call sites can report to one layer; a
# layer without a metric of its own still keeps its time out of its caller's
# self time.
HOOKS = (
    ("minimax", "worst_case_fidelity", "minimax.worst_case_fidelity"),
    ("minimax", "kraus_cirac_decompose", "minimax.kraus_cirac_decompose"),
    ("minimax", "fidelity_uv", "minimax.fidelity_uv"),
    ("minimax", "s_operator", "minimax.s_operator"),
    ("minimax", "hadamard_t", "pauli.hadamard_t"),
    ("minimax", "hermitian_eig", "matops.hermitian_eig"),
    ("minimax", "assert_unitary", "matops.assert_unitary"),
    ("pauli", "assert_unitary", "matops.assert_unitary"),
    ("kernels", "assert_unitary", "matops.assert_unitary"),
    ("channels", "assert_unitary", "matops.assert_unitary"),
    ("channels", "assert_density", "matops.assert_density"),
    ("channels", "hermitian_eig", "matops.hermitian_eig"),
    ("channels", "s_operator", "minimax.s_operator"),
    ("channels", "program_channel", "channels.program_channel"),
    ("channels", "channel_fidelity", "channels.channel_fidelity"),
    ("channels", "program_overlap", "channels.program_overlap"),
    ("oracle", "program_overlap", "channels.program_overlap"),
    ("oracle", "minimax_scan", "oracle.minimax_scan"),
    ("oracle", "sigma_dominance_check", "oracle.sigma_dominance_check"),
    ("oracle", "sample_su2", "oracle.sample_su2"),
    ("oracle", "device_parts", "kernels.device_parts"),
    ("oracle", "fidelity_from_bloch_batch", "kernels.sweep"),
    ("oracle", "fidelity_from_bloch", "kernels.point"),
    ("oracle", "worst_case_fidelity", "oracle.reference"),
    ("cli", "load_matrix", "matio.load_matrix"),
    ("cli", "matrix_to_obj", "matio.matrix_to_obj"),
    ("cli", "worst_case_fidelity", "minimax.worst_case_fidelity"),
    ("cli", "kraus_cirac_decompose", "minimax.kraus_cirac_decompose"),
    ("cli", "fidelity_uv", "minimax.fidelity_uv"),
    ("cli", "s_operator", "minimax.s_operator"),
    ("cli", "hadamard_t", "pauli.hadamard_t"),
    ("cli", "program_channel", "channels.program_channel"),
    ("cli", "program_overlap", "channels.program_overlap"),
)

# Model cost of one sweep point in the numpy kernel, counted from its
# formula: S = sum_mu n_mu K_mu is 4 entries x 4 terms x (2 mul + 2 add) =
# 64 flops; h00, h11 (7 each), h01 (14), then mean, diff, |h01|^2, square,
# sum, sqrt, add and scale (12).  Bytes are the compulsory traffic: four
# float64 coordinates read and one float64 fidelity written.
SWEEP_FLOPS_PER_POINT = 64 + 7 + 7 + 14 + 12
SWEEP_BYTES_PER_POINT = 4 * 8 + 8


class Tracer:
    """In-memory span recorder; inactive wrappers cost one attribute test."""

    def __init__(self):
        self.active = False
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._layer = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._size = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # oracle polish: objective calls that lowered the scan's running minimum
        self.running_min = math.inf
        self.improving = 0

    def install(self, modules: dict) -> None:
        observers = {"kernels.sweep": self._observe_sweep, "kernels.point": self._observe_point}
        observers["oracle.sample_su2"] = len
        for module_name, attr, layer in HOOKS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, observers.get(layer)))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _wrap(self, fn, layer: str, observe):
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self._layer)
            self._layer.append(layer_id)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._size.append(0.0)
            self._stack.append(idx)
            self._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                self._size[idx] = observe(result)
            return result

        return traced

    def _observe_sweep(self, result) -> int:
        self.running_min = float(np.min(result))
        return len(result)

    def _observe_point(self, result) -> int:
        if result < self.running_min:
            self.running_min = result
            self.improving += 1
        return 1

    def totals(self) -> dict:
        """Per layer: calls, total and self seconds, and summed sizes."""
        layer = np.frombuffer(self._layer, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        covered = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        n = len(self.layers)
        calls = np.bincount(layer, minlength=n)
        total = np.bincount(layer, weights=duration, minlength=n)
        own = np.bincount(layer, weights=duration - covered, minlength=n)
        size = np.bincount(layer, weights=np.frombuffer(self._size), minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": total[i], "self_s": own[i], "size": size[i]}
            for i, name in enumerate(self.layers)
        }


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """The per-layer metrics, per traced op; layers the workload never reached read 0."""
    totals = tracer.totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0.0}

    def get(layer):
        return totals.get(layer, zero)

    def per_op(x):
        return x / ops if ops else 0.0

    out = {}
    for layer in (
        "minimax.kraus_cirac_decompose",
        "minimax.s_operator",
        "matops.hermitian_eig",
        "matops.assert_unitary",
        "matops.assert_density",
        "channels.program_overlap",
        "kernels.point",
        "matio.load_matrix",
    ):
        out[f"{layer}.calls"] = (per_op(get(layer)["calls"]), "calls/op")
    for layer in (
        "minimax.worst_case_fidelity",
        "minimax.kraus_cirac_decompose",
        "minimax.fidelity_uv",
        "minimax.s_operator",
        "pauli.hadamard_t",
        "matops.hermitian_eig",
        "matops.assert_unitary",
        "matops.assert_density",
        "channels.program_channel",
        "channels.channel_fidelity",
        "channels.program_overlap",
        "oracle.sigma_dominance_check",
        "oracle.sample_su2",
        "kernels.sweep",
        "kernels.point",
        "oracle.reference",
        "matio.load_matrix",
        "matio.matrix_to_obj",
    ):
        out[f"{layer}.self_ms"] = (per_op(get(layer)["self_s"]) * 1e3, "ms/op")
    # minimax_scan's own time, outside its kernel, sampling and reference
    # children, is the polish loop and candidate selection
    out["oracle.polish.self_ms"] = (per_op(get("oracle.minimax_scan")["self_s"]) * 1e3, "ms/op")
    points = get("kernels.point")["calls"]
    out["oracle.polish.improving_frac"] = (tracer.improving / points if points else 0.0, "frac")
    out["oracle.sample_su2.points"] = (per_op(get("oracle.sample_su2")["size"]), "pts/op")
    sweep = get("kernels.sweep")
    out["kernels.sweep.points"] = (per_op(sweep["size"]), "pts/op")
    rate = sweep["size"] / sweep["total_s"] / 1e6 if sweep["total_s"] else 0.0
    out["kernels.sweep.mpts_per_s"] = (rate, "Mpts/s")
    out["kernels.sweep.flops_per_pt"] = (float(SWEEP_FLOPS_PER_POINT), "model-flop/pt")
    out["kernels.sweep.bytes_per_pt"] = (float(SWEEP_BYTES_PER_POINT), "model-B/pt")
    return out

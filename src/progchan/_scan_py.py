"""Alias of ``kernels.fidelity_batch`` under the module name the benchmark harness imports."""

from .kernels import fidelity_batch  # noqa: F401

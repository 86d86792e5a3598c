"""Backend selection for the scan inner loop.

The compiled Cython kernel is preferred; the numpy fallback is used when the
extension is unavailable.  Both expose the same fidelity_batch contract and
agree to rounding; ``perfbench/run.py --trace 1`` compares them.
"""

from __future__ import annotations

import numpy as np

from .matops import assert_unitary
from .pauli import PAULI

try:
    from . import _scan_kernel as _impl

    BACKEND = "compiled"
except ImportError:  # pragma: no cover - depends on the build environment
    from . import _scan_py as _impl

    BACKEND = "python"


def backend_name() -> str:
    return BACKEND


def device_parts(v) -> np.ndarray:
    """Precompute K_mu with S(n) = sum_mu n_mu K_mu for the device v.

    K_mu = Tr_1[(B_mu^T x I) v^*] with B_0 = I and B_k = i sigma_k, i.e. the
    Bloch-linearization of the S operator.
    """
    v = assert_unitary(v, name="joint unitary")
    if v.shape != (4, 4):
        raise ValueError("device must be a 4x4 unitary")
    vc = np.conj(v).reshape(2, 2, 2, 2)
    basis = np.empty((4, 2, 2), dtype=complex)
    basis[0] = PAULI[0]
    basis[1:] = 1j * PAULI[1:]
    return np.ascontiguousarray(np.einsum("mab,ajbl->mjl", basis, vc))


def fidelity_from_bloch_batch(parts, ns) -> np.ndarray:
    """Best-program fidelity at each Bloch point; parts from device_parts()."""
    ns = np.ascontiguousarray(np.atleast_2d(np.asarray(ns, dtype=float)))
    out = np.empty(ns.shape[0], dtype=float)
    _impl.fidelity_batch(np.ascontiguousarray(parts), ns, out)
    return out


def fidelity_from_bloch(parts, n) -> float:
    """Single-point convenience wrapper."""
    return float(fidelity_from_bloch_batch(parts, np.asarray(n, dtype=float).reshape(1, 4))[0])

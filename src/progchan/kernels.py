"""Entry points to the scan inner loop.

The loop itself is the vectorized numpy kernel ``_scan_py.fidelity_batch``;
``perfbench/run.py --trace 1`` times it layer by layer.
"""

from __future__ import annotations

import numpy as np

from . import _scan_py
from .matops import assert_unitary
from .pauli import PAULI


def backend_name() -> str:
    """Name of the scan kernel, recorded with every benchmark result."""
    return "python"


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
    return np.einsum("mab,ajbl->mjl", basis, vc)


def fidelity_from_bloch_batch(parts, ns) -> np.ndarray:
    """Best-program fidelity at each Bloch point; parts from device_parts()."""
    ns = np.atleast_2d(np.asarray(ns, dtype=float))
    out = np.empty(ns.shape[0], dtype=float)
    _scan_py.fidelity_batch(parts, ns, out)
    return out


def fidelity_from_bloch(parts, n) -> float:
    """Single-point convenience wrapper."""
    return float(fidelity_from_bloch_batch(parts, np.asarray(n, dtype=float).reshape(1, 4))[0])

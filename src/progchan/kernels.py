"""Entry points to the scan inner loop.

The loop itself is the vectorized numpy kernel ``_scan_py.fidelity_batch``:
one real (n, 4) x (4, 8) matmul against the K_mu of ``device_parts`` gives
S(n) for every point, then a 2x2 closed form gives the fidelity, a block of
4096 points at a time.  The same kernel serves the full sweep and the
polish's small batches; ``perfbench/run.py --trace 1`` times it layer by
layer.

A point's value does not depend on the batch around it, with one exception:
a batch of a single row.  numpy computes a (1, 4) x (4, 8) product on a
different BLAS path, which can round the last bit differently (up to
2.2e-16 in f).  Any split of a batch into pieces of two or more rows gives
bit-identical values, which is why the kernel never leaves a lone row at
the end of its last block.  The polish's batches always carry at least 3
rows (each start asks for 3 or 4 points at a time), so a polish start's
values do not depend on the other starts that share its batches.
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
    v = assert_unitary(v, 4, name="joint unitary")
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

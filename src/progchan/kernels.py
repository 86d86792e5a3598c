"""Entry points to the scan inner loop, ``_scan_py.fidelity_batch``.

The device enters the scan as four real quadratic forms (``device_parts``),
off which the kernel reads the fidelity a block of 4096 points at a time.
The oracle calls it for the 8 axis points and for one batch of the sweep's
best row and the 4 witness candidates; its sweep reads the same forms in
the rotation table's coordinates instead (``oracle._sweep``).
``perfbench/run.py --trace 1`` times it layer by layer.

A point's value does not depend on the batch around it, with one exception:
a batch of a single row.  numpy computes its (4, 10) x (10, 1) product on a
different BLAS path, which can round the last bit differently (up to
2.2e-16 in f).  Any split of a batch into pieces of two or more rows gives
bit-identical values, which is why the kernel never leaves a lone row at
the end of its last block (``_scan_py.block_bounds``).  The oracle's
batches have 8 and 5 rows, so they never take that path either.
"""

from __future__ import annotations

import numpy as np

from . import _scan_py
from .matops import assert_unitary
from .pauli import PAULI


def backend_name() -> str:
    """Name of the scan kernel, recorded with every benchmark result."""
    return "python"


def _bloch_parts(v) -> np.ndarray:
    """K_mu with S(n) = sum_mu n_mu K_mu, for a joint unitary v already validated.

    K_mu = Tr_1[(B_mu^T x I) v^*] with B_0 = I and B_k = i sigma_k, i.e. the
    Bloch-linearization of the S operator.
    """
    basis = np.concatenate([PAULI[:1], 1j * PAULI[1:]])
    vc = np.conj(np.asarray(v, dtype=complex)).reshape(2, 2, 2, 2)
    return np.einsum("mab,ajbl->mjl", basis, vc)


def _parts_and_forms(v) -> tuple[np.ndarray, np.ndarray]:
    """The K_mu of ``_bloch_parts`` and their forms (``device_parts``), for a joint unitary v.

    v is validated here, once for both.
    """
    parts = _bloch_parts(assert_unitary(v, 4, name="joint unitary"))
    # Tr(sigma_a K_mu^dag K_nu) sums the entrywise product of K_mu^* and K_nu sigma_a
    twisted = (parts @ PAULI[:, None]).reshape(4, 4, 4).transpose(0, 2, 1)
    return parts, np.ascontiguousarray((parts.reshape(4, 4).conj() @ twisted).real)


def device_parts(v) -> np.ndarray:
    """The real forms Q[a, mu, nu] = Re Tr(sigma_a K_mu^dag K_nu), shape (4, 4, 4).

    n^T Q[a] n = Tr(sigma_a S(n)^dag S(n)) for the K_mu of ``_bloch_parts``;
    Q[0] is the Gram matrix of the K_mu.
    """
    return _parts_and_forms(v)[1]


def fidelity_from_bloch_batch(parts, ns) -> np.ndarray:
    """Best-program fidelity at each Bloch point; parts from device_parts()."""
    ns = np.atleast_2d(np.asarray(ns, dtype=float))
    return _scan_py.fidelity_batch(parts, ns, np.empty(len(ns)))


def fidelity_from_bloch(parts, n) -> float:
    """Single-point convenience wrapper."""
    return float(fidelity_from_bloch_batch(parts, np.asarray(n, dtype=float).reshape(1, 4))[0])

"""The scan's device model, and entry points to its inner loop, ``_scan_py.fidelity_batch``.

Only this module reads the K_mu of S(n) = sum_mu n_mu K_mu (``_bloch_parts``).
The scan gets two arrays built from them (``_scan_forms``): the real forms Q
(``device_parts``), off which the kernel reads a batch's fidelities in one
product, and the determinant form D, which steers the oracle's witness.  The
kernel takes the 8 axis points and one batch of the sweep's best row and the
4 witness candidates; the sweep reads Q in the rotation table's coordinates
(``oracle._sweep``).

A point's value does not depend on the batch around it, with one exception:
a batch of a single row (``fidelity_from_bloch``).  numpy computes its
(4, 10) x (10, 1) product on a different BLAS path, which can round the
last bit differently (up to 2.2e-16 in f).  Any split of a batch into
pieces of two or more rows gives bit-identical values; the oracle's
batches have 8 and 5 rows, so they never take the one-row path.
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
    """K_mu with S(n) = sum_mu n_mu K_mu, for a joint unitary v, validated here.

    K_mu = Tr_1[(B_mu^T x I) v^*] with B_0 = I and B_k = i sigma_k: S is linear in U.
    """
    basis = np.concatenate([PAULI[:1], 1j * PAULI[1:]])
    vc = np.conj(assert_unitary(v, 4, name="joint unitary")).reshape(2, 2, 2, 2)
    return np.einsum("mab,ajbl->mjl", basis, vc)


def _real_forms(parts) -> np.ndarray:
    """Q[a, mu, nu] = Re Tr(sigma_a K_mu^dag K_nu) of the K_mu, shape (4, 4, 4)."""
    # Tr(sigma_a K_mu^dag K_nu) sums the entrywise product of K_mu^* and K_nu sigma_a
    twisted = (parts @ PAULI[:, None]).reshape(4, 4, 4).transpose(0, 2, 1)
    return np.ascontiguousarray((parts.reshape(4, 4).conj() @ twisted).real)


def device_parts(v) -> np.ndarray:
    """The real forms Q[a, mu, nu] = Re Tr(sigma_a K_mu^dag K_nu), shape (4, 4, 4).

    n^T Q[a] n = Tr(sigma_a S(n)^dag S(n)) for the K_mu of ``_bloch_parts``;
    Q[0] is the Gram matrix of the K_mu.
    """
    return _real_forms(_bloch_parts(v))


def _scan_forms(v) -> tuple[np.ndarray, np.ndarray]:
    """The scan's inputs for a joint unitary v, validated once: Q (``device_parts``) and D.

    D is complex symmetric with det S(n) = n^T D n: for K_mu = [[a, b], [c, d]],
    D_mu,nu = (a_mu d_nu + d_mu a_nu - b_mu c_nu - c_mu b_nu) / 2.
    """
    parts = _bloch_parts(v)
    a, b, c, d = parts.reshape(4, 4).T
    det = np.outer(a, d) - np.outer(b, c)
    return _real_forms(parts), 0.5 * (det + det.T)


def fidelity_from_bloch_batch(forms, ns) -> np.ndarray:
    """Best-program fidelity at each Bloch point; forms from device_parts()."""
    ns = np.atleast_2d(np.asarray(ns, dtype=float))
    return _scan_py.fidelity_batch(forms, ns, np.empty(len(ns)))


def fidelity_from_bloch(forms, n) -> float:
    """Single-point convenience wrapper."""
    return float(fidelity_from_bloch_batch(forms, np.asarray(n, dtype=float).reshape(1, 4))[0])

"""The scan's device model and its inner loop, vectorized in numpy.

Only this module reads the K_mu of S(n) = sum_mu n_mu K_mu (S of the Bloch
basis); the scan gets the real forms Q and the determinant form D built from
them (``_scan_forms``).  The fidelity at Bloch point n is the top eigenvalue of
S^dag S over 4, and S^dag S = (h_0 I + sum_a h_a sigma_a) / 2 with h_a =
n^T Q_a n, so f = (h_0 + |(h_1, h_2, h_3)|) / 8 (``fidelity_tail``).  Each h_a
is linear in the ten monomials n_mu n_nu (mu <= nu, ``monomials``), so one
real (4, 10) x (10, n) matmul of their coefficients (``pack``) gives all
four for a batch (``fidelity_batch``).  The oracle's sweep takes both in
this module's order, only regroups their rows, and shares the tail; D
steers its witness.

A point's value does not depend on the batch around it, except in a batch of
a single row (``fidelity_from_bloch``): numpy computes that (4, 10) x (10, 1)
product on a different BLAS path, which can round the last bit differently
(up to 2.2e-16 in f).  Any split into pieces of two or more rows gives
bit-identical values, and the oracle's batches have 8 and 5 rows.
"""

from __future__ import annotations

import numpy as np

from .matops import assert_unitary
from .minimax import _s
from .pauli import PAULI

# the kernel's monomials n_mu n_nu, mu <= nu, in np.triu_indices order
_MU, _NU = np.triu_indices(4)

# B_mu = (I, i sigma_1, i sigma_2, i sigma_3); S is linear in the target, so K_mu = S(B_mu, v)
_BLOCH_BASIS = np.concatenate([PAULI[:1], 1j * PAULI[1:]])
_BLOCH_BASIS.setflags(write=False)


def backend_name() -> str:
    """Name of the scan kernel, recorded with every benchmark result."""
    return "python"


def _scan_forms(v) -> tuple[np.ndarray, np.ndarray]:
    """The scan's inputs for a joint unitary v, validated once: Q (``device_parts``) and D.

    D is complex symmetric with det S(n) = n^T D n: for K_mu = [[a, b], [c, d]],
    D_mu,nu = (a_mu d_nu + d_mu a_nu - b_mu c_nu - c_mu b_nu) / 2.
    """
    parts = _s(_BLOCH_BASIS, assert_unitary(v, 4, name="joint unitary"))
    # Tr(sigma_a K_mu^dag K_nu) sums the entrywise product of K_mu^* and K_nu sigma_a
    twisted = (parts @ PAULI[:, None]).reshape(4, 4, 4).transpose(0, 2, 1)
    forms = np.ascontiguousarray((parts.reshape(4, 4).conj() @ twisted).real)
    a, b, c, d = parts.reshape(4, 4).T
    det = np.outer(a, d) - np.outer(b, c)
    return forms, 0.5 * (det + det.T)


def device_parts(v) -> np.ndarray:
    """The real forms Q[a, mu, nu] = Re Tr(sigma_a K_mu^dag K_nu), shape (4, 4, 4).

    n^T Q[a] n = Tr(sigma_a S(n)^dag S(n)) for the K_mu = S(B_mu, v) of ``_scan_forms``;
    Q[0] is the Gram matrix of the K_mu.
    """
    return _scan_forms(v)[0]


def monomials(coords: np.ndarray) -> np.ndarray:
    """The monomials n_mu n_nu (mu <= nu) of the points in the columns of coords, (10, n).

    One broadcast product per mu into rows 0-3, 4-6, 7-8 and 9 (``_MU/_NU``
    order): no gathered temporaries.
    """
    out = np.empty((10, coords.shape[1]))
    for mu, row in enumerate((0, 4, 7, 9)):
        np.multiply(coords[mu], coords[mu:], out=out[row : row + 4 - mu])
    return out


def pack(forms: np.ndarray) -> np.ndarray:
    """The coefficients of ``monomials`` in n^T F n, for each form F (the last two axes).

    An off-diagonal monomial stands for two terms, so its coefficient is doubled.
    """
    return forms[..., _MU, _NU] * np.where(_MU == _NU, 1.0, 2.0)


def fidelity_tail(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out with (h_0 + sqrt(h_1^2 + h_2^2 + h_3^2)) / 8 from the rows of h, (4, m).

    Works in place: it overwrites h_1..h_3 and allocates nothing.
    """
    np.square(h[1:], out=h[1:])
    np.add(h[1], h[2], out=out)
    out += h[3]
    np.sqrt(out, out=out)
    out += h[0]
    out /= 8
    return out


def fidelity_batch(forms, ns, out):
    """Fill out[i] with the best-program fidelity at Bloch point ns[i], for the device's forms."""
    forms = np.asarray(forms, dtype=float)
    ns = np.asarray(ns, dtype=float)
    if forms.shape != (4, 4, 4):
        raise ValueError("forms must have shape (4, 4, 4)")
    if ns.ndim != 2 or ns.shape[1] != 4:
        raise ValueError("ns must have shape (n, 4)")
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != (len(ns),):
        raise ValueError("out must be a float64 array of shape (n,)")
    # the product's transpose, (4, 10) x (10, n), so that each h_a is a
    # contiguous row: h_0 (the trace), h_1, h_2, h_3
    return fidelity_tail(pack(forms) @ monomials(ns.T), out)


def fidelity_from_bloch_batch(forms, ns) -> np.ndarray:
    """Best-program fidelity at each Bloch point; forms from device_parts()."""
    ns = np.atleast_2d(np.asarray(ns, dtype=float))
    return fidelity_batch(forms, ns, np.empty(len(ns)))


def fidelity_from_bloch(forms, n) -> float:
    """Single-point convenience wrapper."""
    return float(fidelity_from_bloch_batch(forms, np.asarray(n, dtype=float).reshape(1, 4))[0])

"""The scan inner loop, vectorized in numpy.

For a fixed device the fidelity at Bloch point n is the top eigenvalue of
S^dag S over 4.  The 2x2 matrix S^dag S is (h_0 I + sum_a h_a sigma_a) / 2
with h_a = n^T Q_a n for the device's forms Q_a (``kernels.device_parts``),
so the fidelity is (h_0 + |(h_1, h_2, h_3)|) / 8 (``fidelity_tail``).  Each
h_a is linear in the ten monomials n_mu n_nu (mu <= nu), so one real
(4, 10) x (10, n) matmul gives all four for a batch of points.  The
oracle's sweep reads its h_a off the same packed coefficients (``pack``)
and shares the tail.
"""

from __future__ import annotations

import numpy as np

# the kernel's monomials n_mu n_nu, mu <= nu, in np.triu_indices order
_MU, _NU = np.triu_indices(4)


def pack(forms: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The coefficients of the monomials n_mu n_nu in n^T F n, for each form F (the last two axes).

    An off-diagonal monomial stands for two terms, so its coefficient is doubled.
    """
    return forms[..., mu, nu] * np.where(mu == nu, 1.0, 2.0)


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
    coords = ns.T
    # n_mu n_nu for mu <= nu in np.triu_indices order, one broadcast product
    # per mu into rows 0-3, 4-6, 7-8 and 9: no gathered temporaries
    monomials = np.empty((10, len(ns)))
    for mu, row in enumerate((0, 4, 7, 9)):
        np.multiply(coords[mu], coords[mu:], out=monomials[row : row + 4 - mu])
    # the product's transpose, (4, 10) x (10, n), so that each h_a is a
    # contiguous row: h_0 (the trace), h_1, h_2, h_3
    return fidelity_tail(pack(forms, _MU, _NU) @ monomials, out)

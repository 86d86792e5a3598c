"""The scan inner loop, vectorized in numpy.

For a fixed device the fidelity at Bloch point n is the top eigenvalue of
S^dag S over 4, with S(n) = sum_mu n_mu K_mu; at 2x2 it has a closed form.
"""

from __future__ import annotations

import numpy as np


def fidelity_batch(parts, ns, out):
    """Fill out[i] with the best-program fidelity at Bloch point ns[i]."""
    parts = np.asarray(parts, dtype=complex)
    ns = np.asarray(ns, dtype=float)
    if parts.shape != (4, 2, 2):
        raise ValueError("parts must have shape (4, 2, 2)")
    if ns.ndim != 2 or ns.shape[1] != 4 or out.shape[0] != ns.shape[0]:
        raise ValueError("ns must be (n, 4) and out must be (n,)")
    s = np.einsum("nm,mjl->njl", ns, parts)
    h00 = np.abs(s[:, 0, 0]) ** 2 + np.abs(s[:, 1, 0]) ** 2
    h11 = np.abs(s[:, 0, 1]) ** 2 + np.abs(s[:, 1, 1]) ** 2
    h01 = np.conj(s[:, 0, 0]) * s[:, 0, 1] + np.conj(s[:, 1, 0]) * s[:, 1, 1]
    mean = 0.5 * (h00 + h11)
    diff = 0.5 * (h00 - h11)
    np.copyto(out, 0.25 * (mean + np.sqrt(diff * diff + np.abs(h01) ** 2)))
    return out

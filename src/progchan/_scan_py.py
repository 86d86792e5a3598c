"""The scan inner loop, vectorized in numpy.

For a fixed device the fidelity at Bloch point n is the top eigenvalue of
S^dag S over 4, with S(n) = sum_mu n_mu K_mu; at 2x2 it has a closed form.
S is real-linear in n, so the sum is one real (n, 4) x (4, 8) matmul whose
rows are the real and imaginary parts of S's four entries, read back as
complex without a copy.  Points go through in blocks of ``_BLOCK`` rows.
"""

from __future__ import annotations

import numpy as np

# rows per block: about 1 MB of temporaries, which stay in a core's L2 cache
_BLOCK = 4096


def fidelity_batch(parts, ns, out):
    """Fill out[i] with the best-program fidelity at Bloch point ns[i]."""
    # C order makes the float views below legal and the matmul's rounding
    # the same for every input layout; contiguous inputs are not copied
    parts = np.ascontiguousarray(parts, dtype=complex)
    ns = np.ascontiguousarray(ns, dtype=float)
    if parts.shape != (4, 2, 2):
        raise ValueError("parts must have shape (4, 2, 2)")
    if ns.ndim != 2 or ns.shape[1] != 4:
        raise ValueError("ns must have shape (n, 4)")
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != (len(ns),):
        raise ValueError("out must be a float64 array of shape (n,)")
    # row mu: Re, Im of K_mu[0, 0], K_mu[0, 1], K_mu[1, 0], K_mu[1, 1]
    k = parts.reshape(4, 4).view(float)
    n = len(ns)
    start = 0
    while start < n:
        # a lone last row would take numpy's vector-matrix path, which can
        # round differently (see kernels.py), so it joins the block before it
        stop = n if n - start < _BLOCK + 2 else start + _BLOCK
        # columns: S00, S01, S10, S11
        s = (ns[start:stop] @ k).view(complex)
        mag = np.abs(s) ** 2
        h00 = mag[:, 0] + mag[:, 2]
        h11 = mag[:, 1] + mag[:, 3]
        cross = np.conj(s[:, 0::2]) * s[:, 1::2]
        h01 = cross[:, 0] + cross[:, 1]
        mean = 0.5 * (h00 + h11)
        diff = 0.5 * (h00 - h11)
        np.copyto(out[start:stop], 0.25 * (mean + np.sqrt(diff * diff + np.abs(h01) ** 2)))
        start = stop
    return out

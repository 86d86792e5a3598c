"""Dense complex matrix kernel for the fixed dimensions 2 and 4.

Everything downstream (states, gates, the S operator) lives in C^2 or C^4,
so the helpers here deliberately reject anything larger.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

SUPPORTED_DIMS = (2, 4)

#: tolerance for exact algebraic identities
ALGEBRA_TOL = 1e-12
#: tolerance for decomposition residuals
DECOMP_TOL = 1e-10


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array of dimension 2 or 4."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in SUPPORTED_DIMS:
        raise DimensionError(f"{name} must be 2x2 or 4x4, got {a.shape[0]}x{a.shape[0]}")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; the (i,j) block row index is dim(b)*i + j."""
    a = as_matrix(a, "kron operand a")
    b = as_matrix(b, "kron operand b")
    out_dim = a.shape[0] * b.shape[0]
    if out_dim > 4:
        raise DimensionError(f"kron result dimension {out_dim} exceeds supported size 4")
    # broadcasting beats np.kron by ~5x at these sizes
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(out_dim, out_dim)


def partial_trace(m, subsystem: int) -> np.ndarray:
    """Trace out one tensor factor of a 4x4 matrix.

    Index convention r = 2*i + j for the basis |i>|j>.  ``subsystem=1``
    removes the first factor, ``subsystem=2`` the second.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionError(f"partial_trace needs a 4x4 matrix, got shape {m.shape}")
    r = m.reshape(2, 2, 2, 2)
    if subsystem == 1:
        return np.einsum("ijil->jl", r)
    if subsystem == 2:
        return np.einsum("ijkj->ik", r)
    raise DimensionError(f"subsystem must be 1 or 2, got {subsystem}")


def vectorize(a) -> np.ndarray:
    """Row-major operator vector: amps[(i,j)] = a[i][j]."""
    a = as_matrix(a)
    return a.reshape(-1).copy()


def devectorize(amps) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(amps, dtype=complex).reshape(-1)
    if v.size == 4:
        return v.reshape(2, 2).copy()
    if v.size == 16:
        return v.reshape(4, 4).copy()
    raise DimensionError(f"operator vector must have 4 or 16 amplitudes, got {v.size}")


def is_hermitian(m, tol: float = DECOMP_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m, tol: float = DECOMP_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= tol)


def density_mask(ms, tol: float = DECOMP_TOL) -> np.ndarray:
    """Per-state test over an (n, d, d) stack: Hermitian, unit trace and
    positive semidefinite (to -tol).

    The eigenvalues are computed, in one batched call, only when every state
    passes the cheap tests, so a non-finite entry never reaches eigvalsh.
    """
    ms = np.asarray(ms, dtype=complex)
    adjoint = ms.conj().swapaxes(-1, -2)
    trace = np.trace(ms, axis1=-2, axis2=-1)
    ok = (np.abs(ms - adjoint) <= tol).all(axis=(-2, -1))
    ok &= (np.abs(trace.real - 1.0) <= tol) & (np.abs(trace.imag) <= tol)
    if ok.all():
        ok = np.linalg.eigvalsh((ms + adjoint) / 2)[..., 0] >= -tol
    return ok


def is_density(m, tol: float = DECOMP_TOL) -> bool:
    """Hermitian, positive semidefinite (to -tol) and unit trace."""
    return bool(density_mask(np.asarray(m, dtype=complex)[None], tol)[0])


def assert_unitary(m, tol: float = DECOMP_TOL, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m, name)
    if not is_unitary(m, tol):
        raise ContractError(f"{name} is not unitary at tolerance {tol:g}")
    return m


def assert_density(m, tol: float = DECOMP_TOL, name: str = "state") -> np.ndarray:
    m = as_matrix(m, name)
    if not is_density(m, tol):
        raise ContractError(f"{name} is not a valid density matrix at tolerance {tol:g}")
    return m


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Eigenvector phases are canonicalized: the largest-modulus component of
    each vector is made real and positive, so repeated runs agree exactly.
    """
    h = as_matrix(h, "hermitian matrix")
    if not is_hermitian(h, DECOMP_TOL):
        raise ContractError("hermitian_eig requires a Hermitian matrix")
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    order = np.argsort(evals)[::-1]
    evals = evals[order].copy()
    vecs = vecs[:, order]
    pivots = np.argmax(np.abs(vecs), axis=0)
    anchors = vecs[pivots, np.arange(vecs.shape[1])]
    vecs = vecs * np.conj(anchors / np.abs(anchors))
    return evals, vecs


def operator_norm(a) -> float:
    """Largest singular value."""
    a = as_matrix(a)
    return float(np.linalg.norm(a, ord=2))


def equal_up_to_global_phase(a, b, tol: float = ALGEBRA_TOL) -> bool:
    """True iff a = e^{i gamma} b for some phase, within ``tol`` in operator norm.

    The candidate phase is read off the largest-modulus entry of b^dag a.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise DimensionError("equal_up_to_global_phase needs matching shapes")
    overlap = b.conj().T @ a
    pivot = np.unravel_index(np.argmax(np.abs(overlap)), overlap.shape)
    if abs(overlap[pivot]) == 0.0:
        return operator_norm(a - b) <= tol
    phase = overlap[pivot] / abs(overlap[pivot])
    return operator_norm(a - phase * b) <= tol

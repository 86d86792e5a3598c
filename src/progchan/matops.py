"""Dense complex matrix kernel for the fixed dimensions 2 and 4, and the
package's input contract.

Everything downstream (states, gates, the S operator) lives in C^2 or C^4,
so the helpers here deliberately reject anything larger.  ``assert_unitary``
and ``assert_density`` decide shape, unitarity and density for every caller.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

SUPPORTED_DIMS = (2, 4)

#: tolerance for exact algebraic identities
ALGEBRA_TOL = 1e-12
#: tolerance for decomposition residuals
DECOMP_TOL = 1e-10


def as_matrix(m, name: str = "matrix", dims: tuple = SUPPORTED_DIMS) -> np.ndarray:
    """Coerce to a square complex array whose dimension is one of ``dims``."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] not in dims:
        allowed = " or ".join(f"{d}x{d}" for d in dims)
        raise DimensionError(f"{name} must be {allowed}, got {a.shape[0]}x{a.shape[0]}")
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
    r = as_matrix(m, "partial_trace operand", (4,)).reshape(2, 2, 2, 2)
    if subsystem == 1:
        return np.einsum("ijil->jl", r)
    if subsystem == 2:
        return np.einsum("ijkj->ik", r)
    raise DimensionError(f"subsystem must be 1 or 2, got {subsystem}")


def _min_eigenvalue_2x2(ms) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each state of an (n, 2, 2)
    stack: (a + d)/2 - hypot((a - d)/2, |b|) for [[a, b], [b^*, d]]."""
    a = ms[:, 0, 0].real
    d = ms[:, 1, 1].real
    b = (ms[:, 0, 1] + ms[:, 1, 0].conj()) / 2
    return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(b))


def density_mask(ms, tol: float = DECOMP_TOL) -> np.ndarray:
    """Per-state test over an (n, 2, 2) stack: Hermitian, unit trace and
    positive semidefinite (to -tol).

    The smallest eigenvalue is computed, in closed form, only for the states
    that pass the cheap tests, so a non-finite entry never reaches it.
    """
    ms = np.asarray(ms, dtype=complex)
    adjoint = ms.conj().swapaxes(-1, -2)
    trace = np.trace(ms, axis1=-2, axis2=-1)
    ok = (np.abs(ms - adjoint) <= tol).all(axis=(-2, -1))
    ok &= (np.abs(trace.real - 1.0) <= tol) & (np.abs(trace.imag) <= tol)
    ok[ok] = _min_eigenvalue_2x2(ms[ok]) >= -tol
    return ok


def assert_unitary(m, dim: int, name: str = "matrix") -> np.ndarray:
    """A dim x dim unitary, or DimensionError / ContractError naming ``name``."""
    m = as_matrix(m, name, (dim,))
    # written as "not <=" so that a NaN fails the check
    if not np.max(np.abs(m.conj().T @ m - np.eye(dim))) <= DECOMP_TOL:
        raise ContractError(f"{name} is not unitary at tolerance {DECOMP_TOL:g}")
    return m


def assert_density(m, name: str = "state") -> np.ndarray:
    """One 2x2 density matrix or an (n, 2, 2) stack of them.

    A bad state of a stack is named by its index ("program state 3 is not ...").
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (2, 2):
        raise DimensionError(f"{name} must be 2x2 or an (n, 2, 2) stack, got shape {m.shape}")
    bad = np.flatnonzero(~density_mask(m.reshape(-1, 2, 2)))
    if bad.size:
        which = f"{name} {bad[0]}" if m.ndim == 3 else name
        raise ContractError(f"{which} is not a valid density matrix at tolerance {DECOMP_TOL:g}")
    return m


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Eigenvector phases are canonicalized: the largest-modulus component of
    each vector is made real and positive, so repeated runs agree exactly.
    """
    h = as_matrix(h, "hermitian matrix")
    if not np.max(np.abs(h - h.conj().T)) <= DECOMP_TOL:
        raise ContractError("hermitian_eig requires a Hermitian matrix")
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    order = np.argsort(evals)[::-1]
    evals = evals[order].copy()
    vecs = vecs[:, order]
    pivots = np.argmax(np.abs(vecs), axis=0)
    anchors = vecs[pivots, np.arange(vecs.shape[1])]
    vecs = vecs * np.conj(anchors / np.abs(anchors))
    return evals, vecs


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
    phase = overlap[pivot] / abs(overlap[pivot]) if abs(overlap[pivot]) else 1.0
    return bool(np.linalg.norm(a - phase * b, 2) <= tol)

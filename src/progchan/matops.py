"""Dense complex matrix kernel for the fixed dimensions 2 and 4, and the
package's input contract.

Everything downstream (states, gates, the S operator) lives in C^2 or C^4,
so the helpers here deliberately reject anything larger.  ``assert_unitary``
and ``assert_density`` decide shape, unitarity and density for every caller,
``_is_integer`` and ``_is_real`` which scalars count as integers and reals
(``_check_count`` applies the first to counts, ``_real_array`` the second to
arrays), and ``_within_entry_bound`` which entries are in bounds.
"""

from __future__ import annotations

from numbers import Integral, Number, Real

import numpy as np

from .errors import ContractError, DimensionError

SUPPORTED_DIMS = (2, 4)

#: tolerance for exact algebraic identities
ALGEBRA_TOL = 1e-12
#: tolerance for decomposition residuals
DECOMP_TOL = 1e-10
# no entry of a unitary, a density matrix, a complete Kraus family or a Bloch
# vector has a real or imaginary part this large (``_within_entry_bound``)
_ENTRY_BOUND = 2.0


def _is_integer(x) -> bool:
    """True for a Python or numpy integer; False for a bool, an np.bool_ or a float."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def _check_count(name: str, value, lowest: int = 0, cap: tuple[str, int] | None = None) -> None:
    """ContractError unless value is an integer count of at least ``lowest``
    and, given a (constant name, bound) ``cap``, at most the bound."""
    if not _is_integer(value):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < lowest:
        raise ContractError(f"{name} must be >= {lowest}, got {value}")
    if cap is not None and value > cap[1]:
        raise ContractError(f"{name} must be <= {cap[0]} = {cap[1]}, got {value}")


def _is_real(x) -> bool:
    """True for a Python or numpy integer or float; False for a bool or an np.bool_ (not Real)."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _real_array(x, name: str) -> np.ndarray:
    """x as a float array, or ContractError unless every entry is real (``_is_real``).

    Real input keeps its bits.  A complex entry is refused whatever its
    imaginary part, where numpy's float cast would drop that part.
    """
    a = np.asarray(x)
    if a.dtype.kind == "O" and all(map(_is_real, a.flat)):  # ints beyond int64, say
        a = a.astype(float)
    if a.dtype.kind not in "iuf":
        raise ContractError(f"{name} must hold real numbers, got {a.dtype} entries")
    return a.astype(float, copy=False)


def _within_entry_bound(a, axis=None):
    """Whether every real and imaginary part of a, over ``axis`` (all by default),
    lies within ``_ENTRY_BOUND``; a NaN fails.  Callers check it before any product."""
    parts = np.abs(np.ascontiguousarray(a, dtype=complex).view(float))
    return (parts <= _ENTRY_BOUND).all(axis=axis)


def as_matrix(m, name: str = "matrix", dims: tuple = SUPPORTED_DIMS) -> np.ndarray:
    """Coerce to a square complex array whose dimension is one of ``dims``.

    Entries must be numbers: numpy's complex cast would parse a string.
    """
    a = np.asarray(m)
    kind = a.dtype.kind
    if not (kind in "biufc" or kind == "O" and all(isinstance(x, Number) for x in a.flat)):
        raise ContractError(f"{name} must hold numbers, got {a.dtype} entries")
    a = a.astype(complex, copy=False)
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
    if (out_dim := a.shape[0] * b.shape[0]) > 4:
        raise DimensionError(f"kron result dimension {out_dim} exceeds supported size 4")
    return _kron(a, b)


def _kron(a, b) -> np.ndarray:
    """Unvalidated ``kron`` of (..., m, m) and (..., n, n) stacks; 5x faster than numpy's kron."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-1] * b.shape[-1],) * 2)


def partial_trace(m, subsystem: int) -> np.ndarray:
    """Trace out one tensor factor of a 4x4 matrix.

    Index convention r = 2*i + j for the basis |i>|j>.  ``subsystem=1``
    removes the first factor, ``subsystem=2`` the second.
    """
    r = as_matrix(m, "partial_trace operand", (4,)).reshape(2, 2, 2, 2)
    if not _is_integer(subsystem) or subsystem not in (1, 2):
        raise DimensionError(f"subsystem must be 1 or 2, got {subsystem!r}")
    return np.einsum("ijil->jl" if subsystem == 1 else "ijkj->ik", r)


def _min_eigenvalue_2x2(ms) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each state of an (n, 2, 2)
    stack: (a + d)/2 - hypot((a - d)/2, |b|) for [[a, b], [b^*, d]]."""
    a = ms[:, 0, 0].real
    d = ms[:, 1, 1].real
    b = (ms[:, 0, 1] + ms[:, 1, 0].conj()) / 2
    return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(b))


def density_mask(ms) -> np.ndarray:
    """Per-state test over an (n, 2, 2) stack: finite, Hermitian, unit trace
    and positive semidefinite (to -DECOMP_TOL).

    A state that passes has Re a, Re d in [-tol, 1 + 2 tol], |Im a|, |Im d|
    <= tol/2 and |b|, |c| below 1/2 + 2 tol, so an entry beyond the entry
    bound (``_within_entry_bound``) fails it before any arithmetic: no NaN,
    infinity or overflow reaches the tests.
    Only states that pass the cheap tests reach the closed-form smallest
    eigenvalue.  For [[a, b], [c, d]], m - m^dag holds 2i Im a, 2i Im d,
    b - c^* and -(b - c^*)^*.
    """
    ms = np.asarray(ms, dtype=complex)
    ok = _within_entry_bound(ms, axis=(-2, -1))
    finite = ms[ok]
    a, b, c, d = finite[:, 0, 0], finite[:, 0, 1], finite[:, 1, 0], finite[:, 1, 1]
    trace = a + d
    tol = DECOMP_TOL
    good = (np.abs(a.imag) <= tol / 2) & (np.abs(d.imag) <= tol / 2) & (np.abs(b - c.conj()) <= tol)
    good &= (np.abs(trace.real - 1.0) <= tol) & (np.abs(trace.imag) <= tol)
    good[good] = _min_eigenvalue_2x2(finite[good]) >= -tol
    ok[ok] = good
    return ok


def assert_unitary(m, dim: int, name: str = "matrix") -> np.ndarray:
    """A dim x dim unitary, or DimensionError / ContractError naming ``name``."""
    m = as_matrix(m, name, (dim,))
    # "not <=" so that a NaN fails the check
    if not (_within_entry_bound(m) and np.max(np.abs(m.conj().T @ m - np.eye(dim))) <= DECOMP_TOL):
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

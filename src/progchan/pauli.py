"""Pauli-basis algebra: Bloch form of SU(2) and the theta -> t map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .matops import _real_array, _within_entry_bound, assert_unitary

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
PAULI.setflags(write=False)

# 4x4 Hadamard matrix with entries +-1/2; rows map eigenphases to t components.
HADAMARD = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)
HADAMARD.setflags(write=False)

#: |t_j| below this is treated as zero and assigned phase 0
ZERO_MODULUS = 1e-12
#: max deviation of |n|^2 from 1 for a Bloch vector on S^3
S3_TOL = 1e-12
# bounds of sum |t_j|^2 = 4 and min |t_j| <= 1, for TVector and `verify`'s rows
_SUM_RULE_TOL, _MIN_BOUND_TOL = 1e-10, 1e-12


def wrap_phase(theta):
    """Reduce angles to the interval (-pi, pi]."""
    theta = _real_array(theta, "phase")
    wrapped = np.mod(theta + np.pi, 2 * np.pi) - np.pi
    # np.mod maps odd multiples of pi to -pi; fold them back to +pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def assert_bloch(n) -> np.ndarray:
    """A real 4-vector on S^3, or DimensionError / ContractError (NaN included)."""
    n = _real_array(n, "Bloch vector")
    if n.shape != (4,):
        raise DimensionError(f"Bloch vector must have shape (4,), got {n.shape}")
    # a component out of bounds fails before n @ n can overflow
    if not _within_entry_bound(n):
        raise ContractError("Bloch vector is not on S^3: a component is not finite or beyond 2")
    if not abs(n @ n - 1.0) <= S3_TOL:
        raise ContractError(f"Bloch vector is not on S^3: |n|^2 = {float(n @ n)!r}")
    return n


def bloch_to_matrix(n) -> np.ndarray:
    """U = n0 I + i (n1 X + n2 Y + n3 Z) for a unit 4-vector n."""
    n = assert_bloch(n)
    return n[0] * PAULI[0] + 1j * (n[1] * PAULI[1] + n[2] * PAULI[2] + n[3] * PAULI[3])


def matrix_to_bloch(u) -> np.ndarray:
    """Bloch 4-vector of a 2x2 unitary, after stripping the global phase.

    The determinant is normalized to 1 on the principal branch, so the
    result is fixed only up to the overall sign of (n0, n).
    """
    u = assert_unitary(u, 2, name="bloch input")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    su = u / np.exp(0.5j * np.angle(det))
    n = np.empty(4)
    n[0] = np.trace(su).real / 2
    for k in (1, 2, 3):
        n[k] = np.trace(PAULI[k] @ su).imag / 2
    return n / np.linalg.norm(n)


@dataclass(frozen=True)
class TVector:
    """The four complex amplitudes fixing the worst-case fidelity, or a (..., 4) stack of them."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.shape[-1:] != (4,):
            raise DimensionError(f"t vector must have 4 components, got shape {t.shape}")
        object.__setattr__(self, "t", t)
        moduli = np.abs(t)
        totals = (moduli**2).sum(-1)
        # written as "<=" so that a NaN fails the guard; the first broken row is quoted
        held = abs(totals - 4.0) <= _SUM_RULE_TOL
        if not held.all():
            raise ContractError(f"sum |t_j|^2 must be 4, got {float(totals[~held].flat[0])!r}")
        if (moduli.min(-1) > 1.0 + _MIN_BOUND_TOL).any():
            raise ContractError("min |t_j| must not exceed 1")

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.t)

    @property
    def phases(self) -> np.ndarray:
        """arg(t_j) in (-pi, pi], with zero-modulus components assigned phase 0."""
        return np.where(self.moduli < ZERO_MODULUS, 0.0, np.angle(self.t))

    def pair_matrix(self) -> np.ndarray:
        """T_ij = |t_i|^2 |t_j|^2 sin^2(phi_i - phi_j), shape (..., 4, 4)."""
        w, phi = self.moduli**2, self.phases[..., None]
        return w[..., :, None] * w[..., None, :] * np.sin(phi - phi.swapaxes(-1, -2)) ** 2


def _hadamard_t_raw(theta) -> np.ndarray:
    """The t vectors (..., 4) of ``hadamard_t``, their sum rule and bound unchecked.

    Uses t0 = (1/2) sum_j e^{-i theta_j} and t_j = e^{-i theta_0} +
    e^{-i theta_j} - t0; contracting HADAMARD against e^{-i theta} gives the
    same vector.
    """
    theta = _real_array(theta, "phase vector")
    if theta.shape[-1:] != (4,):
        raise DimensionError(f"phase vector must have 4 components, got shape {theta.shape}")
    z = np.exp(-1j * theta)
    t0 = 0.5 * z.sum(axis=-1, keepdims=True)
    t = z + z[..., :1] - t0
    t[..., :1] = t0
    return t


def hadamard_t(theta) -> TVector:
    """Map eigenphases (..., 4) of canonical interactions to t vectors (``_hadamard_t_raw``)."""
    return TVector(_hadamard_t_raw(theta))


def hadamard_t_contract(theta) -> np.ndarray:
    """The cross-check route H . e^{-i theta}: H @ z per vector, as z @ H rounds differently."""
    return (HADAMARD @ np.exp(-1j * _real_array(theta, "phase vector"))[..., None])[..., 0]

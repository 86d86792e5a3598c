"""Pauli-basis algebra: Bloch form of SU(2) and the theta -> t map."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ContractError, DimensionError
from .matops import assert_unitary

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


def pauli(j: int) -> np.ndarray:
    """sigma_0 = I, sigma_1 = X, sigma_2 = Y, sigma_3 = Z."""
    # numpy integers are Integral; bool is too, but is no index
    if not isinstance(j, Integral) or isinstance(j, bool) or j not in (0, 1, 2, 3):
        raise DimensionError(f"Pauli index must be 0..3, got {j!r}")
    return PAULI[j].copy()


def wrap_phase(theta):
    """Reduce angles to the interval (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.mod(theta + np.pi, 2 * np.pi) - np.pi
    # np.mod maps odd multiples of pi to -pi; fold them back to +pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def assert_bloch(n) -> np.ndarray:
    """A real 4-vector on S^3, or DimensionError / ContractError (NaN included)."""
    n = np.asarray(n, dtype=float).reshape(-1)
    if n.size != 4:
        raise DimensionError(f"Bloch vector must have 4 components, got {n.size}")
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
    """The four complex amplitudes whose minimum modulus fixes the worst-case fidelity."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex).reshape(-1)
        if t.size != 4:
            raise DimensionError(f"t vector must have 4 components, got {t.size}")
        object.__setattr__(self, "t", t)
        total = float(np.sum(np.abs(t) ** 2))
        # written as "not <=" so that a NaN fails the guard
        if not abs(total - 4.0) <= 1e-10:
            raise ContractError(f"sum |t_j|^2 must be 4, got {total!r}")
        if float(np.min(np.abs(t))) > 1.0 + 1e-12:
            raise ContractError("min |t_j| must not exceed 1")

    @property
    def moduli(self) -> np.ndarray:
        return np.abs(self.t)

    @property
    def phases(self) -> np.ndarray:
        """arg(t_j) in (-pi, pi], with zero-modulus components assigned phase 0."""
        return np.where(self.moduli < ZERO_MODULUS, 0.0, np.angle(self.t))

    def pair_matrix(self) -> np.ndarray:
        """T_ij = |t_i|^2 |t_j|^2 sin^2(phi_i - phi_j)."""
        w = self.moduli**2
        dphi = np.subtract.outer(self.phases, self.phases)
        return np.outer(w, w) * np.sin(dphi) ** 2


def hadamard_t(theta) -> TVector:
    """Map the four eigenphases of a canonical interaction to its t vector.

    Uses t0 = (1/2) sum_j e^{-i theta_j} and t_j = e^{-i theta_0} +
    e^{-i theta_j} - t0; contracting HADAMARD against e^{-i theta} gives the
    same vector.
    """
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != 4:
        raise DimensionError(f"phase vector must have 4 components, got {theta.size}")
    z = np.exp(-1j * theta)
    t0 = 0.5 * z.sum()
    t = np.array([t0, z[0] + z[1] - t0, z[0] + z[2] - t0, z[0] + z[3] - t0])
    return TVector(t)


def hadamard_t_contract(theta) -> np.ndarray:
    """The Hadamard-contraction route H . e^{-i theta}, kept as a cross-check."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    return HADAMARD @ np.exp(-1j * theta)

"""Programmed channels: Kraus families, fidelity, and distance measures.

The programmable device applies a fixed joint unitary V to system (+) ancilla
and discards the ancilla; the ancilla state sigma is the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .matops import (
    DECOMP_TOL,
    as_matrix,
    assert_density,
    assert_unitary,
    density_mask,
    hermitian_eig,
    kron,
    partial_trace,
)
from .minimax import s_operator

#: Choi eigenvalues below this are treated as zero rank
CHOI_RANK_CUTOFF = 1e-12

COMPLETENESS_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A qubit channel rho -> sum_i K_i rho K_i^dag with complete Kraus family."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(as_matrix(k, "Kraus operator") for k in self.ops)
        if not ops:
            raise ContractError("Kraus family must be non-empty")
        object.__setattr__(self, "ops", ops)
        defect = self.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise ContractError(f"Kraus family not complete: defect {defect:.3e}")

    def completeness_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(2))))

    def apply(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.ops)


def _programmed_action(v, sigma, mat) -> np.ndarray:
    """Tr_2[ V (mat x sigma) V^dag ] without input validation."""
    joint = v @ kron(mat, sigma) @ v.conj().T
    return partial_trace(joint, 2)


def apply_programmed(v, sigma, rho) -> np.ndarray:
    """Run the device once: Tr_2[ V (rho x sigma) V^dag ]."""
    v = assert_unitary(v, name="joint unitary")
    sigma = assert_density(sigma, name="program state")
    rho = assert_density(rho, name="input state")
    return _programmed_action(v, sigma, rho)


def program_channel(v, sigma) -> KrausChannel:
    """Kraus family of the programmed channel, extracted from its Choi matrix.

    The map is applied to the four matrix units |i><j|, the resulting 4x4
    Choi matrix is eigendecomposed, and eigenpairs above CHOI_RANK_CUTOFF
    become Kraus operators.
    """
    v = assert_unitary(v, name="joint unitary")
    sigma = assert_density(sigma, name="program state")
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            choi[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = _programmed_action(v, sigma, unit)
    evals, vecs = hermitian_eig(choi)
    ops = []
    for lam, col in zip(evals, vecs.T):
        if lam > CHOI_RANK_CUTOFF:
            ops.append(np.sqrt(lam) * col.reshape(2, 2).T)
    return KrausChannel(tuple(ops))


def channel_fidelity(u, channel: KrausChannel) -> float:
    """Overlap of a channel with a target unitary: (1/4) sum_i |Tr[K_i^dag U]|^2."""
    u = assert_unitary(u, name="target unitary")
    if u.shape != (2, 2):
        raise ContractError("channel_fidelity target must be a 2x2 unitary")
    total = sum(abs(np.trace(k.conj().T @ u)) ** 2 for k in channel.ops)
    return float(min(max(total / 4.0, 0.0), 1.0))


def _assert_density_stack(sigmas, tol: float = DECOMP_TOL) -> np.ndarray:
    """assert_density for every state of an (n, 2, 2) stack."""
    sigmas = np.asarray(sigmas, dtype=complex)
    if sigmas.ndim != 3 or sigmas.shape[1:] != (2, 2):
        raise DimensionError(f"program state stack must have shape (n, 2, 2), got {sigmas.shape}")
    bad = np.flatnonzero(~density_mask(sigmas, tol))
    if bad.size:
        raise ContractError(
            f"program state {bad[0]} is not a valid density matrix at tolerance {tol:g}"
        )
    return sigmas


def program_overlap(u, v, sigma):
    """Fidelity of the programmed channel for a given program state.

    Evaluates (1/4) Tr[sigma^T S(U,V)^dag S(U,V)], which equals the Kraus-sum
    fidelity of the channel produced by (v, sigma) without extracting Kraus
    operators.  ``sigma`` may also be an (n, 2, 2) stack of program states;
    S is then built once and an array of n fidelities is returned.
    """
    stacked = np.ndim(sigma) == 3
    if stacked:
        sigma = _assert_density_stack(sigma)
    else:
        sigma = assert_density(sigma, name="program state")
    s = s_operator(u, v)
    product = np.swapaxes(sigma, -1, -2) @ s.conj().T @ s
    values = np.clip(np.trace(product, axis1=-2, axis2=-1).real / 4.0, 0.0, 1.0)
    return values if stacked else float(values)


def distance(f: float) -> float:
    """Channel distance sqrt(1 - F) induced by the fidelity."""
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ContractError(f"fidelity must lie in [0, 1], got {f!r}")
    return float(np.sqrt(max(1.0 - f, 0.0)))


def avg_io_fidelity(f: float, d: int) -> float:
    """Input-output fidelity averaged over pure states: (1 + d F) / (d + 1)."""
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ContractError(f"fidelity must lie in [0, 1], got {f!r}")
    if int(d) != d or d < 2:
        raise ContractError(f"dimension must be an integer >= 2, got {d!r}")
    return (1.0 + d * f) / (d + 1.0)

"""Programmed channels: Kraus families, fidelity, and distance measures.

The programmable device applies a fixed joint unitary V to system (+) ancilla
and discards the ancilla; the ancilla state sigma is the program.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .matops import (
    _ENTRY_BOUND, _is_real, as_matrix, assert_density, assert_unitary, hermitian_eig, kron,
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
        ops = tuple(as_matrix(k, "Kraus operator", (2,)) for k in self.ops)
        if not ops:
            raise ContractError("Kraus family must be non-empty")
        # a complete family's entries are within 1 in modulus, so a real or
        # imaginary part beyond _ENTRY_BOUND fails before the product below can
        # meet an infinity, NaN or overflow; "not <=" fails the NaN maximum too
        if not np.max(np.abs(np.array(ops).view(float))) <= _ENTRY_BOUND:
            raise ContractError("Kraus family not complete: an entry is not finite or beyond 2")
        object.__setattr__(self, "ops", ops)
        defect = self.completeness_defect()
        if not defect <= COMPLETENESS_TOL:  # "not <=" so that a NaN fails
            raise ContractError(f"Kraus family not complete: defect {defect:.3e}")

    def completeness_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(2))))

    def apply(self, rho) -> np.ndarray:
        rho = as_matrix(rho, "input state", (2,))
        return sum(k @ rho @ k.conj().T for k in self.ops)


def _assert_state(m, name: str) -> np.ndarray:
    """One 2x2 density matrix (``assert_density`` alone also passes a stack)."""
    return assert_density(as_matrix(m, name, (2,)), name=name)


def _programmed_action(v, sigma, mat) -> np.ndarray:
    """Tr_2[ V (mat x sigma) V^dag ] without input validation."""
    joint = v @ kron(mat, sigma) @ v.conj().T
    return partial_trace(joint, 2)


def apply_programmed(v, sigma, rho) -> np.ndarray:
    """Run the device once: Tr_2[ V (rho x sigma) V^dag ]."""
    v = assert_unitary(v, 4, name="joint unitary")
    sigma = _assert_state(sigma, "program state")
    rho = _assert_state(rho, "input state")
    return _programmed_action(v, sigma, rho)


def _choi_matrix(v, sigma) -> np.ndarray:
    """Choi matrix of the programmed channel, without input validation.

    Its block (i, j) is Tr_2[V (|i><j| x sigma) V^dag].  With
    A[(i, a), (c, k)] = V[(a, c), (i, k)] the whole matrix is
    A (I x sigma) A^dag, two matmuls.
    """
    a = v.reshape(2, 2, 2, 2).transpose(2, 0, 1, 3).reshape(4, 4)
    return (a.reshape(8, 2) @ sigma).reshape(4, 4) @ a.conj().T


def program_channel(v, sigma) -> KrausChannel:
    """Kraus family of the programmed channel, extracted from its Choi matrix.

    The Choi matrix is eigendecomposed, and eigenpairs above
    CHOI_RANK_CUTOFF become Kraus operators.
    """
    v = assert_unitary(v, 4, name="joint unitary")
    sigma = _assert_state(sigma, "program state")
    evals, vecs = hermitian_eig(_choi_matrix(v, sigma))
    ops = []
    for lam, col in zip(evals, vecs.T):
        if lam > CHOI_RANK_CUTOFF:
            ops.append(np.sqrt(lam) * col.reshape(2, 2).T)
    return KrausChannel(tuple(ops))


def channel_fidelity(u, channel: KrausChannel) -> float:
    """Overlap of a channel with a target unitary: (1/4) sum_i |Tr[K_i^dag U]|^2."""
    u = assert_unitary(u, 2, name="target unitary")
    total = sum(abs(np.trace(k.conj().T @ u)) ** 2 for k in channel.ops)
    return float(min(max(total / 4.0, 0.0), 1.0))


def program_overlap(u, v, sigma):
    """Fidelity of the programmed channel for a given program state.

    Evaluates (1/4) Tr[sigma^T S(U,V)^dag S(U,V)], which equals the Kraus-sum
    fidelity of the channel produced by (v, sigma) without extracting Kraus
    operators.  ``sigma`` may also be an (n, 2, 2) stack of program states;
    S is then built once and an array of n fidelities is returned.
    """
    sigma = assert_density(sigma, name="program state")
    s = s_operator(u, v)
    # Tr[sigma^T H] = sum_ab sigma_ab H_ab: one (n, 4) @ (4,) product
    flat = sigma.reshape(sigma.shape[:-2] + (4,))
    values = np.clip((flat @ (s.conj().T @ s).reshape(4)).real / 4.0, 0.0, 1.0)
    return values if sigma.ndim == 3 else float(values)


def _check_fidelity(f) -> None:
    """ContractError unless f is a real number in [0, 1], up to rounding."""
    if not _is_real(f) or not -1e-12 <= f <= 1.0 + 1e-12:
        raise ContractError(f"fidelity must lie in [0, 1], got {f!r}")


def distance(f: float) -> float:
    """Channel distance sqrt(1 - F) induced by the fidelity."""
    _check_fidelity(f)
    return float(np.sqrt(max(1.0 - f, 0.0)))


def avg_io_fidelity(f: float, d: int) -> float:
    """Input-output fidelity averaged over pure states: (1 + d F) / (d + 1)."""
    _check_fidelity(f)
    # compared, never cast: an int beyond float range fails here, not in a float();
    # NaN and infinities fail the bounds before int() could raise
    if not (_is_real(d) and 2 <= d <= sys.float_info.max and int(d) == d):
        raise ContractError(f"dimension must be an integer >= 2, got {d!r}")
    return (1.0 + d * f) / (d + 1.0)

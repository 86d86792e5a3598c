"""Worst-case programming fidelity of a fixed joint unitary.

For a two-qubit device V the chain is: canonical (Cartan) decomposition of V,
eigenphases theta of the interaction core, the t vector, and finally
F(V) = min_j |t_j|^2 / 4 together with an explicit worst target unitary and
its optimal program state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DecompositionError, DimensionError
from .matops import _is_real, _kron, _real_array, assert_unitary, hermitian_eig, kron
from .pauli import (
    PAULI,
    TVector,
    assert_bloch,
    bloch_to_matrix,
    hadamard_t,
    matrix_to_bloch,
    wrap_phase,
)

# Columns j of SIGMA_BASIS are the unit vectors (sigma_j x I)|I>> / sqrt(2);
# every canonical interaction is diagonal in this basis.
SIGMA_BASIS = np.column_stack([PAULI[j].reshape(-1) / np.sqrt(2.0) for j in range(4)])
SIGMA_BASIS.setflags(write=False)

# Phase-adjusted variant ("magic basis"): conjugation by MAGIC carries
# SO(4) onto SU(2) x SU(2), which is what the decomposition exploits.
MAGIC = SIGMA_BASIS @ np.diag([1.0, 1j, 1j, 1j])
MAGIC.setflags(write=False)
_MAGIC_DAG = MAGIC.conj().T

#: reconstruction residual above this aborts the decomposition
DECOMPOSE_RESIDUAL_TOL = 1e-9

# Deterministic pivot weights tried in order when splitting the spectrum of
# the symmetric product; the first one resolving all eigenvalue groups wins.
_PIVOT_WEIGHTS = (0.0, 0.5, 0.37358190278130243, 1.2074808325964797)
_PIVOT_OFFDIAG_TOL = 1e-11

# alpha_1 this close to pi/4 is on the quarter face, and may end up above it by as much
_QUARTER_FACE_TOL = 1e-12

#: max entrywise gap between the two routes of the covariance rule
COVARIANCE_TOL = 1e-12

# |alpha_k| up to float max / 4 keeps every theta_i = alpha_i - alpha_j - alpha_k finite
_ALPHA_MAX = float(np.finfo(float).max) / 4


@dataclass(frozen=True)
class CanonicalForm:
    """Interaction coefficients alpha and the four local unitaries around them.

    Reconstruction: (w1 x w2) . canonical_gate(alpha) . (w3 x w4).
    """

    alpha: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray

    def __post_init__(self):
        alpha = _real_array(self.alpha, "alpha")
        if alpha.size != 3:
            raise DimensionError(f"alpha must have 3 components, got shape {alpha.shape}")
        object.__setattr__(self, "alpha", alpha.reshape(3))

    def reconstruct(self) -> np.ndarray:
        core = canonical_gate(self.alpha)
        return kron(self.w1, self.w2) @ core @ kron(self.w3, self.w4)


@dataclass(frozen=True)
class MinimaxReport:
    """Worst-case fidelity of a device, with the witnesses that achieve it.

    ``optimal_sigma`` is the maximally mixed state I/2: at ``worst_unitary``
    every program attains ``fidelity`` (see :func:`worst_case_fidelity`), so
    no program state is singled out.
    """

    fidelity: float
    epsilon: float
    argmin_j: int
    worst_unitary: np.ndarray
    optimal_sigma: np.ndarray
    t: TVector


def theta_from_alpha(alpha) -> np.ndarray:
    """Eigenphases (..., 4) of canonical interactions (..., 3) on the sigma basis.

    theta_0 = alpha_1 + alpha_2 + alpha_3 and theta_i = 2 alpha_i - theta_0.
    """
    alpha = _real_array(alpha, "alpha")
    if alpha.shape[-1:] != (3,):
        raise DimensionError(f"alpha must have 3 components, got shape {alpha.shape}")
    # written as "not <=" so that a NaN fails the guard; the first bad row is quoted
    if not abs(alpha).max(initial=0.0) <= _ALPHA_MAX:
        values = alpha[~(abs(alpha) <= _ALPHA_MAX).all(-1)][0].tolist()
        if not all(map(math.isfinite, values)):
            raise ContractError(f"alpha must be finite, got {values}")
        raise ContractError(f"alpha must lie within +-{_ALPHA_MAX!r} (float max / 4), got {values}")
    t0 = alpha.sum(-1, keepdims=True)
    return wrap_phase(np.concatenate([t0, 2 * alpha - t0], axis=-1))


def alpha_from_theta(theta) -> np.ndarray:
    """Inverse of :func:`theta_from_alpha` on the zero-sum phase subspace."""
    theta = _real_array(theta, "phase vector").reshape(4)
    return 0.5 * np.array([theta[0] + theta[1], theta[0] + theta[2], theta[0] + theta[3]])


def canonical_gate(alpha) -> np.ndarray:
    """exp[i sum_k alpha_k sigma_k x sigma_k^T] by spectral synthesis, (..., 4, 4) for (..., 3).

    The sigma-basis vectors are exact eigenvectors, so no series expansion
    or truncation is involved.
    """
    phases = np.exp(1j * theta_from_alpha(alpha))
    return (SIGMA_BASIS * phases[..., None, :]) @ SIGMA_BASIS.conj().T


def _s(u, v) -> np.ndarray:
    """S(U, V) for arrays u (..., 2, 2) and v (..., 4, 4), leading axes broadcast; unvalidated."""
    return np.einsum("...ab,...ajbl->...jl", u, np.conj(v).reshape(v.shape[:-2] + (2, 2, 2, 2)))


def s_operator(u, v) -> np.ndarray:
    """S(U, V) = Tr_1[(U^T x I) V^*], the 2x2 core of the fidelity.

    For a canonical V this reduces to (1/2) sum_j e^{-i theta_j} sigma_j U sigma_j.
    """
    u = assert_unitary(u, 2, name="target unitary")
    return _s(u, assert_unitary(v, 4, name="joint unitary"))


def fidelity_uv(u, v) -> tuple[float, np.ndarray]:
    """Best-program fidelity F(U, V) = ||S||^2 / 4 and a program achieving it.

    The optimal program state is the transpose of the projector onto the top
    eigenvector of S^dag S.  When the top eigenvalue is degenerate any state
    in the eigenspace works, and the returned one is whichever vector eigh
    gives first: rounding decides which, so it is not a canonical choice.
    """
    s = s_operator(u, v)
    evals, vecs = hermitian_eig(s.conj().T @ s)
    f = float(min(max(evals[0] / 4.0, 0.0), 1.0))
    top = vecs[:, 0]
    sigma = np.outer(top, top.conj()).T.copy()
    return f, sigma


def closed_form_parts(n, t: TVector) -> tuple[float, float]:
    """(u.t, |v|^2) entering the closed-form norm, with u_j = n_j^2.

    u.t is the identity coefficient of S^dag S and |v|^2 the squared length
    of its Pauli part, equal to 2 u^T T u with T the phase-pair matrix.
    """
    u4 = assert_bloch(n) ** 2
    v0 = float(u4 @ (t.moduli**2))
    v_sq = float(2.0 * u4 @ t.pair_matrix() @ u4)
    return v0, v_sq


def closed_form_norm(n, t: TVector) -> float:
    """||S(U, V)||^2 for U with Bloch vector n and a canonical V with t vector t."""
    v0, v_sq = closed_form_parts(n, t)
    return v0 + np.sqrt(max(v_sq, 0.0))


def optimal_interaction(sx_sign: int, sz_sign: int) -> np.ndarray:
    """exp[i (pi/4) (sx X x X + sz Z x Z)]; every sign pair reaches F(V) = 1/4."""
    if any(not _is_real(s) or s not in (1, -1) for s in (sx_sign, sz_sign)):
        raise ContractError(f"signs must be +1 or -1, got ({sx_sign}, {sz_sign})")
    return canonical_gate([sx_sign * np.pi / 4, 0.0, sz_sign * np.pi / 4])


def _covariance_gap(u, w1, w2, w3, w4, v) -> tuple[np.ndarray, float]:
    """S(U, (W1 x W2) V (W3 x W4)) and its max entrywise gap to
    W2^* S(W1^dag U W3^dag, V) W4^*, which local-unitary covariance makes
    equal; the rule holds when the gap is at most COVARIANCE_TOL.  Unvalidated;
    on stacks of unitaries the gap is the largest over the stack."""
    direct = _s(u, _kron(w1, w2) @ v @ _kron(w3, w4))
    w1_dag, w3_dag = w1.conj().swapaxes(-1, -2), w3.conj().swapaxes(-1, -2)
    routed = w2.conj() @ _s(w1_dag @ u @ w3_dag, v) @ w4.conj()
    return direct, float(np.max(np.abs(direct - routed)))


def covariance_transform(u, w1, w2, w3, w4, v) -> np.ndarray:
    """S of the locally dressed device, checked against the covariance rule.

    Computes S(U, (W1 x W2) V (W3 x W4)) directly and as
    W2^* S(W1^dag U W3^dag, V) W4^*; the two routes are compared before the
    matrix is returned.
    """
    ws = [assert_unitary(w, 2, name=f"w{i}") for i, w in enumerate((w1, w2, w3, w4), 1)]
    u = assert_unitary(u, 2, name="target unitary")
    v = assert_unitary(v, 4, name="joint unitary")
    direct, gap = _covariance_gap(u, *ws, v)
    if gap > COVARIANCE_TOL:
        raise DecompositionError("covariance routes disagree", gap)
    return direct


def controlled_unitary_worst(v1, v2) -> tuple[np.ndarray, float]:
    """A target unitary no controlled-unitary device (v1, v2) can imitate.

    Unitaries embed into R^4 through the Bloch form, where the trace overlap
    becomes the Euclidean inner product; the last right singular vector of
    the two Bloch vectors is a unit direction orthogonal to both (equal or
    opposite vectors included), and the returned fidelity
    max_k |Tr[v_k^dag u]|^2 / 4 is zero to rounding.
    """
    m1 = matrix_to_bloch(v1)
    m2 = matrix_to_bloch(v2)
    u = bloch_to_matrix(np.linalg.svd(np.array([m1, m2]))[2][-1])
    f = max(abs(np.trace(np.conj(v).T @ u)) for v in (v1, v2)) ** 2 / 4.0
    return u, float(f)


# ---------------------------------------------------------------------------
# canonical decomposition
# ---------------------------------------------------------------------------


def _codiagonalize_symmetric_unitary(g) -> np.ndarray:
    """Real orthogonal P with P^T g P diagonal, g complex symmetric unitary.

    Re(g) and Im(g) commute, so a common real eigenbasis exists; it is found
    by diagonalizing Re(g) + mu Im(g) for a fixed sequence of pivot weights
    mu, keeping the first basis whose off-diagonal leakage is negligible.
    """
    best_p, best_off = None, np.inf
    for mu in _PIVOT_WEIGHTS:
        _, p = np.linalg.eigh(g.real + mu * g.imag)
        full = p.T @ g @ p
        off = float(np.max(np.abs(full - np.diag(np.diag(full)))))
        if off < best_off:
            best_p, best_off = p, off
        if off <= _PIVOT_OFFDIAG_TOL:
            break
    if best_off > DECOMPOSE_RESIDUAL_TOL:
        raise DecompositionError("could not split the interaction spectrum", best_off)
    return best_p


def _factor_local_pair(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a x-product a = w1 x w2 of single-qubit unitaries, pivoting on
    the dominant 2x2 block."""
    blocks = a.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # blocks[i, j] = w1[i, j] * w2
    norms = np.sqrt(np.sum(np.abs(blocks) ** 2, axis=(2, 3)))
    bi, bj = np.unravel_index(np.argmax(norms), (2, 2))
    w2 = blocks[bi, bj] * (np.sqrt(2.0) / norms[bi, bj])
    w1 = np.einsum("ijab,ab->ij", blocks, w2.conj()) / 2.0
    rebuilt = (w1[:, None, :, None] * w2[None, :, None, :]).reshape(4, 4)
    resid = float(np.max(np.abs(rebuilt - a)))
    if resid > DECOMPOSE_RESIDUAL_TOL:
        raise DecompositionError("local factor is not a tensor product", resid)
    return w1, w2


class _ChamberReducer:
    """Moves alpha into pi/4 >= alpha_1 >= alpha_2 >= |alpha_3| (alpha_3 >= 0 at alpha_1 = pi/4)
    while compensating every move in the surrounding local unitaries."""

    def __init__(self, alpha, w1, w2, w3, w4):
        self.alpha = np.asarray(alpha, dtype=float).copy()
        self.w1, self.w2, self.w3, self.w4 = w1, w2, w3, w4

    def _shift(self, k, step):
        # alpha_k += step*pi/2 costs a factor (i sigma_k x sigma_k^T)^step
        self.alpha[k] += step * np.pi / 2
        self.w1 = (1j) ** (-step) * self.w1 @ PAULI[k + 1]
        self.w2 = self.w2 @ PAULI[k + 1].T

    def _flip(self, a, b):
        # negate alpha_a, alpha_b by conjugating with sigma_l x I
        l = ({1, 2, 3} - {a + 1, b + 1}).pop()
        self.alpha[a] *= -1
        self.alpha[b] *= -1
        self.w1 = self.w1 @ PAULI[l]
        self.w3 = PAULI[l] @ self.w3

    def _swap(self, a, b):
        # exchange axes a, b by conjugating with t x t^*, t = (s_a+s_b)/sqrt2
        t = (PAULI[a + 1] + PAULI[b + 1]) / np.sqrt(2.0)
        self.alpha[[a, b]] = self.alpha[[b, a]]
        self.w1 = self.w1 @ t.conj().T
        self.w2 = self.w2 @ t.T
        self.w3 = t @ self.w3
        self.w4 = t.conj() @ self.w4

    def run(self) -> "_ChamberReducer":
        for k in range(3):
            while self.alpha[k] <= -np.pi / 4:
                self._shift(k, +1)
            while self.alpha[k] > np.pi / 4:
                self._shift(k, -1)
        mags = np.abs(self.alpha)
        if mags[0] < mags[1]:
            self._swap(0, 1)
        if abs(self.alpha[1]) < abs(self.alpha[2]):
            self._swap(1, 2)
        if abs(self.alpha[0]) < abs(self.alpha[1]):
            self._swap(0, 1)
        if self.alpha[0] < 0:
            self._flip(0, 2)
        if self.alpha[1] < 0:
            self._flip(1, 2)
        # (pi/4, a2, a3) and (pi/4, a2, -a3) are one class: take a3 >= 0
        if np.pi / 4 - self.alpha[0] <= _QUARTER_FACE_TOL and self.alpha[2] < 0:
            self._shift(0, -1)
            self._flip(0, 2)
        return self


def kraus_cirac_decompose(v) -> CanonicalForm:
    """Canonical decomposition V = (W1 x W2) exp[i sum alpha_k s_k x s_k^T] (W3 x W4).

    Works in the magic basis: M = E^dag V E factors as O_L D O_R with real
    orthogonal O_L, O_R (recovered from the spectrum of M^T M) and diagonal
    D carrying the interaction eigenphases.  Orthogonal factors map back to
    local unitary pairs, the phases map to alpha, and symmetry moves reduce
    alpha to the chamber pi/4 >= alpha_1 >= alpha_2 >= |alpha_3|.  The global
    phase is absorbed into W1, so reconstruction is exact rather than merely
    up to phase.
    """
    v = assert_unitary(v, 4, name="joint unitary")

    m = _MAGIC_DAG @ v @ MAGIC
    g = m.T @ m
    g = (g + g.T) / 2.0

    p = _codiagonalize_symmetric_unitary(g)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, -1] *= -1
    lam = np.einsum("ji,jk,ki->i", p, g, p)
    lam = lam / np.abs(lam)
    d = np.exp(0.5j * np.angle(lam))

    o_r = p.T
    o_l = m @ p @ np.diag(1.0 / d)
    if np.linalg.det(o_l).real < 0:
        d = d.copy()
        d[0] = -d[0]
        o_l = o_l.copy()
        o_l[:, 0] = -o_l[:, 0]
    imag_leak = float(np.max(np.abs(o_l.imag)))
    if imag_leak > DECOMPOSE_RESIDUAL_TOL:
        raise DecompositionError("orthogonal factor has complex residue", imag_leak)
    o_l = o_l.real

    w1, w2 = _factor_local_pair(MAGIC @ o_l.astype(complex) @ _MAGIC_DAG)
    w3, w4 = _factor_local_pair(MAGIC @ o_r.astype(complex) @ _MAGIC_DAG)

    theta_raw = np.angle(d)
    phase = theta_raw.sum() / 4.0
    alpha = alpha_from_theta(theta_raw - phase)
    w1 = w1 * np.exp(1j * phase)

    red = _ChamberReducer(alpha, w1, w2, w3, w4).run()
    form = CanonicalForm(red.alpha, red.w1, red.w2, red.w3, red.w4)
    residual = float(np.max(np.abs(form.reconstruct() - v)))
    if residual > DECOMPOSE_RESIDUAL_TOL:
        raise DecompositionError("canonical reconstruction failed", residual)
    return form


def worst_case_fidelity(v) -> MinimaxReport:
    """F(V) = min_j |t_j|^2 / 4 with explicit worst unitary and best program.

    Local unitaries around the canonical core do not change the value; they
    only dress the worst target, which is W1 sigma_{j*} W3 with j* the
    (lowest-index) minimizer of |t_j|.  There S is a multiple of a unitary,
    so every program state is optimal, and I/2 is returned; no eigenvector
    of S^dag S is computed.
    """
    form = kraus_cirac_decompose(v)
    t = hadamard_t(theta_from_alpha(form.alpha))
    # lowest index wins among moduli tied with the minimum (1e-12 window)
    j_star = int(np.argmax(t.moduli <= t.moduli.min() + 1e-12))
    fidelity = float(t.moduli.min() ** 2 / 4.0)
    worst = form.w1 @ PAULI[j_star] @ form.w3
    # By local covariance S(worst, V) = c W2^* sigma_{j*} W4^* with
    # |c| = |t_{j*}|, a multiple of a unitary, so S^dag S = 4 F I and every
    # program attains F: an eigenvector of S^dag S would be rounding noise.
    sigma = np.eye(2, dtype=complex) / 2
    return MinimaxReport(
        fidelity=fidelity,
        epsilon=float(np.sqrt(max(1.0 - fidelity, 0.0))),
        argmin_j=j_star,
        worst_unitary=worst,
        optimal_sigma=sigma,
        t=t,
    )

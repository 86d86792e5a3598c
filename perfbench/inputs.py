"""Seeded workload inputs, built with numpy alone.

Every device and target comes from ``numpy.random.default_rng(seed)`` and
plain linear algebra, never from progchan, so a change to the program cannot
change the inputs it is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUARTER_PI = np.pi / 4

PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)

# Device kinds and their shares of each stream.  The closed-form mix covers
# the chamber interior (Haar), the optimum F = 1/4, the alpha_1 = pi/4
# boundary, tied or zero alpha (degenerate interaction spectra, which take
# the pivot fallback and the argmin_j tie rule) and controlled devices (F = 0).
CLOSED_FORM_MIX = {
    "haar": 0.4,
    "optimal": 0.15,
    "boundary": 0.15,
    "degenerate": 0.15,
    "controlled": 0.15,
}
ORACLE_MIX = {"optimal-core": 1 / 3, "chamber": 1 / 3, "dressed": 1 / 3}


@dataclass(frozen=True)
class Device:
    kind: str
    v: np.ndarray
    u: np.ndarray  # a target unitary for fidelity_uv
    seed: int  # per-op seed for the oracle's sweep offset and sigma samples


def haar(rng, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed by R."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def canonical(alpha) -> np.ndarray:
    """exp[i sum_k alpha_k sigma_k x sigma_k^T]; the three terms commute and square to 1."""
    out = np.eye(4, dtype=complex)
    for k, a in enumerate(alpha, start=1):
        term = np.kron(PAULI[k], PAULI[k].T)
        out = out @ (np.cos(a) * np.eye(4) + 1j * np.sin(a) * term)
    return out


def dress(rng, core) -> np.ndarray:
    """(w1 x w2) core (w3 x w4) with four Haar-random single-qubit locals."""
    left = np.kron(haar(rng, 2), haar(rng, 2))
    right = np.kron(haar(rng, 2), haar(rng, 2))
    return left @ core @ right


def chamber_alpha(rng) -> np.ndarray:
    """A draw from pi/4 >= a1 >= a2 >= |a3|."""
    a1 = rng.uniform(0.0, QUARTER_PI)
    a2 = rng.uniform(0.0, a1)
    return np.array([a1, a2, rng.uniform(-a2, a2)])


def optimal_alpha(rng) -> np.ndarray:
    """(+-pi/4, 0, +-pi/4): the cores with F = 1/4."""
    sx, sz = rng.choice([-1.0, 1.0], size=2)
    return np.array([sx * QUARTER_PI, 0.0, sz * QUARTER_PI])


def degenerate_alpha(rng) -> np.ndarray:
    """Tied or vanishing coefficients: repeated interaction eigenphases."""
    a = rng.uniform(0.05, QUARTER_PI)
    b = rng.uniform(0.0, a)
    patterns = (
        (a, a, a),
        (a, a, -a),
        (a, a, 0.0),
        (a, 0.0, 0.0),
        (a, a, b),
        (a, b, b),
        (QUARTER_PI, QUARTER_PI, QUARTER_PI),
        (0.0, 0.0, 0.0),
    )
    return np.array(patterns[rng.integers(len(patterns))])


def controlled(rng) -> np.ndarray:
    """sum_k V_k x |psi_k><psi_k|: the program qubit, in a random basis, picks V_1 or V_2."""
    basis = haar(rng, 2)
    p1 = np.outer(basis[:, 0], basis[:, 0].conj())
    p2 = np.outer(basis[:, 1], basis[:, 1].conj())
    return np.kron(haar(rng, 2), p1) + np.kron(haar(rng, 2), p2)


def _device(rng, kind: str) -> np.ndarray:
    if kind == "haar":
        return haar(rng, 4)
    if kind == "optimal":
        return dress(rng, canonical(optimal_alpha(rng)))
    if kind == "boundary":
        a2 = rng.uniform(0.0, QUARTER_PI)
        return dress(rng, canonical([QUARTER_PI, a2, rng.uniform(-a2, a2)]))
    if kind == "degenerate":
        return dress(rng, canonical(degenerate_alpha(rng)))
    if kind == "controlled":
        return dress(rng, controlled(rng))
    if kind == "optimal-core":
        return canonical(optimal_alpha(rng))
    if kind == "chamber":
        return canonical(chamber_alpha(rng))
    if kind == "dressed":
        return dress(rng, canonical(chamber_alpha(rng)))
    raise ValueError(f"unknown device kind {kind!r}")


def device_stream(seed: int, mix: dict):
    """Endless seeded stream of devices drawn from ``mix`` (kind -> share)."""
    rng = np.random.default_rng(seed)
    kinds = list(mix)
    shares = np.array([mix[k] for k in kinds])
    shares = shares / shares.sum()
    while True:
        kind = kinds[rng.choice(len(kinds), p=shares)]
        v = _device(rng, kind)
        yield Device(kind=kind, v=v, u=haar(rng, 2), seed=int(rng.integers(2**31)))

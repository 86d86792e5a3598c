"""Shared test utilities: independent oracles and random generators."""

import json
from pathlib import Path

import numpy as np

from progchan import (
    PAULI,
    canonical_gate,
    haar_unitary,
    kron,
    matrix_to_obj,
    oracle,
    partial_trace,
    program_overlap,
    random_density,
    s_operator,
    sample_su2,
    theta_from_alpha,
)
from progchan.kernels import device_parts, fidelity_from_bloch_batch

Q = np.pi / 4

#: degenerate and chamber-boundary interactions (corners, faces and edges)
ADVERSARIAL_ALPHAS = {
    "corner-identity": (0.0, 0.0, 0.0),
    "corner-cnot": (Q, 0.0, 0.0),
    "corner-iswap": (Q, Q, 0.0),
    "corner-swap": (Q, Q, Q),
    "corner-swap-mirror": (Q, Q, -Q),
    "a1-eq-a2": (0.5, 0.5, 0.2),
    "a2-eq-a3": (0.6, 0.3, 0.3),
    "a2-eq-minus-a3": (0.6, 0.3, -0.3),
    "a3-zero": (0.5, 0.3, 0.0),
    "a1-quarter": (Q, 0.3, 0.2),
}
#: sizes of the uniform perturbations applied to ADVERSARIAL_ALPHAS
ADVERSARIAL_SCALES = (0.0, 1e-14, 1e-10, 1e-7, 1e-5)


def write_matrix(m, path):
    """Write m as a JSON matrix file, the format the CLI reads."""
    Path(path).write_text(json.dumps(matrix_to_obj(m), indent=2, sort_keys=True) + "\n")


def is_unitary(m, tol):
    """Every entry of m^dag m - I within tol."""
    return np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) <= tol


def einsum_fidelity_batch(parts, ns):
    """The scan kernel's earlier complex-einsum formula, kept as its reference.

    S(n) = sum_mu n_mu K_mu by einsum, then the top eigenvalue of S^dag S
    over 4 from the 2x2 closed form.
    """
    s = np.einsum("nm,mjl->njl", np.asarray(ns, dtype=float), np.asarray(parts, dtype=complex))
    h00 = np.abs(s[:, 0, 0]) ** 2 + np.abs(s[:, 1, 0]) ** 2
    h11 = np.abs(s[:, 0, 1]) ** 2 + np.abs(s[:, 1, 1]) ** 2
    h01 = np.conj(s[:, 0, 0]) * s[:, 0, 1] + np.conj(s[:, 1, 0]) * s[:, 1, 1]
    mean = 0.5 * (h00 + h11)
    diff = 0.5 * (h00 - h11)
    return 0.25 * (mean + np.sqrt(diff * diff + np.abs(h01) ** 2))


def dressed(alpha, rng):
    """canonical_gate(alpha) between seeded Haar locals, with a random global phase."""
    before = kron(haar_unitary(2, rng), haar_unitary(2, rng))
    after = kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return np.exp(2j * np.pi * rng.random()) * after @ canonical_gate(alpha) @ before


def adversarial_devices(rng, draws):
    """Dressed ADVERSARIAL_ALPHAS devices, ``draws`` per alpha and perturbation scale."""
    return [
        dressed(np.array(alpha) + scale * rng.uniform(-1, 1, 3), rng)
        for alpha in ADVERSARIAL_ALPHAS.values()
        for scale in ADVERSARIAL_SCALES
        for _ in range(draws)
    ]


def random_pure_density(rng):
    """|psi><psi| for a Haar-random qubit state psi."""
    psi = haar_unitary(2, rng)[:, 0]
    return np.outer(psi, psi.conj())


def random_programs(rng, n):
    """n program states, alternately pure and mixed, as an (n, 2, 2) stack."""
    draw = (random_pure_density, random_density)
    return np.array([draw[i % 2](rng) for i in range(n)])


def matrix_unit_choi(v, sigma):
    """The programmed channel's Choi matrix, one matrix unit |i><j| at a time.

    Block (i, j) is Tr_2[V (|i><j| x sigma) V^dag], each from a kron, two
    matmuls and a partial trace: the construction the library used before
    its two-matmul form, kept as the reference.
    """
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            joint = v @ kron(unit, sigma) @ v.conj().T
            choi[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = partial_trace(joint, 2)
    return choi


def brute_partial_trace(m, subsystem):
    """Index-sum partial trace, independent of the library implementation."""
    m = np.asarray(m, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if subsystem == 2:
                    out[i, j] += m[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += m[2 * k + i, 2 * k + j]
    return out


def sv_norm_sq(u, v) -> float:
    """||S(U, V)||^2 by singular value, the cross-check for the closed form."""
    return np.linalg.norm(s_operator(u, v), 2) ** 2


def random_chamber_alpha(rng, interior=False):
    """Uniform draw from pi/4 >= a1 >= a2 >= |a3|."""
    pad = 0.02 if interior else 0.0
    a1 = rng.uniform(pad, np.pi / 4 - pad)
    a2 = rng.uniform(pad, a1)
    a3 = rng.uniform(-a2 + pad, a2 - pad) if interior else rng.uniform(-a2, a2)
    return np.array([a1, a2, a3])


def random_bloch(rng):
    n = rng.normal(size=4)
    return n / np.linalg.norm(n)


def controlled_device(v1, v2, basis=None):
    """Assemble sum_k V_k (x) |psi_k><psi_k| with the ancilla as control."""
    if basis is None:
        basis = np.eye(2, dtype=complex)
    p1 = np.outer(basis[:, 0], basis[:, 0].conj())
    p2 = np.outer(basis[:, 1], basis[:, 1].conj())
    return kron(v1, p1) + kron(v2, p2)


def spectral_kraus_family(alpha, sigma):
    """The eigenbasis Kraus construction for a canonical device.

    C_nm = sum_k e^{i theta_k} Psi_k |u_n*><u_m*| Psi_k^dag sqrt(lam_m) with
    Psi_k = sigma_k / sqrt(2) and (lam, u) the spectrum of the program state.
    """
    theta = theta_from_alpha(alpha)
    lam, vecs = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    ops = []
    for n in range(2):
        for m in range(2):
            un = np.conj(vecs[:, n])
            um = np.conj(vecs[:, m])
            acc = np.zeros((2, 2), dtype=complex)
            for k in range(4):
                psi = PAULI[k] / np.sqrt(2.0)
                acc += np.exp(1j * theta[k]) * psi @ np.outer(un, um.conj()) @ psi.conj().T
            ops.append(acc * np.sqrt(max(lam[m], 0.0)))
    return ops


def sigma_dominance_loop(u, v, n, seed=0):
    """Per-sample sigma check: draw one program at a time and keep the running max.

    Each program is partial-traced from a Haar-random two-qubit pure state,
    drawn as four real then four imaginary Gaussians.
    """
    rng = np.random.default_rng(seed)
    top = 0.0
    for _ in range(n):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        sigma = np.einsum("ijkj->ik", np.outer(psi, psi.conj()).reshape(2, 2, 2, 2))
        top = max(top, program_overlap(u, v, sigma))
    return top


def serial_polish(objective, n0, steps, scale):
    """Single-start Nelder-Mead in a tangent chart at n0, one objective call per point.

    ``objective`` maps one unit Bloch vector to a float.  Vertices are ranked
    by value, ties in vertex order.  Returns (best value, best Bloch point,
    evaluations).
    """
    order = np.argsort(np.abs(n0))
    frame = []
    for k in order[:3]:
        e = np.zeros(4)
        e[k] = 1.0
        e -= (e @ n0) * n0
        for t in frame:
            e -= (e @ t) * t
        frame.append(e / np.linalg.norm(e))
    frame = np.array(frame)
    evaluations = 0

    def point(x):
        p = n0 + x @ frame
        return p / np.linalg.norm(p)

    def chart_objective(x):
        nonlocal evaluations
        evaluations += 1
        return objective(point(x))

    simplex = [np.zeros(3)] + [scale * e for e in np.eye(3)]
    values = [chart_objective(x) for x in simplex]
    for _ in range(steps):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_ref = chart_objective(reflected)
        if f_ref < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_exp = chart_objective(expanded)
            if f_exp < f_ref:
                simplex[-1], values[-1] = expanded, f_exp
            else:
                simplex[-1], values[-1] = reflected, f_ref
        elif f_ref < values[-2]:
            simplex[-1], values[-1] = reflected, f_ref
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_con = chart_objective(contracted)
            if f_con < values[-1]:
                simplex[-1], values[-1] = contracted, f_con
            else:
                for i in range(1, 4):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = chart_objective(simplex[i])
    best = int(np.argmin(values))
    return float(values[best]), point(simplex[best]), evaluations


def gram_lower_bound(parts):
    """lambda_min(Q)/8 with Q_mu,nu = Re Tr(K_mu^dag K_nu), Q by einsum.

    The reference for ``oracle._lower_bound``, which builds Q as one matmul.
    """
    q = np.einsum("mab,nab->mn", np.conj(parts), parts).real
    return float(np.linalg.eigvalsh(q)[0]) / 8


def materialized_scan(v, config):
    """minimax_scan on the whole sample at once, the streamed scan's reference.

    Builds every point with ``sample_su2``, sweeps them in one kernel call,
    then polishes from the lowest rows of that array, unless the sweep
    minimum is within ``oracle.CERTIFY_TOL`` of the Gram lower bound.
    Returns (f_min, worst Bloch point, evaluations).
    """
    parts = device_parts(v)
    points = sample_su2(config)
    values = fidelity_from_bloch_batch(parts, points)
    evaluations = len(points)
    best = int(np.argmin(values))
    f_min = float(values[best])
    worst = points[best].copy()
    certified = f_min <= gram_lower_bound(parts) + oracle.CERTIFY_TOL
    if config.refine_steps > 0 and not certified:
        scale = max((2 * np.pi**2 / config.resolution) ** (1.0 / 3.0), 1e-3)
        candidates = [worst]
        for i in oracle._lowest(values, 16):
            p = points[i]
            if all(min(np.linalg.norm(p - c), np.linalg.norm(p + c)) > 0.1 for c in candidates):
                candidates.append(p.copy())
            if len(candidates) == 4:
                break
        f_loc, n_loc, used = oracle._polish(parts, np.array(candidates), config.refine_steps, scale)
        evaluations += used
        for f, n in zip(f_loc, n_loc):
            if f < f_min:
                f_min, worst = float(f), n
    return f_min, worst, evaluations

"""Shared test utilities: independent oracles and random generators."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from progchan import (
    HADAMARD,
    PAULI,
    bloch_to_matrix,
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
from progchan.pauli import wrap_phase

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


def bloch_parts(v):
    """K_mu = S(B_mu, V) with S(n) = sum_mu n_mu K_mu, through ``s_operator``, not kernels.py.

    B_mu = bloch_to_matrix(e_mu) is I, iX, iY or iZ, and S is linear in U.
    """
    return np.array([s_operator(bloch_to_matrix(e), v) for e in np.eye(4)])


def parts_and_forms(v):
    """(K_mu, Q) for a joint unitary v: K_mu by einsum over v^*, Q by one matmul.

    With ``det_form`` this is the bit-for-bit reference for
    ``kernels._scan_forms``, which builds both from one validated read of v.
    """
    basis = np.concatenate([PAULI[:1], 1j * PAULI[1:]])
    vc = np.conj(np.asarray(v, dtype=complex)).reshape(2, 2, 2, 2)
    parts = np.einsum("mab,ajbl->mjl", basis, vc)
    twisted = (parts @ PAULI[:, None]).reshape(4, 4, 4).transpose(0, 2, 1)
    return parts, np.ascontiguousarray((parts.reshape(4, 4).conj() @ twisted).real)


def det_form(parts):
    """D with det S(n) = n^T D n, by products of the entries of the K_mu of ``parts_and_forms``.

    With K_mu = [[a, b], [c, d]], D_mu,nu = (a_mu d_nu + d_mu a_nu - b_mu
    c_nu - c_mu b_nu) / 2.
    """
    a, b, c, d = parts.reshape(4, 4).T
    det = np.outer(a, d) - np.outer(b, c)
    return 0.5 * (det + det.T)


def perfbench_inputs():
    """The benchmark's seeded input module, ``perfbench/inputs.py`` (numpy only)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def einsum_fidelity_batch(parts, ns):
    """The scan kernel's earlier complex-einsum formula, kept as its reference.

    ``parts`` are the K_mu (``bloch_parts``).  S(n) = sum_mu n_mu K_mu by
    einsum, then the top eigenvalue of S^dag S over 4 from the 2x2 closed
    form.
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


def _t_vector_loop(theta):
    """One t vector by the per-vector expressions, with its Hadamard-contraction route."""
    z = np.exp(-1j * np.asarray(theta, dtype=float))
    t0 = 0.5 * z.sum()
    return np.array([t0, z[0] + z[1] - t0, z[0] + z[2] - t0, z[0] + z[3] - t0]), HADAMARD @ z


def hadamard_rows_loop(seed):
    """``cli._verify_hadamard_rows`` one sample at a time, kept as its reference.

    Draws 1000 phase vectors of 4 in turn and keeps running maxima from 0.
    """
    ortho = float(np.max(np.abs(HADAMARD @ HADAMARD.T - np.eye(4))))
    rng = np.random.default_rng(seed)
    worst_sum = worst_min = worst_route = 0.0
    for _ in range(1000):
        t, contracted = _t_vector_loop(rng.uniform(-np.pi, np.pi, 4))
        moduli = np.abs(t)
        worst_sum = max(worst_sum, abs(float(np.sum(moduli**2)) - 4.0))
        worst_min = max(worst_min, float(moduli.min()) - 1.0)
        worst_route = max(worst_route, float(np.max(np.abs(t - contracted))))
    rows = [("orthogonality", ortho, 1e-15), ("sum-rule", worst_sum, 1e-10)]
    rows += [("min-bound", worst_min, 1e-12), ("two-route", worst_route, 1e-12)]
    return [(f"hadamard/{name}", "pass" if r <= tol else "fail", r, "") for name, r, tol in rows]


def covariance_rows_loop(seed):
    """``cli._verify_covariance_rows`` one sample at a time, kept as its reference.

    Draws u, v and w1..w4 in turn, 50 times, and keeps the running maximum
    gap of the two covariance routes from 0.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        u = haar_unitary(2, rng)
        v = haar_unitary(4, rng)
        w1, w2, w3, w4 = (haar_unitary(2, rng) for _ in range(4))
        direct = s_operator(u, kron(w1, w2) @ v @ kron(w3, w4))
        routed = np.conj(w2) @ s_operator(np.conj(w1).T @ u @ np.conj(w3).T, v) @ np.conj(w4)
        worst = max(worst, float(np.max(np.abs(direct - routed))))
    return [("covariance/two-route", "pass" if worst <= 1e-12 else "fail", worst, "")]


def scan_grid_loop(n):
    """The ``scan --alpha-grid n`` CSV text, one chamber point at a time, kept as its reference."""
    lines = ["a1,a2,a3,t0_sq,t1_sq,t2_sq,t3_sq,fidelity"]
    for a1 in np.linspace(0.0, np.pi / 4, n):
        for a2 in np.linspace(0.0, np.pi / 4, n):
            if a2 > a1 + 1e-15:
                continue
            for a3 in np.linspace(-np.pi / 4, np.pi / 4, 2 * n - 1):
                if abs(a3) > a2 + 1e-15:
                    continue
                t0 = a1 + a2 + a3
                theta = wrap_phase(np.array([t0, 2 * a1 - t0, 2 * a2 - t0, 2 * a3 - t0]))
                w = np.abs(_t_vector_loop(theta)[0]) ** 2
                lines.append(",".join(repr(float(x)) for x in (a1, a2, a3, *w, w.min() / 4.0)))
    return "\r\n".join(lines) + "\r\n"


def projector_densities(rng, n):
    """``oracle._random_densities`` through the 4x4 projector, kept as its reference.

    Draws as the oracle does, then partial-traces |psi><psi| by einsum.
    """
    gauss = rng.normal(size=(n, 2, 4))
    psi = gauss[:, 0] + 1j * gauss[:, 1]
    re, im = psi.real[:, None, :], psi.imag[:, None, :]
    psi /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    joint = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(n, 2, 2, 2, 2)
    return np.einsum("nijkj->nik", joint)


def sweep_values(forms, offset, n):
    """The oracle sweep's value at each of the first n sample rows, as a ``--csv`` trace gets them.

    Each block is copied as it comes: the sweep reuses its buffer for the next one.
    """
    return np.concatenate([values.copy() for _, values in oracle._sweep(forms, offset, n)])


def gram_forms(parts):
    """(Q, D) with ||S(n)||_F^2 = n^T Q n and det S(n) = n^T D n, for the K_mu of ``bloch_parts``.

    Second routes to the Gram form Q_0 and to D of ``kernels._scan_forms(v)``
    (one matmul; products of entries): Q by einsum, and D by polarizing the
    determinant, D_mu,nu = (det(K_mu + K_nu) - det K_mu - det K_nu) / 2,
    with np.linalg.det.
    """
    parts = np.asarray(parts, dtype=complex)
    q = np.einsum("mab,nab->mn", np.conj(parts), parts).real
    dets = np.linalg.det(parts)
    d = 0.5 * (np.linalg.det(parts[:, None] + parts[None, :]) - dets[:, None] - dets[None, :])
    return q, d


def witness_candidates(parts):
    """The four Gram witness candidates, one angle and one eigensolve at a time.

    For k = 1..4, E_k holds the k lowest eigenvectors of Q, and the candidate
    is E_k c for the top eigenvector c of Re(e^{-i phi} E_k^T D E_k), at the
    first of ``oracle.WITNESS_ANGLES`` angles on [0, pi) with the largest top
    eigenvalue; at k = 1 that is the lowest eigenvector, up to sign.  Q and
    D come from ``gram_forms`` of the K_mu (``bloch_parts``).
    """
    q, d = gram_forms(parts)
    vecs = np.linalg.eigh(q)[1]
    angles = [np.pi * i / oracle.WITNESS_ANGLES for i in range(oracle.WITNESS_ANGLES)]
    candidates = []
    for k in range(1, 5):
        span = vecs[:, :k]
        m = span.T @ d @ span
        top, best = -np.inf, None
        for phi in angles:
            w, c = np.linalg.eigh((np.exp(-1j * phi) * m).real)
            if w[-1] > top:
                top, best = w[-1], c[:, -1]
        point = span @ best
        candidates.append(point / np.sqrt(point @ point))
    return np.array(candidates)


def materialized_scan(v, config):
    """minimax_scan on the whole sample at once, with the witness built independently.

    Builds every point with ``sample_su2`` and sweeps them in one kernel
    call; then evaluates ``witness_candidates`` and keeps the lower minimum,
    ties to the sweep row.  Returns (f_min, worst Bloch point, evaluations,
    sweep minimum).
    """
    forms = device_parts(v)
    points = sample_su2(config)
    values = fidelity_from_bloch_batch(forms, points)
    best = int(np.argmin(values))
    f_min, worst = float(values[best]), points[best]
    candidates = witness_candidates(bloch_parts(v))
    witness = fidelity_from_bloch_batch(forms, candidates)
    j = int(np.argmin(witness))
    if witness[j] < f_min:
        f_min, worst = float(witness[j]), candidates[j]
    return f_min, worst, len(points) + len(candidates), float(values[best])

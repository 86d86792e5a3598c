"""Brute-force minimax over SU(2) targets, independent of the closed form.

The inner maximization over program states is analytic (top eigenvalue of
S^dag S), so the only approximation is the discretization of the target
group, handled by a seeded low-discrepancy sweep of S^3 plus simplex polish.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .channels import program_overlap
from .errors import ContractError
# fidelity_from_bloch is unused here but stays bound: perfbench/tracing.py
# rebinds the kernel entry points in this module by name.
from .kernels import device_parts, fidelity_from_bloch, fidelity_from_bloch_batch  # noqa: F401
from .minimax import worst_case_fidelity

# Signed axis points +-e_j; the closed-form minimum always sits on one of
# them for a canonical device, so they are forced into every sample.
AXIS_POINTS = np.concatenate([np.eye(4), -np.eye(4)])
AXIS_POINTS.setflags(write=False)

# Additive-recurrence constants: inverse powers of the d=3 generalization of
# the golden ratio (root of x^4 = x + 1).
_PHI3 = 1.2207440846057596
_ALPHAS = np.array([1.0 / _PHI3, 1.0 / _PHI3**2, 1.0 / _PHI3**3])


def _check_count(name: str, value, lowest: int = 0) -> None:
    """ContractError unless value is an integer count of at least ``lowest``."""
    # numpy integers are Integral; bool is too, but is no count
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < lowest:
        raise ContractError(f"{name} must be >= {lowest}, got {value}")


@dataclass(frozen=True)
class ScanConfig:
    resolution: int = 10_000
    refine_steps: int = 50
    seed: int = 0
    sigma_samples: int = 1000

    def __post_init__(self):
        for f in fields(self):
            _check_count(f.name, getattr(self, f.name), 100 if f.name == "resolution" else 0)


@dataclass(frozen=True)
class ScanResult:
    f_min: float
    worst_bloch: np.ndarray
    gap_to_closed_form: float
    evaluations: int


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    return q * (np.abs(diag) / diag)


def _random_densities(rng, n: int) -> np.ndarray:
    """n mixed qubit states, each the partial trace of a Haar-random two-qubit pure state.

    One draw of shape (n, 2, 4) consumes the generator exactly as n
    single-state draws (real parts, then imaginary parts) would.
    """
    gauss = rng.normal(size=(n, 2, 4))
    psi = gauss[:, 0] + 1j * gauss[:, 1]
    # |psi|^2 as row dot products of the real and imaginary parts, the same
    # dot calls np.linalg.norm(psi) makes for one vector, so each state rounds
    # exactly as a per-state normalisation would
    re, im = psi.real[:, None, :], psi.imag[:, None, :]
    psi /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    joint = (psi[:, :, None] * psi.conj()[:, None, :]).reshape(n, 2, 2, 2, 2)
    return np.einsum("nijkj->nik", joint)


def random_density(rng) -> np.ndarray:
    """Mixed qubit state from partial-tracing a Haar-random two-qubit pure state."""
    return _random_densities(rng, 1)[0]


def sample_su2(config: ScanConfig) -> np.ndarray:
    """Deterministic low-discrepancy Bloch points, axis points first.

    The additive recurrence u_i = frac(offset + alpha (i+1)) fills the unit
    cube, and the standard area-preserving map carries it onto S^3.  With a
    fixed seed the sequence is prefix-nested: raising the resolution only
    appends points.
    """
    n_seq = config.resolution - len(AXIS_POINTS)
    if n_seq <= 0:
        return AXIS_POINTS[: config.resolution].copy()
    offset = np.random.default_rng(config.seed).random(3)
    idx = np.arange(1, n_seq + 1)[:, None]
    u = offset + idx * _ALPHAS
    u -= np.floor(u)  # frac(), exact for these non-negative arguments
    azim = 2 * np.pi * u[:, 1]
    polar = 2 * np.pi * u[:, 2]
    r_low = np.sqrt(1.0 - u[:, 0])
    r_high = np.sqrt(u[:, 0])
    points = np.column_stack(
        [r_low * np.sin(azim), r_low * np.cos(azim), r_high * np.sin(polar), r_high * np.cos(polar)]
    )
    return np.concatenate([AXIS_POINTS, points])


def _tangent_frame(n: np.ndarray) -> np.ndarray:
    """Rows: an orthonormal basis of the tangent space of S^3 at n."""
    frame = []
    order = np.argsort(np.abs(n))  # start from axes least aligned with n
    for k in order[:3]:
        e = np.zeros(4)
        e[k] = 1.0
        e -= (e @ n) * n
        for t in frame:
            e -= (e @ t) * t
        e /= np.linalg.norm(e)
        frame.append(e)
    return np.array(frame)


def _lowest(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` smallest values, ascending, ties lowest index first.

    Equals ``np.argsort(values, kind="stable")[:count]`` (NaN last) but sorts
    only the values at or below the count-th smallest, which a partition finds.
    """
    if count >= len(values):
        return np.argsort(values, kind="stable")
    cut = values[np.argpartition(values, count - 1)[count - 1]]
    # "not above" keeps NaNs when the cut itself is NaN; otherwise they sort past it
    keep = np.flatnonzero(~(values > cut))
    return keep[np.argsort(values[keep], kind="stable")][:count]


def _polish(
    parts, starts: np.ndarray, steps: int, scale: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nelder-Mead reflections in a tangent chart at each start, reprojected to S^3.

    All starts advance in lock-step: each makes the moves of its own serial
    simplex, and one step costs at most three batched kernel calls (reflect,
    then expand or contract, then shrink).  Returns each start's best value
    and point, and the total number of evaluations.
    """
    frames = np.array([_tangent_frame(n0) for n0 in starts])
    rows = np.arange(len(starts))
    evaluations = 0

    def point(idx, x):
        p = starts[idx] + np.einsum("ki,kij->kj", x, frames[idx])
        return p / np.sqrt(np.einsum("kj,kj->k", p, p))[:, None]

    def objective(idx, x):
        nonlocal evaluations
        evaluations += len(idx)
        return fidelity_from_bloch_batch(parts, point(idx, x))

    simplex = np.zeros((len(starts), 4, 3))
    simplex[:, 1:] = scale * np.eye(3)
    values = objective(np.repeat(rows, 4), simplex.reshape(-1, 3)).reshape(-1, 4)
    for _ in range(steps):
        order = np.argsort(values, axis=1)
        simplex = simplex[rows[:, None], order]
        values = values[rows[:, None], order]
        centroid = simplex[:, :-1].sum(axis=1) / 3.0
        worst = simplex[:, -1]
        new_x = centroid + (centroid - worst)
        new_f = objective(rows, new_x)
        expand = new_f < values[:, 0]
        contract = ~(expand | (new_f < values[:, -2]))
        moving = np.flatnonzero(expand | contract)
        shrink = np.zeros(len(starts), dtype=bool)
        if moving.size:
            step = np.where(expand[moving], 2.0, -0.5)[:, None]
            trial_x = centroid[moving] + step * (centroid[moving] - worst[moving])
            trial_f = objective(moving, trial_x)
            # expansion competes with the reflection, contraction with the worst vertex
            bar = np.where(expand[moving], new_f[moving], values[moving, -1])
            take = trial_f < bar
            new_x[moving[take]] = trial_x[take]
            new_f[moving[take]] = trial_f[take]
            shrink[moving[~take & contract[moving]]] = True
        keep = ~shrink
        simplex[keep, -1] = new_x[keep]
        values[keep, -1] = new_f[keep]
        if shrink.any():
            idx = np.flatnonzero(shrink)
            best = simplex[idx, :1]
            simplex[idx, 1:] = best + 0.5 * (simplex[idx, 1:] - best)
            shrunk = objective(np.repeat(idx, 3), simplex[idx, 1:].reshape(-1, 3))
            values[idx, 1:] = shrunk.reshape(-1, 3)
    best = np.argmin(values, axis=1)
    return values[rows, best], point(rows, simplex[rows, best]), evaluations


def minimax_scan(v, config: ScanConfig, trace_path=None) -> ScanResult:
    """Scan the target group for the worst fidelity and polish the incumbents.

    ``trace_path`` optionally writes a CSV of (index, n0..n3, fidelity) for
    the sweep phase.
    """
    parts = device_parts(v)
    points = sample_su2(config)
    values = fidelity_from_bloch_batch(parts, points)
    evaluations = len(points)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "n0", "n1", "n2", "n3", "fidelity"])
            for i, (p, f) in enumerate(zip(points, values)):
                writer.writerow([i, *(repr(float(x)) for x in (*p, f))])

    best = int(np.argmin(values))
    f_min = float(values[best])
    worst = points[best].copy()

    if config.refine_steps > 0:
        scale = max((2 * np.pi**2 / config.resolution) ** (1.0 / 3.0), 1e-3)
        candidates = [worst]
        for i in _lowest(values, 16):
            p = points[i]
            if all(min(np.linalg.norm(p - c), np.linalg.norm(p + c)) > 0.1 for c in candidates):
                candidates.append(p.copy())
            if len(candidates) == 4:
                break
        f_loc, n_loc, used = _polish(parts, np.array(candidates), config.refine_steps, scale)
        evaluations += used
        for f, n in zip(f_loc, n_loc):
            if f < f_min:
                f_min, worst = float(f), n

    reference = worst_case_fidelity(v).fidelity
    return ScanResult(
        f_min=f_min,
        worst_bloch=worst,
        gap_to_closed_form=f_min - reference,
        evaluations=evaluations,
    )


def sigma_dominance_check(u, v, n: int, seed: int = 0) -> float:
    """Max programmed fidelity over n sampled mixed programs.

    The sampled maximum never exceeds the analytic optimum fidelity_uv(u, v)
    beyond rounding; the analytic program state itself attains it.  All n
    programs are drawn and evaluated as one stack.
    """
    _check_count("sample count", n)
    sigmas = _random_densities(np.random.default_rng(seed), n)
    return float(np.max(program_overlap(u, v, sigmas), initial=0.0))

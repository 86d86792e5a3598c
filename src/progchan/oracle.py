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

from . import _scan_py
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

# A sweep minimum within this of the proven lower bound is the minimum up to
# rounding, so the polish is skipped.  On a canonical device an axis point
# meets the bound to within ~1e-16; elsewhere the sweep misses the
# minimizer, by ~1e-10 or more on the devices tested.
CERTIFY_TOL = 1e-15


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
    """Outcome of ``minimax_scan``.

    ``lower_bound`` is lambda_min(Q)/8, below which no kernel value can lie
    (``_lower_bound``).  ``evaluations`` is the number of objective values
    the scan uses: every sweep point plus, when the polish runs, the values
    a one-point-at-a-time Nelder-Mead computes for each start.  The polish
    also evaluates speculative points that a step then discards; those are
    not counted.  A sweep minimum within ``CERTIFY_TOL`` of the bound skips
    the polish, so ``evaluations`` is then the resolution.
    """

    f_min: float
    worst_bloch: np.ndarray
    gap_to_closed_form: float
    evaluations: int
    lower_bound: float


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


def _sequence_points(offset: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Sequence points at the indices k, coordinate-major, shape (4, len(k)).

    The additive recurrence u_k = frac(offset + alpha k) fills the unit
    cube, and the standard area-preserving map carries it onto S^3.  Each
    point depends on its own index only, so any set of indices gives the
    same bits as the full sequence.
    """
    u = _ALPHAS[:, None] * k
    u += offset[:, None]
    coords = np.empty((4, len(k)))
    u -= np.floor(u, out=coords[:3])  # frac(), exact for the non-negative arguments of k >= 1
    angles = u[1:]
    angles *= 2 * np.pi  # azimuth, polar
    radii = np.empty((2, len(k)))  # low, high
    np.subtract(1.0, u[0], out=radii[0])
    radii[1] = u[0]
    np.sqrt(radii, out=radii)
    np.sin(angles, out=coords[0::2])
    np.cos(angles, out=coords[1::2])
    coords[0::2] *= radii
    coords[1::2] *= radii
    return coords


def _sample_rows(offset: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of ``sample_su2``'s output at the given indices, built without the others.

    Row i >= 8 is sequence point i - 7; rows 0-7 are the axis points, written
    over the sequence values computed there.  Returns a C-contiguous array.
    """
    rows = np.asarray(rows)
    n_axis = len(AXIS_POINTS)
    out = np.ascontiguousarray(_sequence_points(offset, rows - (n_axis - 1)).T)
    axis = np.flatnonzero(rows < n_axis)
    out[axis] = AXIS_POINTS[rows[axis]]
    return out


def _offset(config: ScanConfig) -> np.ndarray:
    """The seeded start of the recurrence, one coordinate per cube axis."""
    return np.random.default_rng(config.seed).random(3)


def sample_su2(config: ScanConfig) -> np.ndarray:
    """Deterministic low-discrepancy Bloch points, axis points first.

    The sequence points follow the axis points (``_sequence_points``).  With
    a fixed seed the sample is prefix-nested: raising the resolution only
    appends points.  ``minimax_scan`` never builds this array unless asked
    for a trace; it streams the same rows block by block.
    """
    return _sample_rows(_offset(config), np.arange(config.resolution))


def _sweep(parts, offset: np.ndarray, n: int) -> np.ndarray:
    """The kernel's value at each of the first n sample rows, bit for bit as on ``sample_su2``.

    The rows are generated and evaluated one kernel block at a time
    (``_scan_py.block_bounds``), so only one block of points exists at once.
    """
    values = np.empty(n)
    for start, stop in _scan_py.block_bounds(n):
        rows = _sample_rows(offset, np.arange(start, stop))
        values[start:stop] = fidelity_from_bloch_batch(parts, rows)
    return values


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


def _nelder_mead(steps: int, scale: float):
    """Serial Nelder-Mead in a 3-d chart, from a right-angle simplex at the origin.

    A generator: it yields the list of chart points it needs next, is sent
    the list of their values, and returns (best value, best point,
    evaluations).  It asks for the 4 initial vertices, then per step for the
    reflected, expanded and contracted points together, since all three
    depend only on the simplex, and for the 3 shrink points when it shrinks.
    Each step takes the branch the one-point-at-a-time method takes.
    Vertices are ranked by value, ties in vertex order.

    ``evaluations`` counts the objective values the search uses, which is
    what a one-point-at-a-time run computes; a speculative value that the
    chosen branch discards is not counted.
    """
    simplex = [(0.0, 0.0, 0.0), (scale, 0.0, 0.0), (0.0, scale, 0.0), (0.0, 0.0, scale)]
    values = yield simplex
    evaluations = 4
    for _ in range(steps):
        order = sorted(range(4), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        (b0, b1, b2), (p0, p1, p2), (q0, q1, q2), (w0, w1, w2) = simplex
        c0, c1, c2 = (b0 + p0 + q0) / 3.0, (b1 + p1 + q1) / 3.0, (b2 + p2 + q2) / 3.0
        reflected = (c0 + (c0 - w0), c1 + (c1 - w1), c2 + (c2 - w2))
        expanded = (c0 + 2.0 * (c0 - w0), c1 + 2.0 * (c1 - w1), c2 + 2.0 * (c2 - w2))
        contracted = (c0 + 0.5 * (w0 - c0), c1 + 0.5 * (w1 - c1), c2 + 0.5 * (w2 - c2))
        f_ref, f_exp, f_con = yield [reflected, expanded, contracted]
        if f_ref < values[0]:
            evaluations += 2
            simplex[3], values[3] = (expanded, f_exp) if f_exp < f_ref else (reflected, f_ref)
        elif f_ref < values[2]:
            evaluations += 1
            simplex[3], values[3] = reflected, f_ref
        elif f_con < values[3]:
            evaluations += 2
            simplex[3], values[3] = contracted, f_con
        else:
            evaluations += 5
            simplex[1:] = [
                (b0 + 0.5 * (x0 - b0), b1 + 0.5 * (x1 - b1), b2 + 0.5 * (x2 - b2))
                for x0, x1, x2 in simplex[1:]
            ]
            values[1:] = yield simplex[1:]
    i = min(range(4), key=values.__getitem__)
    return values[i], simplex[i], evaluations


def _polish(
    parts, starts: np.ndarray, steps: int, scale: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nelder-Mead in a tangent chart at each start, reprojected to S^3.

    Each start runs its own serial simplex (``_nelder_mead``).  Every round
    maps the points all unfinished starts are waiting for onto S^3 and
    evaluates them in one kernel call.  Every start waits for at least 3
    points, so no call has the single row whose rounding differs (see
    ``kernels``), and a start makes the moves it would make alone, bit for
    bit.  Returns each start's best value and point, and the sum of the
    starts' evaluations: the objective values their searches use, not the
    speculative values a step discards.
    """
    frames = np.array([_tangent_frame(n0) for n0 in starts])

    def point(idx, x):
        p = starts[idx] + np.einsum("ki,kij->kj", x, frames[idx])
        return p / np.sqrt(np.einsum("kj,kj->k", p, p))[:, None]

    runs = [_nelder_mead(steps, scale) for _ in starts]
    waiting = {k: next(run) for k, run in enumerate(runs)}
    found = [None] * len(runs)
    while waiting:
        idx = [k for k, xs in waiting.items() for _ in xs]
        x = [xi for xs in waiting.values() for xi in xs]
        values = fidelity_from_bloch_batch(parts, point(idx, np.array(x))).tolist()
        at = 0
        for k, xs in list(waiting.items()):
            got, at = values[at : at + len(xs)], at + len(xs)
            try:
                waiting[k] = runs[k].send(got)
            except StopIteration as done:
                found[k] = done.value
                del waiting[k]
    best_f, best_x, evaluations = zip(*found)
    return np.array(best_f), point(np.arange(len(runs)), np.array(best_x)), sum(evaluations)


def _lower_bound(parts) -> float:
    """lambda_min(Q)/8 with Q_mu,nu = Re Tr(K_mu^dag K_nu); parts from device_parts().

    ||S(n)||_F^2 = n^T Q n, and f(n) = lambda_max(S^dag S)/4 >= ||S||_F^2/8,
    so every kernel value is at least this bound.  It is tight: spec(Q)/8
    is {|t_j|^2/4}, so the bound is the closed form's F(V), reached here
    without the decomposition or the t-vector.
    """
    k = parts.reshape(4, 4)
    return float(np.linalg.eigvalsh((k.conj() @ k.T).real)[0]) / 8


def minimax_scan(v, config: ScanConfig, trace_path=None) -> ScanResult:
    """Scan the target group for the worst fidelity and polish the incumbents.

    The sweep evaluates every row of ``sample_su2(config)`` but generates
    them one kernel block at a time and keeps only the values; the minimum
    and the polish seeds are rebuilt from their row indices.  A sweep
    minimum within ``CERTIFY_TOL`` of the proven lower bound is returned
    as it is, without the polish.  ``trace_path`` optionally writes a CSV
    of (index, n0..n3, fidelity) for the sweep phase, the one case that
    builds the whole sample.
    """
    parts = device_parts(v)
    lower_bound = _lower_bound(parts)
    offset = _offset(config)
    values = _sweep(parts, offset, config.resolution)
    evaluations = len(values)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "n0", "n1", "n2", "n3", "fidelity"])
            for i, (p, f) in enumerate(zip(sample_su2(config), values)):
                writer.writerow([i, *(repr(float(x)) for x in (*p, f))])

    # only the rows the scan reads are rebuilt: the polish seeds, the minimum first
    seeds = _lowest(values, 16 if config.refine_steps > 0 else 1)
    f_min = float(values[seeds[0]])
    worst, *seed_points = _sample_rows(offset, seeds)

    if config.refine_steps > 0 and f_min > lower_bound + CERTIFY_TOL:
        scale = max((2 * np.pi**2 / config.resolution) ** (1.0 / 3.0), 1e-3)
        candidates = [worst]
        for p in seed_points:
            if all(min(np.linalg.norm(p - c), np.linalg.norm(p + c)) > 0.1 for c in candidates):
                candidates.append(p)
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
        lower_bound=lower_bound,
    )


def sigma_dominance_check(u, v, n: int, seed: int = 0) -> float:
    """Max programmed fidelity over n sampled mixed programs.

    The sampled maximum never exceeds the analytic optimum fidelity_uv(u, v)
    beyond rounding; the analytic program state itself attains it.  All n
    programs are drawn and evaluated as one stack.
    """
    _check_count("sample count", n)
    _check_count("seed", seed)
    sigmas = _random_densities(np.random.default_rng(seed), n)
    return float(np.max(program_overlap(u, v, sigmas), initial=0.0))

"""Brute-force minimax over SU(2) targets, independent of the closed form.

The inner maximization over program states is analytic (top eigenvalue of
S^dag S), so the only approximation is the discretization of the target
group: a seeded low-discrepancy sweep of S^3.  The Gram matrix of the
device's Bloch parts gives a proven lower bound and a witness point that
attains it, so the scan also evaluates that witness and reports the lower
of the two minima.
"""

from __future__ import annotations

import csv
import functools
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
# The angles of sequence index k come from a table of 2**_TABLE_BITS
# rotations, indexed by k's low bits, times one rotation per period.
_TABLE_BITS = 12

# Size of the angle grid on [0, pi) over which the witness search maximizes
# |det S| (``_witnesses``).  Grids of 4 to 91 angles give the same witness
# gaps on the tested devices, to rounding; each angle costs one small
# eigensolve per candidate.
WITNESS_ANGLES = 8


def _check_count(name: str, value, lowest: int = 0) -> None:
    """ContractError unless value is an integer count of at least ``lowest``."""
    # numpy integers are Integral; bool is too, but is no count
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < lowest:
        raise ContractError(f"{name} must be >= {lowest}, got {value}")


@dataclass(frozen=True)
class ScanConfig:
    """Scan size and seeds.  ``refine_steps`` is validated but unused: it
    capped the retired simplex polish, and perfbench still passes it."""

    resolution: int = 10_000
    refine_steps: int = 0
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
    the scan computes: every sweep point and the four witness candidates.
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


@functools.cache
def _rotation_table() -> np.ndarray:
    """Read-only (4096, 2) table of sin + i cos of 2 pi frac(alpha_m j), m = azimuth, polar.

    Built on first use, the same object on every call; it does not depend
    on the seed (``_sequence_points``).
    """
    j = np.arange(1 << _TABLE_BITS)[:, None]
    turns = _ALPHAS[1:] * j
    turns -= np.floor(turns)
    turns *= 2 * np.pi
    table = np.empty((len(j), 2), dtype=complex)
    table.real = np.sin(turns)
    table.imag = np.cos(turns)
    table.setflags(write=False)
    return table


def _sequence_points(offset: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Sequence points at the indices k, row-major, shape (len(k), 4).

    The additive recurrence u_k = frac(offset + alpha k) fills the unit
    cube, and the standard area-preserving map carries it onto S^3:
    (sqrt(1 - u0) e_azim, sqrt(u0) e_polar), where e_m is the (sin, cos)
    pair of the angle 2 pi u_m.  That pair is read as sin + i cos, which
    for k = 4096 q + j is the product of the table entry at j
    (``_rotation_table``) and cos b - i sin b, b = 2 pi frac(offset +
    alpha 4096 q), so no angle needs a sin or cos of its own.  Each point
    depends on its own index only, so any set of indices gives the same
    bits as the full sequence.
    """
    out = np.empty((len(k), 4))
    rotations = out.view(complex)  # (azimuth, polar) per row
    # mode="wrap" indexes by k mod 4096, negative k too, and with out= it
    # writes in place, where the default mode would buffer
    np.take(_rotation_table(), k, axis=0, out=rotations, mode="wrap")
    periods = k >> _TABLE_BITS
    first = int(periods.min())
    turns = _ALPHAS[1:] * (np.arange(first, int(periods.max()) + 1) << _TABLE_BITS)[:, None]
    turns += offset[1:]
    turns -= np.floor(turns)  # frac()
    turns *= 2 * np.pi
    bases = np.empty(turns.shape, dtype=complex)
    bases.real = np.cos(turns)
    bases.imag = -np.sin(turns)
    periods -= first
    rotations *= np.take(bases, periods, axis=0)
    u = k.astype(float)
    u *= _ALPHAS[0]
    u += offset[0]
    u -= np.floor(u)  # frac(), exact for the non-negative arguments of k >= 1
    radii = np.empty((len(k), 2))  # low, high
    np.subtract(1.0, u, out=radii[:, 0])
    radii[:, 1] = u
    np.sqrt(radii, out=radii)
    rotations *= radii  # a real factor: each part is one rounded real product
    return out


def _sample_rows(offset: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of ``sample_su2``'s output at the given indices, built without the others.

    Row i >= 8 is sequence point i - 7; rows 0-7 are the axis points, written
    over the sequence values computed there.  Returns a C-contiguous array.
    """
    rows = np.asarray(rows)
    n_axis = len(AXIS_POINTS)
    out = _sequence_points(offset, rows - (n_axis - 1))
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


def _gram(parts) -> np.ndarray:
    """Q_mu,nu = Re Tr(K_mu^dag K_nu), real symmetric; parts from device_parts()."""
    k = parts.reshape(4, 4)
    return (k.conj() @ k.T).real


def _lower_bound(parts) -> float:
    """lambda_min(Q)/8 for the Gram matrix Q of the device parts (``_gram``).

    ||S(n)||_F^2 = n^T Q n, and f(n) = lambda_max(S^dag S)/4 >= ||S||_F^2/8,
    so every kernel value is at least this bound.  It is tight: spec(Q)/8
    is {|t_j|^2/4}, so the bound is the closed form's F(V), reached here
    without the decomposition or the t-vector.
    """
    return float(np.linalg.eigvalsh(_gram(parts))[0]) / 8


def _det_form(parts) -> np.ndarray:
    """D, complex symmetric, with det S(n) = n^T D n; parts from device_parts().

    With K_mu = [[a, b], [c, d]], D_mu,nu = (a_mu d_nu + d_mu a_nu
    - b_mu c_nu - c_mu b_nu) / 2.
    """
    a, b, c, d = parts.reshape(4, 4).T
    det = np.outer(a, d) - np.outer(b, c)
    return 0.5 * (det + det.T)


def _witnesses(parts) -> np.ndarray:
    """Four unit Bloch points, one per leading eigenspace of Q, where f may meet the bound.

    f(n) = lambda_min(Q)/8 exactly where n lies in the bottom eigenspace E
    of Q and the singular values of S(n) tie, that is, where
    |det S(n)| = |n^T D n| (``_det_form``) is largest on E (Rayleigh-Ritz).
    Row 0 is the lowest eigenvector.  Row k-1, for k = 2, 3, 4, searches the
    span E_k of the first k eigenvectors: E_k c, where c is the top
    eigenvector of Re(e^{-i phi} E_k^T D E_k) at the grid angle phi whose
    top eigenvalue is largest.  One row per k stands in for E, so no
    tolerance decides its dimension; the kernel picks the best.
    """
    _, vecs = np.linalg.eigh(_gram(parts))
    det_form = _det_form(parts)
    turns = np.exp(-1j * np.pi * np.arange(WITNESS_ANGLES) / WITNESS_ANGLES)[:, None, None]
    out = np.empty((4, 4))
    out[0] = vecs[:, 0]
    for k in range(2, 5):
        span = vecs[:, :k]
        tops, coeffs = np.linalg.eigh((turns * (span.T @ det_form @ span)).real)
        out[k - 1] = span @ coeffs[np.argmax(tops[:, -1]), :, -1]
    return out / np.linalg.norm(out, axis=1)[:, None]


def minimax_scan(v, config: ScanConfig, trace_path=None) -> ScanResult:
    """Sweep the target group for the worst fidelity, then try the Gram witness.

    The sweep evaluates every row of ``sample_su2(config)`` but generates
    them one kernel block at a time and keeps only the values; the minimum
    row is rebuilt from its index.  The four witness candidates
    (``_witnesses``) go through the kernel in one call, and ``f_min`` is the
    lower of the two minima, ties to the sweep row.  ``trace_path``
    optionally writes a CSV of (index, n0..n3, fidelity) for the sweep
    phase, the one case that builds the whole sample.
    """
    parts = device_parts(v)
    lower_bound = _lower_bound(parts)
    offset = _offset(config)
    values = _sweep(parts, offset, config.resolution)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "n0", "n1", "n2", "n3", "fidelity"])
            for i, (p, f) in enumerate(zip(sample_su2(config), values)):
                writer.writerow([i, *(repr(float(x)) for x in (*p, f))])

    i = int(np.argmin(values))
    f_min = float(values[i])
    worst = _sample_rows(offset, [i])[0]
    candidates = _witnesses(parts)
    # four rows: never the one-row BLAS path (see kernels)
    witness_values = fidelity_from_bloch_batch(parts, candidates)
    j = int(np.argmin(witness_values))
    if witness_values[j] < f_min:
        f_min, worst = float(witness_values[j]), candidates[j]

    reference = worst_case_fidelity(v).fidelity
    return ScanResult(
        f_min=f_min,
        worst_bloch=worst,
        gap_to_closed_form=f_min - reference,
        evaluations=len(values) + len(candidates),
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

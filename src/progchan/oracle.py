"""Brute-force minimax over SU(2) targets, independent of the closed form.

The inner maximization over program states is analytic (top eigenvalue of
S^dag S), so the only approximation is the discretization of the target
group: a seeded low-discrepancy sweep of S^3 (``_sweep``).  The sweep builds
no points and keeps a running minimum, so a scan's memory grows only by ~1 KB
of coefficients per 4096 points; only a ``--csv`` trace holds the whole
sample.  The scan sees the device only as the two arrays that
``kernels._scan_forms`` builds: the real forms Q and the determinant form D.
Q_0 gives a proven lower bound, and D steers the search for a witness point
that attains it, so the scan also evaluates that witness and reports the
lower of the two minima.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .channels import program_overlap
from .errors import ContractError
# device_parts and fidelity_from_bloch are unused here but stay bound:
# perfbench/tracing.py rebinds the kernel entry points in this module by name.
from .kernels import device_parts, fidelity_from_bloch, fidelity_from_bloch_batch  # noqa: F401
from .matops import _is_integer
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
# The kernel's monomial rows (``kernels.monomials``), regrouped by the weight
# that n_mu n_nu puts on tau_mu tau_nu at u: azimuth pairs 1 - u, cross pairs
# sqrt(u (1 - u)), polar pairs u (``_sweep``).
_SWEEP_ROWS = np.array([0, 1, 4, 2, 3, 5, 6, 7, 8, 9])
_WEIGHT_ROWS = (slice(0, 3), slice(3, 7), slice(7, 10))

# Size of the angle grid on [0, pi) over which the witness search maximizes
# |det S| (``_gram_witness``).  Grids of 4 to 91 angles give the same witness
# gaps on the tested devices, to rounding; each angle costs one small
# eigensolve per candidate.
WITNESS_ANGLES = 8


def _check_count(name: str, value, lowest: int = 0) -> None:
    """ContractError unless value is an integer count of at least ``lowest``."""
    if not _is_integer(value):
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
    (``_gram_witness``).  ``evaluations`` is the number of sample rows and
    witness candidates the scan evaluates, ``resolution + 4``: every sweep
    point and the four candidates.  The kernel's second look at the sweep's
    best row is not counted.
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
    single-state draws (real parts, then imaginary parts) would.  With psi
    read as the 2x2 matrix psi_ij (i the kept qubit), Tr_2 |psi><psi| is
    psi psi^dag, formed as its two terms j = 0, 1 and never through the
    4x4 projector.
    """
    gauss = rng.normal(size=(n, 2, 4))
    psi = gauss[:, 0] + 1j * gauss[:, 1]
    # |psi|^2 as row dot products of the real and imaginary parts, the same
    # dot calls np.linalg.norm(psi) makes for one vector, so each state rounds
    # exactly as a per-state normalisation would
    re, im = psi.real[:, None, :], psi.imag[:, None, :]
    psi /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    psi = psi.reshape(n, 2, 2)
    conj = psi.conj()
    # ascending j, the order in which a partial trace of the 4x4 projector sums them
    rho = psi[:, :, None, 0] * conj[:, None, :, 0]
    rho += psi[:, :, None, 1] * conj[:, None, :, 1]
    return rho


def random_density(rng) -> np.ndarray:
    """Mixed qubit state from partial-tracing a Haar-random two-qubit pure state."""
    return _random_densities(rng, 1)[0]


@functools.cache
def _rotation_table() -> np.ndarray:
    """Read-only (4096, 2) table of sin + i cos of 2 pi frac(alpha_m j), m = azimuth, polar.

    Built on first use, the same object on every call; it does not depend
    on the seed (``_sample_rows``).
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


@functools.cache
def _monomial_table() -> np.ndarray:
    """Read-only (10, 4096) table of the unit monomials tau_mu tau_nu, in ``_SWEEP_ROWS`` order.

    tau_j is the (Re, Im) pair of both ``_rotation_table`` entries at j, a
    unit vector in each plane.  Built on first use, the same object on every
    call.
    """
    table = kernels.monomials(_rotation_table().view(float).T)[_SWEEP_ROWS]
    table.setflags(write=False)
    return table


def _period_rotations(offset: np.ndarray, periods: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos b, sin b), b = 2 pi frac(offset_m + alpha_m 4096 q), each (len(periods), 2).

    Sequence index k = 4096 q + j turns the table's entry at j by -b
    (``_sample_rows``).
    """
    turns = _ALPHAS[1:] * (periods << _TABLE_BITS)[:, None]
    turns += offset[1:]
    turns -= np.floor(turns)  # frac()
    turns *= 2 * np.pi
    return np.cos(turns), np.sin(turns)


def _radial_coordinate(k: np.ndarray, offset: np.ndarray, scratch=None) -> np.ndarray:
    """u_k = frac(offset_0 + alpha_0 k), written over float(k) in k.

    scratch, if given, takes floor().  frac() is exact for the non-negative
    arguments of k >= 1.
    """
    k *= _ALPHAS[0]
    k += offset[0]
    k -= np.floor(k, out=scratch)
    return k


def _sample_rows(offset: np.ndarray, rows) -> np.ndarray:
    """The rows of ``sample_su2``'s output at the given indices, built without the others.

    Row i >= 8 is sequence point k = i - 7; rows 0-7 are the axis points,
    written over the sequence values computed there.  The additive
    recurrence u_k = frac(offset + alpha k) fills the unit cube, and the
    standard area-preserving map carries it onto S^3: (sqrt(1 - u0) e_azim,
    sqrt(u0) e_polar), where e_m is the (sin, cos) pair of the angle 2 pi
    u_m.  That pair is read as sin + i cos, which for k = 4096 q + j is the
    product of the table entry at j (``_rotation_table``) and cos b - i sin b
    (``_period_rotations``), so no angle needs a sin or cos of its own.  Each
    row depends on its own index only, so any set of indices gives the same
    bits as the whole sample.  Returns a C-contiguous array.
    """
    rows = np.asarray(rows)
    n_axis = len(AXIS_POINTS)
    k = rows - (n_axis - 1)
    out = np.empty((len(k), 4))
    rotations = out.view(complex)  # (azimuth, polar) per row
    # mode="wrap" indexes by k mod 4096, negative k too, and with out= it
    # writes in place, where the default mode would buffer
    np.take(_rotation_table(), k, axis=0, out=rotations, mode="wrap")
    periods = k >> _TABLE_BITS
    first = int(periods.min())
    cos, sin = _period_rotations(offset, np.arange(first, int(periods.max()) + 1))
    periods -= first
    rotations *= np.take(cos - 1j * sin, periods, axis=0)
    u = _radial_coordinate(k.astype(float), offset)
    radii = np.empty((len(k), 2))  # low, high
    np.subtract(1.0, u, out=radii[:, 0])
    radii[:, 1] = u
    np.sqrt(radii, out=radii)
    rotations *= radii  # a real factor: each part is one rounded real product
    axis = np.flatnonzero(rows < n_axis)
    out[axis] = AXIS_POINTS[rows[axis]]
    return out


def _offset(config: ScanConfig) -> np.ndarray:
    """The seeded start of the recurrence, one coordinate per cube axis."""
    return np.random.default_rng(config.seed).random(3)


def sample_su2(config: ScanConfig) -> np.ndarray:
    """Deterministic low-discrepancy Bloch points, axis points first.

    The sequence points follow the axis points (``_sample_rows``).  With
    a fixed seed the sample is prefix-nested: raising the resolution only
    appends points.  ``minimax_scan`` never builds this array unless asked
    for a trace; its sweep evaluates the same points without building them.
    """
    return _sample_rows(_offset(config), np.arange(config.resolution))


def _period_coefficients(forms, offset: np.ndarray, periods: int) -> np.ndarray:
    """The forms in each period's coordinates, packed: (periods, 4, 10) coefficients.

    Sequence point k = 4096 q + j is W_k R_q tau_j: tau_j from the table
    (``_monomial_table``), R_q = diag(M_azim, M_polar) the real form of the
    period's rotations cos b - i sin b (``_period_rotations``), M = [[cos b,
    sin b], [-sin b, cos b]], and W_k = diag(r_low, r_low, r_high, r_high).
    W_k commutes with R_q, so h_a = tau_j^T W_k (R_q^T Q_a R_q) W_k tau_j:
    period q reads the forms R_q^T Q_a R_q, one stacked product for all,
    packed by the kernel and regrouped like the table.
    """
    cos, sin = _period_rotations(offset, np.arange(periods))
    rotations = np.zeros((periods, 4, 4))
    rotations[:, (0, 2), (0, 2)] = rotations[:, (1, 3), (1, 3)] = cos
    rotations[:, (0, 2), (1, 3)] = sin
    rotations[:, (1, 3), (0, 2)] = -sin
    turned = rotations.transpose(0, 2, 1)[:, None] @ forms @ rotations[:, None]
    # take: a fancy index on the last axis lays each block out transposed, slower in matmul
    return kernels.pack(turned).take(_SWEEP_ROWS, axis=-1)


def _sweep(forms, offset: np.ndarray, n: int, values=None) -> int:
    """The row of the least objective value among the first n > 8 sample rows.

    Ties go to the lower row, so the row is ``np.argmin`` of the values;
    if ``values`` is an array of n, it also receives every value, each
    within 2e-15 of the kernel's at that row of ``sample_su2``.  The axis
    rows go through the kernel as one batch.  The sequence points are never
    built: point k = 4096 q + j takes the table's unit monomials at j, each
    scaled by the weight W_k puts on it (1 - u, sqrt(u (1 - u)) or u, with
    u_k as in ``_sample_rows``), against period q's coefficients
    (``_period_coefficients``).  Each period is one block, so the table is
    read in slices; every block reuses the same buffers, and only the
    running minimum outlives it, so the sweep holds O(4096) values whatever
    n is.  A lone last point is computed with its successor: alone, it
    would make the period's product a matrix-vector one, which can round
    differently (see kernels), so no value depends on n.
    """
    n_axis = len(AXIS_POINTS)
    axis_values = fidelity_from_bloch_batch(forms, AXIS_POINTS)
    if values is not None:
        values[:n_axis] = axis_values
    best_row = int(axis_values.argmin())
    best = axis_values[best_row]
    last = n - n_axis  # sequence indices 1..last
    size = 1 << _TABLE_BITS
    table, ramp = _monomial_table(), np.arange(size, dtype=float)
    monomials, scratch, block_values = np.empty(10 * size), np.empty(4 * size), np.empty(size)
    for q, coeffs in enumerate(_period_coefficients(forms, offset, (last >> _TABLE_BITS) + 1)):
        base = q << _TABLE_BITS
        lo = max(1 - base, 0)  # j of this period's points: lo, ..., at most 4095
        count = min(last + 1 - base, size) - lo
        m = max(count, 2)
        hi = lo + m
        w_low, w_cross, w_high = scratch[:m], scratch[m : 2 * m], scratch[2 * m : 3 * m]
        np.add(ramp[lo:hi], base, out=w_high)  # float(k), exactly
        _radial_coordinate(w_high, offset, scratch=w_low)
        np.subtract(1.0, w_high, out=w_low)
        np.multiply(w_high, w_low, out=w_cross)
        np.sqrt(w_cross, out=w_cross)
        block = monomials[: 10 * m].reshape(10, m)
        for rows, weight in zip(_WEIGHT_ROWS, (w_low, w_cross, w_high)):
            np.multiply(table[rows, lo:hi], weight, out=block[rows])
        start = base + lo + n_axis - 1  # the row of index k = base + lo
        # the weights are spent, so h_a overwrites them
        hs = np.matmul(coeffs, block, out=scratch[: 4 * m].reshape(4, m))
        found = kernels.fidelity_tail(hs, block_values[:m])[:count]
        if values is not None:
            values[start : start + count] = found
        j = int(found.argmin())
        if found[j] < best:
            best, best_row = found[j], start + j
    return best_row


def _gram_witness(forms, det_form) -> tuple[float, np.ndarray]:
    """The bound lambda_min(Q)/8 of Q = forms[0], and four unit Bloch points where f may meet it.

    ||S(n)||_F^2 = n^T Q n, and f(n) = lambda_max(S^dag S)/4 >= ||S||_F^2/8,
    so no kernel value lies below the bound.  It is tight: spec(Q)/8 is
    {|t_j|^2/4}, so the bound is the closed form's F(V), reached here
    without the decomposition or the t-vector.

    f(n) meets it exactly where n lies in the bottom eigenspace E of Q and
    the singular values of S(n) tie, that is, where |det S(n)| = |n^T D n|
    (``kernels._scan_forms``) is largest on E (Rayleigh-Ritz).  Row k-1, for k = 1..4,
    searches the span E_k of the first k eigenvectors: E_k c, where c is the
    top eigenvector of Re(e^{-i phi} E_k^T D E_k) at the grid angle phi whose
    top eigenvalue is largest; row 0 is the lowest eigenvector.  One row per
    k stands in for E, so no tolerance decides its dimension; the kernel
    picks the best.  One eigh of Q serves the bound and the witness.
    """
    spectrum, vecs = np.linalg.eigh(forms[0])
    turns = np.exp(-1j * np.pi * np.arange(WITNESS_ANGLES) / WITNESS_ANGLES)[:, None, None]
    out = np.empty((4, 4))
    for k in range(1, 5):
        span = vecs[:, :k]
        tops, coeffs = np.linalg.eigh((turns * (span.T @ det_form @ span)).real)
        out[k - 1] = span @ coeffs[np.argmax(tops[:, -1]), :, -1]
    return float(spectrum[0]) / 8, out / np.linalg.norm(out, axis=1)[:, None]


def minimax_scan(v, config: ScanConfig, trace_path=None) -> ScanResult:
    """Sweep the target group for the worst fidelity, then try the Gram witness.

    The sweep (``_sweep``) evaluates every row of ``sample_su2(config)``
    without building the rows and keeps only the index of the lowest.  That
    row is rebuilt from its index and goes through the kernel in one call
    with the four witness candidates (``_gram_witness``), so ``f_min`` is
    the kernel's value at ``worst_bloch``: the lowest of the five, ties to
    the sweep row.  ``trace_path`` optionally writes a CSV of (index,
    n0..n3, fidelity) for the sweep phase, the one case whose memory grows
    with the resolution: it builds the whole sample and keeps every sweep
    value, which its fidelity column holds.
    """
    forms, det_form = kernels._scan_forms(v)
    offset = _offset(config)
    values = None if trace_path is None else np.empty(config.resolution)
    best_row = _sweep(forms, offset, config.resolution, values)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "n0", "n1", "n2", "n3", "fidelity"])
            for i, (p, f) in enumerate(zip(sample_su2(config), values)):
                writer.writerow([i, *(repr(float(x)) for x in (*p, f))])

    lower_bound, candidates = _gram_witness(forms, det_form)
    points = np.concatenate([_sample_rows(offset, [best_row]), candidates])
    # five rows: never the one-row BLAS path (see kernels)
    point_values = fidelity_from_bloch_batch(forms, points)
    best = int(np.argmin(point_values))
    f_min = float(point_values[best])

    reference = worst_case_fidelity(v).fidelity
    return ScanResult(
        f_min=f_min,
        worst_bloch=points[best],
        gap_to_closed_form=f_min - reference,
        evaluations=config.resolution + len(candidates),
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

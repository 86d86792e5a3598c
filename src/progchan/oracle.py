"""Brute-force minimax over SU(2) targets, independent of the closed form.

The inner maximization over program states is analytic (top eigenvalue of
S^dag S), so the only approximation is the discretization of the target
group: a seeded low-discrepancy sweep of S^3 (``_sweep``).  The sweep builds
no points and yields its values a period at a time, so a scan's memory, a
``--csv`` trace's too, grows only by ~1.6 KB of coefficients per 4096
points.  The scan sees the device only as the two arrays that
``kernels._scan_forms`` builds: the real forms Q and the determinant form D.
Q_0 gives a proven lower bound, and D steers the search for a witness point
that attains it, so the scan evaluates that witness first and reports the
lower of the two minima.  Since f >= h_0/8 = n^T Q_0 n / 8, the sweep skips
each period of points whose h_0/8 shows them all to lie above the witness.
"""

from __future__ import annotations

import contextlib
import csv
import functools
from dataclasses import dataclass

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
# row g keeps the coefficients of _WEIGHT_ROWS[g]: the sweep's bound on h_0
_WEIGHT_MASK = np.repeat(np.eye(3), (3, 4, 3), axis=1)
# The sweep skips a point whose h_0/8 lies more than this above the witness's
# value (``_sweep``).  It covers the rounding between the bound's h_0 and the
# kernel's (~1e-14) and between a sweep value and the kernel's at that row
# (2e-15), so no skipped point could be the one the scan would re-read and win.
_PRUNE_MARGIN = 1e-12

# Size of the angle grid on [0, pi) over which the witness search maximizes
# |det S| (``_gram_witness``).  Grids of 4 to 91 angles give the same witness
# gaps on the tested devices, to rounding; each angle costs one small
# eigensolve per candidate.
WITNESS_ANGLES = 8

#: largest resolution: 10**8 points hold ~40 MB of period coefficients
MAX_RESOLUTION = 10**8
#: largest sigma sample count: 10**6 programs take ~320 MB at once
MAX_SIGMA_SAMPLES = 10**6


def _check_count(name: str, value, lowest: int = 0, cap: tuple[str, int] | None = None) -> None:
    """ContractError unless value is an integer count of at least ``lowest``
    and, given a (constant name, bound) ``cap``, at most the bound."""
    if not _is_integer(value):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < lowest:
        raise ContractError(f"{name} must be >= {lowest}, got {value}")
    if cap is not None and value > cap[1]:
        raise ContractError(f"{name} must be <= {cap[0]} = {cap[1]}, got {value}")


@dataclass(frozen=True)
class ScanConfig:
    """Scan size and seeds.  ``refine_steps`` is validated but unused: it
    capped the retired simplex polish, and perfbench still passes it."""

    resolution: int = 10_000
    refine_steps: int = 0
    seed: int = 0
    sigma_samples: int = 1000

    def __post_init__(self):
        _check_count("resolution", self.resolution, 100, ("MAX_RESOLUTION", MAX_RESOLUTION))
        _check_count("refine_steps", self.refine_steps)
        _check_count("seed", self.seed)
        _check_count("sigma_samples", self.sigma_samples, 0, ("MAX_SIGMA_SAMPLES", MAX_SIGMA_SAMPLES))


@dataclass(frozen=True)
class ScanResult:
    """Outcome of ``minimax_scan``.

    ``lower_bound`` is lambda_min(Q)/8, below which no kernel value can lie
    (``_gram_witness``).  ``evaluations`` is the number of sample rows and
    witness candidates the scan covers, ``resolution + 4``: every sweep row,
    each either evaluated or shown by its h_0/8 to lie above the witness
    (``_sweep``), and the four candidates.  The kernel's second look at the
    sweep's best row and the candidates is not counted.
    """

    f_min: float
    worst_bloch: np.ndarray
    gap_to_closed_form: float
    evaluations: int
    lower_bound: float


def _haar_from_gaussian(a) -> np.ndarray:
    """Haar-random unitaries from complex Gaussian draws (..., d, d): QR, then R's phases into Q."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (np.abs(diag) / diag)[..., None, :]


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return _haar_from_gaussian(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


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
    appends points.  ``minimax_scan`` never builds this array: its sweep
    evaluates the same points without building them, and a trace rebuilds
    them a block at a time.
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


def _sweep(forms, offset: np.ndarray, n: int, ceiling: float = np.inf):
    """Yield (first row, values) blocks of the objective at the first n > 8 sample rows.

    The blocks are contiguous and in row order: the axis rows, through the
    kernel as one batch, then one block per period, each value within 2e-15
    of the kernel's at that row of ``sample_su2``.  The sequence points are
    never built: point k = 4096 q + j takes the table's unit monomials at j,
    each scaled by the weight W_k puts on it (1 - u, sqrt(u (1 - u)) or u,
    with u_k as in ``_sample_rows``), against period q's coefficients
    (``_period_coefficients``).  Every block reuses the same buffers, so the
    sweep holds O(4096) values whatever n is, and a block's values are valid
    only until the next block is drawn: a reader that keeps them copies
    them.  A lone last point is computed with its successor: alone, it would
    make the period's product a matrix-vector one, which can round
    differently (see kernels), so no value depends on n.

    With the default ceiling the blocks tile the rows.  With a finite one a
    period is skipped, and yields nothing, when no row's h_0/8 lies within
    ``_PRUNE_MARGIN`` of the ceiling; the bound on h_0 is one (3, 10)
    product of h_0's coefficients, split by weight, against the table, then
    the three weights.  A skipped row's value is at least its h_0/8 in
    floating point too (the tail adds a square root to h_0), so it lies
    above the ceiling by the margin, less the rounding between the two
    routes to h_0 (~1e-14).  A period that is not skipped is computed as
    with no ceiling, so its values keep their bits, and it ends the
    bounding: a bound costs about a third of a block, and where the rows
    near the ceiling reach one period they mostly reach every later one
    too, as on a near-optimal device.
    """
    n_axis = len(AXIS_POINTS)
    yield 0, fidelity_from_bloch_batch(forms, AXIS_POINTS)
    last = n - n_axis  # sequence indices 1..last
    size = 1 << _TABLE_BITS
    table, ramp = _monomial_table(), np.arange(size, dtype=float)
    monomials, scratch, block_values = np.empty(10 * size), np.empty(4 * size), np.empty(size)
    limit, grouped = 8 * (ceiling + _PRUNE_MARGIN), np.empty((3, 10))
    for q, coeffs in enumerate(_period_coefficients(forms, offset, (last >> _TABLE_BITS) + 1)):
        base = q << _TABLE_BITS
        lo = max(1 - base, 0)  # j of this period's points: lo, ..., at most 4095
        count = min(last + 1 - base, size) - lo
        m = max(count, 2)
        hi = lo + m
        weights = w_low, w_cross, w_high = scratch[:m], scratch[m : 2 * m], scratch[2 * m : 3 * m]
        np.add(ramp[lo:hi], base, out=w_high)  # float(k), exactly
        _radial_coordinate(w_high, offset, scratch=w_low)
        np.subtract(1.0, w_high, out=w_low)
        np.multiply(w_high, w_low, out=w_cross)
        np.sqrt(w_cross, out=w_cross)
        block = monomials[: 10 * m].reshape(10, m)
        if limit < np.inf:
            np.multiply(coeffs[0], _WEIGHT_MASK, out=grouped)
            parts = np.matmul(grouped, table[:, lo:hi], out=block[:3])
            bound = np.multiply(parts[0], w_low, out=block_values[:m])
            for part, weight in zip(parts[1:], weights[1:]):
                part *= weight
                bound += part
            if not bound[:count].min() <= limit:  # a NaN bound keeps the period
                continue
            limit = np.inf
        for rows, weight in zip(_WEIGHT_ROWS, weights):
            np.multiply(table[rows, lo:hi], weight, out=block[rows])
        # the weights are spent, so h_a overwrites them
        hs = np.matmul(coeffs, block, out=scratch[: 4 * m].reshape(4, m))
        yield base + lo + n_axis - 1, kernels.fidelity_tail(hs, block_values[:m])[:count]


def _gram_witness(forms, det_form) -> tuple[float, float, np.ndarray]:
    """The ends of spec(Q)/8, Q = forms[0], and four unit Bloch points where f may meet the low end.

    h_0/8 = n^T Q n / 8 spans [lambda_min, lambda_max](Q)/8 on S^3, and the
    low end is the bound: ||S(n)||_F^2 = n^T Q n, and f(n) = lambda_max(S^dag
    S)/4 >= ||S||_F^2/8, so no kernel value lies below it.  It is tight:
    spec(Q)/8 is {|t_j|^2/4}, so the bound is the closed form's F(V), reached
    here without the decomposition or the t-vector.

    f(n) meets it exactly where n lies in the bottom eigenspace E of Q and
    the singular values of S(n) tie, that is, where |det S(n)| = |n^T D n|
    (``kernels._scan_forms``) is largest on E (Rayleigh-Ritz).  Row k-1, for k = 1..4,
    searches the span E_k of the first k eigenvectors: E_k c, where c is the
    top eigenvector of Re(e^{-i phi} E_k^T D E_k) at the grid angle phi whose
    top eigenvalue is largest; row 0 is the lowest eigenvector.  One row per
    k stands in for E, so no tolerance decides its dimension; the kernel
    picks the best.  One eigh of Q serves the range and the witness.
    """
    spectrum, vecs = np.linalg.eigh(forms[0])
    turns = np.exp(-1j * np.pi * np.arange(WITNESS_ANGLES) / WITNESS_ANGLES)[:, None, None]
    out = np.empty((4, 4))
    for k in range(1, 5):
        span = vecs[:, :k]
        tops, coeffs = np.linalg.eigh((turns * (span.T @ det_form @ span)).real)
        out[k - 1] = span @ coeffs[np.argmax(tops[:, -1]), :, -1]
    out /= np.linalg.norm(out, axis=1)[:, None]
    return float(spectrum[0]) / 8, float(spectrum[-1]) / 8, out


def minimax_scan(v, config: ScanConfig, trace_path=None) -> ScanResult:
    """Try the Gram witness, then sweep the target group for a lower value.

    The four witness candidates (``_gram_witness``) go through the kernel
    first, as one batch.  The sweep (``_sweep``) then covers every row of
    the ``sample_su2`` sample without building the rows, with the
    candidates' lowest value as its ceiling: it skips the periods whose
    rows' h_0/8 shows them all to lie above it, none of which could win
    below.  The scan keeps the row of the first minimum among the rows the
    sweep yields (axis rows first, ties to the lower row), the row a full
    sweep would keep whenever that row could win.  That row is rebuilt from its index
    and goes through the kernel in one call with the four candidates, so
    ``f_min`` is the kernel's value at ``worst_bloch``: the lowest of the
    five, ties to the sweep row.  The sweep takes no ceiling, so skips
    nothing, under a trace or where no point's h_0/8 lies above the
    ceiling, as on an optimal device (Q = 2 I).  ``trace_path`` optionally
    writes a CSV of (index, n0..n3, fidelity) for every sweep row, opened
    before the sweep; each block's rows are rebuilt (``_sample_rows``) and
    written as the block arrives.
    """
    forms, det_form = kernels._scan_forms(v)
    offset = _offset(config)
    lower_bound, top, candidates = _gram_witness(forms, det_form)
    ceiling = float(fidelity_from_bloch_batch(forms, candidates).min())
    if trace_path is not None or top <= ceiling + _PRUNE_MARGIN:
        ceiling = np.inf
    trace = contextlib.nullcontext() if trace_path is None else open(trace_path, "w", newline="")
    with trace as fh:
        writer = None if fh is None else csv.writer(fh)
        if writer is not None:
            writer.writerow(["index", "n0", "n1", "n2", "n3", "fidelity"])
        for start, values in _sweep(forms, offset, config.resolution, ceiling):
            j = int(values.argmin())
            if start == 0 or values[j] < lowest:
                lowest, best_row = values[j], start + j
            if writer is not None:
                rows = range(start, start + len(values))
                block = zip(rows, _sample_rows(offset, rows).tolist(), values.tolist())
                writer.writerows([i, *map(repr, p), repr(f)] for i, p, f in block)

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
    _check_count("sample count", n, cap=("MAX_SIGMA_SAMPLES", MAX_SIGMA_SAMPLES))
    _check_count("seed", seed)
    sigmas = _random_densities(np.random.default_rng(seed), n)
    return float(np.max(program_overlap(u, v, sigmas), initial=0.0))

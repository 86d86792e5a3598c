import numpy as np
import pytest

from helpers import einsum_fidelity_batch
from progchan import (
    ScanConfig,
    bloch_to_matrix,
    canonical_gate,
    haar_unitary,
    optimal_interaction,
    s_operator,
    sample_su2,
)
from progchan import _scan_py
from progchan.circuits import cnot, gate_matrix
from progchan.kernels import (
    backend_name,
    device_parts,
    fidelity_from_bloch,
    fidelity_from_bloch_batch,
)
from progchan.matops import hermitian_eig


# f <= 1, so a few ulps of 1 bounds the rounding of either formula
KERNEL_ATOL = 8 * np.finfo(float).eps


def reference_fidelity(v, n):
    """Per-point fidelity through the high-level API, no kernel involved."""
    s = s_operator(bloch_to_matrix(n), v)
    evals, _ = hermitian_eig(s.conj().T @ s)
    return evals[0] / 4.0


def random_points(rng, count):
    pts = rng.normal(size=(count, 4))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_backend_reported():
    assert backend_name() == "python"


def test_batch_matches_reference():
    rng = np.random.default_rng(0)
    v = haar_unitary(4, rng)
    parts = device_parts(v)
    pts = random_points(rng, 200)
    got = fidelity_from_bloch_batch(parts, pts)
    want = np.array([reference_fidelity(v, n) for n in pts])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_single_matches_batch():
    rng = np.random.default_rng(1)
    parts = device_parts(haar_unitary(4, rng))
    pts = random_points(rng, 10)
    batch = fidelity_from_bloch_batch(parts, pts)
    for n, f in zip(pts, batch):
        assert fidelity_from_bloch(parts, n) == pytest.approx(f, abs=1e-15)


def test_fallback_available_and_correct():
    rng = np.random.default_rng(2)
    v = haar_unitary(4, rng)
    parts = device_parts(v)
    pts = random_points(rng, 100)
    out = np.empty(100)
    _scan_py.fidelity_batch(parts, pts, out)
    want = np.array([reference_fidelity(v, n) for n in pts])
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_bad_shapes_rejected():
    rng = np.random.default_rng(4)
    parts = device_parts(haar_unitary(4, rng))
    with pytest.raises(ValueError):
        _scan_py.fidelity_batch(parts[:2], np.zeros((3, 4)), np.zeros(3))
    with pytest.raises(ValueError):
        _scan_py.fidelity_batch(parts, np.zeros((3, 5)), np.zeros(3))
    # out must be one float64 slot per point: no broadcast, no complex
    with pytest.raises(ValueError):
        _scan_py.fidelity_batch(parts, np.zeros((2, 4)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        _scan_py.fidelity_batch(parts, np.zeros((2, 4)), np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        _scan_py.fidelity_batch(parts, np.zeros((2, 4)), np.zeros(3))


def _reference_devices():
    rng = np.random.default_rng(5)
    devices = {f"haar{i}": haar_unitary(4, rng) for i in range(5)}
    devices["optimal"] = optimal_interaction(1, 1)
    devices["identity"] = canonical_gate([0.0, 0.0, 0.0])
    devices["cnot"] = gate_matrix(cnot())
    return devices


REFERENCE_DEVICES = _reference_devices()


@pytest.mark.parametrize("name", REFERENCE_DEVICES)
def test_kernel_matches_einsum_reference(name):
    v = REFERENCE_DEVICES[name]
    parts = device_parts(v)
    points = sample_su2(ScanConfig(resolution=100_000, seed=3))
    got = np.empty(len(points))
    _scan_py.fidelity_batch(parts, points, got)
    np.testing.assert_allclose(got, einsum_fidelity_batch(parts, points), rtol=0, atol=KERNEL_ATOL)
    # polish-sized batches take the same kernel
    for size in (1, 4, 12):
        batch = points[1000 : 1000 + size]
        np.testing.assert_allclose(
            fidelity_from_bloch_batch(parts, batch),
            einsum_fidelity_batch(parts, batch),
            rtol=0,
            atol=KERNEL_ATOL,
        )


def test_kernel_independent_of_layout():
    rng = np.random.default_rng(6)
    parts = device_parts(haar_unitary(4, rng))
    pts = random_points(rng, 50)
    want = np.empty(50)
    _scan_py.fidelity_batch(parts, pts, want)

    wide = np.zeros((4, 2, 4), dtype=complex)
    wide[:, :, ::2] = parts
    spread = np.zeros((50, 8))
    spread[:, ::2] = pts
    # C order, a strided last axis, Fortran order, and each 2x2 block transposed in memory
    blocks_t = parts.swapaxes(1, 2).copy().swapaxes(1, 2)
    layouts_parts = [parts, wide[:, :, ::2], np.asfortranarray(parts), blocks_t]
    # C order, strided columns, Fortran order, and negative row strides
    layouts_ns = [pts, spread[:, ::2], np.asfortranarray(pts), pts[::-1].copy()[::-1]]
    for p in layouts_parts:
        for ns in layouts_ns:
            got = np.empty(50)
            _scan_py.fidelity_batch(p, ns, got)
            np.testing.assert_array_equal(got, want)
    # a strided out is filled in place
    slots = np.zeros(100)
    _scan_py.fidelity_batch(parts, pts, slots[::2])
    np.testing.assert_array_equal(slots[::2], want)
    assert not slots[1::2].any()


def test_kernel_split_invariant():
    # two full blocks and a short tail, so splits fall inside and across block edges
    block = _scan_py._BLOCK
    n = 2 * block + 3
    rng = np.random.default_rng(7)
    parts = device_parts(haar_unitary(4, rng))
    pts = random_points(rng, n)
    want = fidelity_from_bloch_batch(parts, pts)
    # distinct even cuts leave pieces of at least two rows
    even_cuts = np.sort(rng.choice(np.arange(2, n - 1, 2), size=40, replace=False))
    for cuts in ([block - 1, block + 1, 2 * block], [2, block, 2 * block + 1], even_cuts):
        got = np.concatenate([fidelity_from_bloch_batch(parts, p) for p in np.split(pts, cuts)])
        np.testing.assert_array_equal(got, want)
    # one block and one row more: the row must not be left to a batch of its own
    for start in range(0, n - block - 1, 409):
        piece = slice(start, start + block + 1)
        np.testing.assert_array_equal(fidelity_from_bloch_batch(parts, pts[piece]), want[piece])
    # a single row takes numpy's vector-matrix product, which may round differently
    rows = rng.choice(n, size=200, replace=False)
    single = [fidelity_from_bloch(parts, pts[i]) for i in rows]
    np.testing.assert_allclose(single, want[rows], rtol=0, atol=KERNEL_ATOL)

import numpy as np
import pytest

from progchan import bloch_to_matrix, haar_unitary, s_operator
from progchan import _scan_py
from progchan.kernels import (
    backend_name,
    device_parts,
    fidelity_from_bloch,
    fidelity_from_bloch_batch,
)
from progchan.matops import hermitian_eig


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

import numpy as np
import pytest

from helpers import (
    ADVERSARIAL_ALPHAS,
    ADVERSARIAL_SCALES,
    adversarial_devices,
    bloch_parts,
    det_form,
    dressed,
    einsum_fidelity_batch,
    parts_and_forms,
    perfbench_inputs,
    random_chamber_alpha,
)
from progchan import (
    PAULI,
    ScanConfig,
    bloch_to_matrix,
    canonical_gate,
    haar_unitary,
    minimax_scan,
    optimal_interaction,
    s_operator,
    sample_su2,
)
from progchan import _scan_py, kernels, minimax
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


def test_scan_py_is_an_alias_of_the_kernel():
    # the benchmark harness imports the kernel under its old module name
    assert _scan_py.fidelity_batch is kernels.fidelity_batch


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
    kernels.fidelity_batch(parts, pts, out)
    want = np.array([reference_fidelity(v, n) for n in pts])
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_bad_shapes_rejected():
    rng = np.random.default_rng(4)
    parts = device_parts(haar_unitary(4, rng))
    with pytest.raises(ValueError):
        kernels.fidelity_batch(parts[:2], np.zeros((3, 4)), np.zeros(3))
    with pytest.raises(ValueError):
        kernels.fidelity_batch(parts, np.zeros((3, 5)), np.zeros(3))
    # out must be one float64 slot per point: no broadcast, no complex
    with pytest.raises(ValueError):
        kernels.fidelity_batch(parts, np.zeros((2, 4)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        kernels.fidelity_batch(parts, np.zeros((2, 4)), np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        kernels.fidelity_batch(parts, np.zeros((2, 4)), np.zeros(3))


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
    kernels.fidelity_batch(parts, points, got)
    kraus = bloch_parts(v)
    np.testing.assert_allclose(got, einsum_fidelity_batch(kraus, points), rtol=0, atol=KERNEL_ATOL)
    # witness-sized batches take the same kernel
    for size in (1, 4, 12):
        batch = points[1000 : 1000 + size]
        np.testing.assert_allclose(
            fidelity_from_bloch_batch(parts, batch),
            einsum_fidelity_batch(kraus, batch),
            rtol=0,
            atol=KERNEL_ATOL,
        )


def test_kernel_independent_of_layout():
    rng = np.random.default_rng(6)
    parts = device_parts(haar_unitary(4, rng))
    pts = random_points(rng, 50)
    want = np.empty(50)
    kernels.fidelity_batch(parts, pts, want)

    wide = np.zeros((4, 4, 8))
    wide[:, :, ::2] = parts
    spread = np.zeros((50, 8))
    spread[:, ::2] = pts
    # the forms in C order, Fortran order, with a strided last axis, and
    # each form transposed in memory
    forms_t = parts.swapaxes(1, 2).copy().swapaxes(1, 2)
    layouts_parts = [parts, np.asfortranarray(parts), wide[:, :, ::2], forms_t]
    # C order, strided columns, Fortran order, and negative row strides
    layouts_ns = [pts, spread[:, ::2], np.asfortranarray(pts), pts[::-1].copy()[::-1]]
    for p in layouts_parts:
        for ns in layouts_ns:
            got = np.empty(50)
            kernels.fidelity_batch(p, ns, got)
            np.testing.assert_array_equal(got, want)
    # a strided out is filled in place
    slots = np.zeros(100)
    kernels.fidelity_batch(parts, pts, slots[::2])
    np.testing.assert_array_equal(slots[::2], want)
    assert not slots[1::2].any()


def test_kernel_split_invariant():
    # 2 * 4096 + 3 rows, so that splits fall inside and across rows 4096 and 8192
    n = 2 * 4096 + 3
    rng = np.random.default_rng(7)
    parts = device_parts(haar_unitary(4, rng))
    pts = random_points(rng, n)
    want = fidelity_from_bloch_batch(parts, pts)
    # distinct even cuts leave pieces of at least two rows
    even_cuts = np.sort(rng.choice(np.arange(2, n - 1, 2), size=40, replace=False))
    for cuts in ([4095, 4097, 8192], [2, 4096, 8193], even_cuts):
        got = np.concatenate([fidelity_from_bloch_batch(parts, p) for p in np.split(pts, cuts)])
        np.testing.assert_array_equal(got, want)
    # pieces of 4096 + 1 rows
    for start in range(0, n - 4097, 409):
        piece = slice(start, start + 4097)
        np.testing.assert_array_equal(fidelity_from_bloch_batch(parts, pts[piece]), want[piece])
    # a single row takes numpy's vector-matrix product, which may round differently
    rows = rng.choice(n, size=200, replace=False)
    single = [fidelity_from_bloch(parts, pts[i]) for i in rows]
    np.testing.assert_allclose(single, want[rows], rtol=0, atol=KERNEL_ATOL)


def test_one_call_equals_4096_row_calls():
    # a 200k-row batch is one product, and gives the bits of 4096-row batches
    rng = np.random.default_rng(12)
    points = sample_su2(ScanConfig(resolution=200_000, seed=12))
    for v in (haar_unitary(4, rng), optimal_interaction(1, 1)):
        parts = device_parts(v)
        got = np.empty(len(points))
        kernels.fidelity_batch(parts, points, got)
        pieces = [fidelity_from_bloch_batch(parts, points[a : a + 4096]) for a in range(0, 200_000, 4096)]
        np.testing.assert_array_equal(got, np.concatenate(pieces))


class TestForms:
    """The device's real quadratic forms, against S(n) built by ``s_operator``."""

    @staticmethod
    def devices():
        rng = np.random.default_rng(8)
        devices = [haar_unitary(4, rng) for _ in range(20)] + adversarial_devices(rng, 1)
        devices += [canonical_gate(alpha) for alpha in ADVERSARIAL_ALPHAS.values()]
        return devices + [optimal_interaction(1, -1), np.eye(4, dtype=complex), gate_matrix(cnot())]

    def test_forms_give_pauli_components_of_s_dag_s(self):
        rng = np.random.default_rng(9)
        for v in self.devices():
            forms = device_parts(v)
            assert forms.shape == (4, 4, 4) and forms.dtype == np.float64
            for n in random_points(rng, 5):
                s = s_operator(bloch_to_matrix(n), v)
                h = s.conj().T @ s
                want = [np.trace(p @ h).real for p in PAULI]
                np.testing.assert_allclose([n @ q @ n for q in forms], want, rtol=0, atol=1e-14)

    def test_trace_of_gram_form(self):
        # tr Q_0 = sum_mu ||K_mu||_F^2 = 8 for a unitary device, to a few ulps
        # of 8: a dressed device is a product of five rounded unitaries
        for v in self.devices():
            assert abs(np.trace(device_parts(v)[0]) - 8) <= 16 * np.spacing(8.0)

    def test_s_dag_s_scalar_at_witness(self):
        # at the scan's witness f meets lambda_min(Q_0)/8, so the Pauli
        # components of S^dag S vanish: S^dag S is a multiple of I.  The
        # witness is the lowest eigenvector of Q_0, whose rounding grows as
        # 1/gap for the gap to the next eigenvalue: on 1000 Haar devices
        # |h| reached 6.5e-14 but |h| * gap stayed below 2.1e-15
        rng = np.random.default_rng(10)
        for k in range(100):
            v = haar_unitary(4, rng)
            forms = device_parts(v)
            n = minimax_scan(v, ScanConfig(resolution=1000, seed=k)).worst_bloch
            spectrum = np.linalg.eigvalsh(forms[0])
            h = np.linalg.norm([n @ q @ n for q in forms[1:]])
            assert h * (spectrum[1] - spectrum[0]) <= 1e-14

    @staticmethod
    def same_bits(a, b):
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_parts_are_s_of_the_bloch_basis(self):
        v = haar_unitary(4, np.random.default_rng(18))
        parts = minimax._s(kernels._BLOCH_BASIS, v)
        assert parts.shape == (4, 2, 2)
        assert all(np.array_equal(k, s_operator(b, v)) for k, b in zip(parts, kernels._BLOCH_BASIS))
        assert not kernels._BLOCH_BASIS.flags.writeable

    def test_scan_forms_keep_the_einsum_bits(self):
        # parts_and_forms builds the K_mu by einsum("mab,ajbl->mjl", basis, v^*),
        # the formula the K_mu had before they became S of the Bloch basis
        rng = np.random.default_rng(19)
        devices = [haar_unitary(4, rng) for _ in range(100)]
        devices += [canonical_gate(random_chamber_alpha(rng)) for _ in range(100)]
        devices += [dressed(random_chamber_alpha(rng), rng) for _ in range(100)]
        inputs = perfbench_inputs()
        for seed, mix in ((7, inputs.ORACLE_MIX), (11, inputs.CLOSED_FORM_MIX)):
            stream = inputs.device_stream(seed, mix)
            devices += [next(stream).v for _ in range(300)]
        for v in devices:
            forms, det = kernels._scan_forms(v)
            parts, want = parts_and_forms(v)
            assert self.same_bits(forms, want)
            assert self.same_bits(det, det_form(parts))

    def test_scan_forms_match_reference_bit_for_bit(self):
        # Q and D from one validated read of v, against the route that built
        # the K_mu once for Q and unpacked their entries again for D
        inputs = perfbench_inputs()
        stream = inputs.device_stream(7, inputs.ORACLE_MIX)
        devices = [next(stream).v for _ in range(200)]
        # the devices of test_decompose.py::TestAdversarialSet
        for i, alpha in enumerate(ADVERSARIAL_ALPHAS.values()):
            rng = np.random.default_rng(i)
            for scale in ADVERSARIAL_SCALES:
                devices += [
                    dressed(np.array(alpha) + scale * rng.uniform(-1, 1, 3), rng) for _ in range(15)
                ]
        for v in devices:
            forms, det = kernels._scan_forms(v)
            parts, want = parts_and_forms(v)
            assert self.same_bits(forms, want)
            assert self.same_bits(device_parts(v), want)
            assert self.same_bits(det, det_form(parts))

import numpy as np
import pytest
from helpers import brute_partial_trace

from progchan import (
    CanonicalForm,
    ContractError,
    DimensionError,
    KrausChannel,
    ScanConfig,
    apply_programmed,
    avg_io_fidelity,
    bloch_to_matrix,
    canonical_gate,
    channel_fidelity,
    circuits,
    controlled_unitary_worst,
    covariance_transform,
    equal_up_to_global_phase,
    fidelity_uv,
    haar_unitary,
    hadamard_t,
    kraus_cirac_decompose,
    kron,
    matrix_to_bloch,
    matrix_to_obj,
    minimax_scan,
    partial_trace,
    program_channel,
    program_overlap,
    random_density,
    s_operator,
    sigma_dominance_check,
    theta_from_alpha,
    worst_case_fidelity,
)
from progchan.kernels import device_parts
from progchan.matops import (
    DECOMP_TOL,
    _min_eigenvalue_2x2,
    _real_array,
    assert_density,
    assert_unitary,
    density_mask,
    hermitian_eig,
)
from progchan.minimax import alpha_from_theta
from progchan.pauli import hadamard_t_contract, pauli, wrap_phase

I2 = np.eye(2)
I4 = np.eye(4)
# finite, but their products overflow
BIG2 = 1e200 * I2
BIG4 = 1e200 * I4


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), I4)

    def test_xx_antidiagonal(self):
        np.testing.assert_array_equal(kron(pauli(1), pauli(1)), np.fliplr(I4))

    def test_zz_transpose(self):
        np.testing.assert_array_equal(kron(pauli(3), pauli(3).T), np.diag([1, -1, -1, 1]))

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            np.testing.assert_allclose(lhs, kron(a @ c, b @ d), atol=1e-12)

    def test_dimension_overflow(self):
        with pytest.raises(DimensionError):
            kron(I4, I2)
        with pytest.raises(DimensionError):
            kron(I4, I4)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            kron(np.ones((2, 3)), I2)


class TestPartialTrace:
    def test_factorized(self):
        rng = np.random.default_rng(1)
        sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        proj = np.array([[1, 0], [0, 0]], dtype=complex)
        np.testing.assert_allclose(
            partial_trace(kron(proj, sigma), 2), np.trace(sigma) * proj, atol=1e-14
        )

    def test_identity(self):
        np.testing.assert_allclose(partial_trace(I4, 1), 2 * I2, atol=1e-15)

    def test_against_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for sub in (1, 2):
                np.testing.assert_allclose(
                    partial_trace(m, sub), brute_partial_trace(m, sub), atol=1e-13
                )

    def test_kron_collapses_to_trace(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        np.testing.assert_allclose(partial_trace(kron(a, b), 2), np.trace(b) * a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(kron(a, b), 1), np.trace(a) * b, atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert abs(np.trace(partial_trace(m, 2)) - np.trace(m)) < 1e-12

    def test_wrong_dim(self):
        with pytest.raises(DimensionError):
            partial_trace(I2, 2)
        with pytest.raises(DimensionError):
            partial_trace(I4, 3)

    @pytest.mark.parametrize("subsystem", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_subsystem(self, subsystem):
        with pytest.raises(DimensionError, match="subsystem must be 1 or 2"):
            partial_trace(I4, subsystem)

    def test_numpy_integer_subsystem(self):
        np.testing.assert_array_equal(partial_trace(I4, np.int64(1)), partial_trace(I4, 1))


class TestVectorize:
    """kron's index order matches row-major vectorization, vec(X) = X.reshape(-1)."""

    def test_sandwich_identity(self):
        # (A x B^T) vec(X) = vec(A X B)
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b, x = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            lhs = kron(a, b.T) @ x.reshape(-1)
            np.testing.assert_allclose(lhs, (a @ x @ b).reshape(-1), atol=1e-13)


class TestHermitianEig:
    def test_pauli_z(self):
        evals, vecs = hermitian_eig(pauli(3))
        np.testing.assert_allclose(evals, [1, -1], atol=1e-15)
        np.testing.assert_allclose(np.abs(vecs), I2, atol=1e-15)

    def test_degenerate_identity(self):
        evals, vecs = hermitian_eig(I4)
        np.testing.assert_allclose(evals, np.ones(4), atol=1e-15)
        np.testing.assert_allclose(vecs.conj().T @ vecs, I4, atol=1e-12)

    def test_construct_then_decompose(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4):
            for _ in range(50):
                q = haar_unitary(dim, rng)
                lam = np.sort(rng.normal(size=dim))[::-1]
                h = q @ np.diag(lam) @ q.conj().T
                evals, vecs = hermitian_eig(h)
                np.testing.assert_allclose(evals, lam, atol=1e-10)
                np.testing.assert_allclose(
                    vecs @ np.diag(evals) @ vecs.conj().T, h, atol=1e-10
                )
                np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)

    def test_descending_and_deterministic(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 4))
        h = h + h.T
        e1, v1 = hermitian_eig(h)
        e2, v2 = hermitian_eig(h.copy())
        assert np.all(np.diff(e1) <= 0)
        np.testing.assert_array_equal(v1, v2)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestOperatorNorm:
    def test_unitary_norm_one(self):
        rng = np.random.default_rng(10)
        for dim in (2, 4):
            for _ in range(20):
                assert np.linalg.norm(haar_unitary(dim, rng), 2) == pytest.approx(1.0, abs=1e-10)


class TestPredicates:
    """The input contract accepts and rejects what the old predicates did."""

    def test_basic(self):
        nan = np.full((2, 2), np.nan)
        np.testing.assert_array_equal(assert_unitary(pauli(2), 2), pauli(2))
        for bad in (2 * I2, nan):
            with pytest.raises(ContractError, match="is not unitary"):
                assert_unitary(bad, 2)
        hermitian_eig(pauli(1))
        for bad in (1j * pauli(1), nan):
            with pytest.raises(ContractError, match="requires a Hermitian matrix"):
                hermitian_eig(bad)
        np.testing.assert_array_equal(assert_density(I2 / 2), I2 / 2)
        for bad in (I2, np.diag([1.5, -0.5]), nan):
            with pytest.raises(ContractError, match="is not a valid density matrix"):
                assert_density(bad)


def rotated(rng, low):
    """U diag(1 - low, low) U^dag for a Haar U: unit trace, smallest eigenvalue low."""
    u = haar_unitary(2, rng)
    return u @ np.diag([1.0 - low, low]) @ u.conj().T


def eigvalsh_min(ms):
    return np.linalg.eigvalsh((ms + ms.conj().swapaxes(-1, -2)) / 2)[:, 0]


class TestDensityMask:
    """The closed-form smallest eigenvalue decides as eigvalsh does."""

    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(20)
        states = [random_density(rng) for _ in range(400)]
        states += [rotated(rng, 0.0) for _ in range(200)]  # pure
        states += [rotated(rng, low) for low in rng.uniform(-0.5, 0.5, 400)]
        ms = np.array(states)
        np.testing.assert_allclose(_min_eigenvalue_2x2(ms), eigvalsh_min(ms), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(density_mask(ms), eigvalsh_min(ms) >= -DECOMP_TOL)

    def test_tolerance_boundary(self):
        rng = np.random.default_rng(21)
        lows = np.repeat([-DECOMP_TOL + 1e-12, -DECOMP_TOL - 1e-12], 50)
        ms = np.array([rotated(rng, low) for low in lows])
        expected = eigvalsh_min(ms) >= -DECOMP_TOL
        np.testing.assert_array_equal(expected, lows > -DECOMP_TOL)
        np.testing.assert_array_equal(density_mask(ms), expected)

    def test_matches_full_matrix_tests(self):
        """The per-entry Hermitian and trace tests decide as the whole-matrix ones do."""
        rng = np.random.default_rng(23)
        ms = np.array([random_density(rng) for _ in range(2000)])
        # shift single entries to just inside, at and just past each tolerance
        steps = DECOMP_TOL * np.array([0.5 - 1e-6, 0.5, 0.5 + 1e-6, 1 - 1e-6, 1.0, 1 + 1e-6])
        for k, m in enumerate(ms):
            i, j = divmod(k % 4, 2)
            step = steps[k % len(steps)] * (1 if k % 3 else -1)
            m[i, j] += step * (1j if k % 5 < 3 else 1.0)
        tol = DECOMP_TOL
        full = (np.abs(ms - ms.conj().swapaxes(-1, -2)) <= tol).all(axis=(-2, -1))
        trace = np.trace(ms, axis1=-2, axis2=-1)
        full &= (np.abs(trace.real - 1.0) <= tol) & (np.abs(trace.imag) <= tol)
        full &= _min_eigenvalue_2x2(ms) >= -tol
        assert 0 < full.sum() < len(ms)
        np.testing.assert_array_equal(density_mask(ms), full)

    @pytest.mark.parametrize(
        "bad",
        [
            {3: np.diag([1.2, -0.2]), 7: np.diag([1.1, -0.1])},
            {2: np.diag([0.6, 0.6]), 6: np.diag([1.2, -0.2])},
            {1: np.diag([1.2, -0.2]), 4: np.array([[0.5, 0.3], [0.1, 0.5]])},
            {5: np.full((2, 2), np.nan)},
            {4: np.diag([np.inf, 0.5])},
            {2: np.array([[0.5, np.inf], [np.inf, 0.5]]), 6: np.full((2, 2), np.nan)},
            {3: np.array([[0.5, 0.0], [-np.inf, 0.5]]), 8: np.diag([1.2, -0.2])},
        ],
        ids=[
            "two-negative",
            "trace-then-negative",
            "negative-then-hermitian",
            "nan",
            "inf",
            "inf-pair-then-nan",
            "inf-then-negative",
        ],
    )
    def test_stack_names_first_bad_state(self, bad):
        rng = np.random.default_rng(22)
        ms = np.array([random_density(rng) for _ in range(9)])
        for i, state in bad.items():
            ms[i] = state
        first = min(bad)
        with pytest.raises(ContractError, match=f"^program state {first} is not"):
            assert_density(ms, name="program state")


class TestGlobalPhase:
    def test_sign(self):
        assert equal_up_to_global_phase(I2, -I2, 1e-12)

    def test_distinct(self):
        assert not equal_up_to_global_phase(pauli(1), pauli(3), 1e-12)

    def test_random_phase(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = haar_unitary(4, rng)
            assert equal_up_to_global_phase(v, np.exp(1j * np.pi / 7) * v, 1e-12)
            assert not equal_up_to_global_phase(v, haar_unitary(4, rng), 1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            equal_up_to_global_phase(I2, I4, 1e-12)


class TestInputContract:
    """A matrix of the wrong size for its role is a DimensionError that names
    the argument, raised before any arithmetic."""

    STACK = np.stack([I2 / 2] * 3)

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: device_parts(I2), "joint unitary"),
            (lambda: channel_fidelity(I4, KrausChannel((I2,))), "target unitary"),
            (lambda: covariance_transform(I2, I4, I2, I2, I2, I4), "w1"),
            (lambda: covariance_transform(I2, I2, I2, I2, I2, I2), "joint unitary"),
            (lambda: circuits.local(0, I4), "local gate"),
            (lambda: matrix_to_bloch(I4), "bloch input"),
            (lambda: program_overlap(I2, I4, I4 / 4), "program state"),
            (lambda: program_channel(I4, TestInputContract.STACK), "program state"),
            (lambda: apply_programmed(I4, TestInputContract.STACK, I2 / 2), "program state"),
            (lambda: apply_programmed(I4, I2 / 2, TestInputContract.STACK), "input state"),
            (lambda: KrausChannel((I4,)), "Kraus operator"),
            (lambda: bloch_to_matrix(I2 / np.sqrt(2)), "Bloch vector"),
            (lambda: KrausChannel((I2,)).apply(np.ones((2, 2, 2))), "input state"),
            (lambda: KrausChannel((I2,)).apply(np.eye(3)), "input state must be 2x2, got 3x3"),
        ],
        ids=[
            "device_parts",
            "channel_fidelity",
            "covariance_transform",
            "covariance_transform_device",
            "local_gate",
            "matrix_to_bloch",
            "program_overlap",
            "program_channel_stack",
            "apply_programmed_sigma_stack",
            "apply_programmed_rho_stack",
            "kraus_operator",
            "bloch_to_matrix_2x2",
            "kraus_apply_stack",
            "kraus_apply_3x3",
        ],
    )
    def test_wrong_size(self, call, named):
        with pytest.raises(DimensionError, match=named):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: worst_case_fidelity(BIG4),
            lambda: kraus_cirac_decompose(BIG4),
            lambda: s_operator(I2, BIG4),
            lambda: fidelity_uv(BIG2, I4),
            lambda: program_overlap(I2, BIG4, I2 / 2),
            lambda: program_channel(BIG4, I2 / 2),
            lambda: channel_fidelity(BIG2, KrausChannel((I2,))),
            lambda: matrix_to_bloch(BIG2),
            lambda: minimax_scan(BIG4, ScanConfig(resolution=100, sigma_samples=0)),
            lambda: covariance_transform(BIG2, I2, I2, I2, I2, I4),
            lambda: controlled_unitary_worst(BIG2, I2),
            lambda: circuits.local(0, BIG2),
            lambda: apply_programmed(BIG4, I2 / 2, I2 / 2),
            lambda: sigma_dominance_check(I2, BIG4, 10),
            lambda: bloch_to_matrix([1e200, 0, 0, 0]),
        ],
        ids=[
            "worst_case_fidelity",
            "kraus_cirac_decompose",
            "s_operator",
            "fidelity_uv",
            "program_overlap",
            "program_channel",
            "channel_fidelity",
            "matrix_to_bloch",
            "minimax_scan",
            "covariance_transform",
            "controlled_unitary_worst",
            "local_gate",
            "apply_programmed",
            "sigma_dominance_check",
            "bloch_to_matrix",
        ],
    )
    def test_entry_beyond_bound(self, call):
        """Rejected before any product can overflow: tier-1 turns numpy's
        overflow warning into an error, so only the check can pass."""
        with pytest.raises(ContractError):
            call()

    def test_wrong_size_is_broken_contract(self):
        assert issubclass(DimensionError, ContractError)
        assert issubclass(DimensionError, ValueError)

    EYE2 = (I2,) * 4

    @pytest.mark.parametrize(
        "call, error, match",
        [
            # the signs are checked before any gate is built
            (lambda: circuits.build_optimal_circuit(None, 1), ContractError, "signs must be"),
            (lambda: circuits.build_optimal_circuit("a", 1), ContractError, "signs must be"),
            (lambda: circuits.build_optimal_circuit(np.nan, 1), ContractError, "signs must be"),
            # a complex entry is refused, never cast to its real part
            (lambda: theta_from_alpha(np.array([0.1 + 1j, 0, 0])), ContractError, "alpha must hold real"),
            (lambda: theta_from_alpha([0.1 + 1j, 0, 0]), ContractError, "alpha must hold real"),
            (lambda: canonical_gate(np.array([0.1 + 1j, 0, 0])), ContractError, "alpha must hold real"),
            (lambda: hadamard_t(np.array([0.1 + 2j, 0, 0, 0])), ContractError, "phase vector must hold real"),
            (lambda: hadamard_t([0.1, 0, 0, 0j]), ContractError, "phase vector must hold real"),
            (lambda: bloch_to_matrix(np.array([1 + 1j, 0, 0, 0])), ContractError, "Bloch vector must hold real"),
            (lambda: bloch_to_matrix([1, 0, 0, "0"]), ContractError, "Bloch vector must hold real"),
            (lambda: CanonicalForm([1j, 0, 0], *TestInputContract.EYE2), ContractError, "alpha must hold real"),
            (lambda: wrap_phase(np.array([0.1 + 1j])), ContractError, "phase must hold real"),
            (lambda: alpha_from_theta(np.array([0.1 + 1j, 0, 0, 0])), ContractError, "phase vector must hold real"),
            (lambda: hadamard_t_contract(np.array([0.1 + 1j, 0, 0, 0])), ContractError, "phase vector must hold real"),
            (lambda: CanonicalForm([1, 2], *TestInputContract.EYE2), DimensionError, "alpha must have 3"),
            # only what load_matrix reads back is written
            (lambda: matrix_to_obj(np.eye(3)), DimensionError, "matrix must be 2x2 or 4x4"),
            (lambda: matrix_to_obj([1, 2]), DimensionError, "matrix must be square"),
            # a string is no number, though numpy's complex cast parses it
            (lambda: matrix_to_obj([["1", "0"], ["0", "1"]]), ContractError, "matrix must hold numbers"),
            (lambda: assert_unitary(np.array([[b"1", b"0"], [b"0", b"1"]]), 2), ContractError, "must hold numbers"),
            (lambda: kron(np.array([[1, None], [0, 1]]), np.eye(2)), ContractError, "must hold numbers"),
            (lambda: avg_io_fidelity(0.5, 10**400), ContractError, "dimension must be"),
        ],
        ids=[
            "optimal_circuit_none",
            "optimal_circuit_str",
            "optimal_circuit_nan",
            "theta_from_alpha_complex",
            "theta_from_alpha_complex_list",
            "canonical_gate_complex",
            "hadamard_t_complex",
            "hadamard_t_complex_zero",
            "bloch_to_matrix_complex",
            "bloch_to_matrix_str",
            "canonical_form_complex",
            "wrap_phase_complex",
            "alpha_from_theta_complex",
            "hadamard_t_contract_complex",
            "canonical_form_two_alpha",
            "matrix_to_obj_3x3",
            "matrix_to_obj_vector",
            "matrix_to_obj_str",
            "assert_unitary_bytes",
            "kron_object",
            "avg_io_fidelity_huge_dim",
        ],
    )
    def test_broken_contract(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_real_array_keeps_real_input(self):
        x = np.array([0.1, -0.2, 0.3])
        assert _real_array(x, "x") is x
        np.testing.assert_array_equal(_real_array([1, 2**70, 0.5], "x"), [1.0, 2.0**70, 0.5])
        # a matrix of numbers of any kind, Python ints beyond int64 too, is still read
        assert matrix_to_obj([[2**70, 0], [0, True]])["rows"] == [[[2.0**70, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        # a float dimension stays accepted; an integer one up to float range too
        assert avg_io_fidelity(0.5, 2.0) == avg_io_fidelity(0.5, 2)
        assert avg_io_fidelity(0.5, 10**300) == (1 + 10**300 * 0.5) / (10**300 + 1.0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progchan import (
    HADAMARD,
    ContractError,
    DimensionError,
    TVector,
    bloch_to_matrix,
    equal_up_to_global_phase,
    haar_unitary,
    hadamard_t,
    matrix_to_bloch,
    pauli,
)
from progchan.pauli import hadamard_t_contract, wrap_phase

angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
theta_vectors = st.lists(angles, min_size=4, max_size=4).map(np.array)


class TestPauli:
    def test_values(self):
        np.testing.assert_array_equal(pauli(0), np.eye(2))
        np.testing.assert_array_equal(pauli(2), [[0, -1j], [1j, 0]])

    def test_involutions(self):
        for j in range(4):
            np.testing.assert_allclose(pauli(j) @ pauli(j), np.eye(2), atol=1e-15)

    def test_bad_index(self):
        with pytest.raises(DimensionError):
            pauli(4)
        # bool and non-integral indices, even ones equal to a valid index
        bad = (True, False, np.True_, np.False_, 1.0, np.float64(2.0), -1, np.int64(4), "1", None)
        for j in bad:
            with pytest.raises(DimensionError, match="Pauli index must be 0..3"):
                pauli(j)
        np.testing.assert_array_equal(pauli(np.int64(2)), pauli(2))
        np.testing.assert_array_equal(pauli(np.uint8(3)), pauli(3))


class TestEpsilonSign:
    def test_against_matrix_products(self):
        # sigma_j sigma_l sigma_j = -sigma_l exactly when j, l are distinct and non-zero
        for j in range(4):
            for l in range(4):
                sign = 1 if j == 0 or l in (0, j) else -1
                lhs = pauli(j) @ pauli(l) @ pauli(j)
                np.testing.assert_allclose(lhs, sign * pauli(l), atol=1e-15)


class TestBloch:
    def test_identity(self):
        np.testing.assert_allclose(bloch_to_matrix([1, 0, 0, 0]), np.eye(2), atol=1e-15)

    def test_z_axis(self):
        np.testing.assert_allclose(bloch_to_matrix([0, 0, 0, 1]), 1j * pauli(3), atol=1e-15)

    def test_round_trip_haar(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = haar_unitary(2, rng)
            n = matrix_to_bloch(u)
            assert abs(n @ n - 1.0) < 1e-12
            assert equal_up_to_global_phase(bloch_to_matrix(n), u, 1e-10)

    def test_round_trip_from_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.normal(size=4)
            n /= np.linalg.norm(n)
            back = matrix_to_bloch(bloch_to_matrix(n))
            assert min(np.linalg.norm(back - n), np.linalg.norm(back + n)) < 1e-12

    def test_off_sphere_rejected(self):
        with pytest.raises(ContractError):
            bloch_to_matrix([1, 1, 0, 0])

    def test_nan_rejected(self):
        with pytest.raises(ContractError, match="not on S\\^3"):
            bloch_to_matrix([np.nan, 0, 0, 0])

    def test_non_unitary_rejected(self):
        with pytest.raises(ContractError):
            matrix_to_bloch(np.array([[1, 1], [0, 1]], dtype=complex))


class TestWrapPhase:
    def test_interval(self):
        out = wrap_phase([3 * np.pi, -np.pi, np.pi, 0.0])
        np.testing.assert_allclose(out, [np.pi, np.pi, np.pi, 0.0], atol=1e-12)


class TestHadamardT:
    @pytest.mark.parametrize(
        "theta",
        [
            [0.0, np.pi / 2, np.pi, np.pi / 2],
            [0.0, -np.pi / 2, np.pi, -np.pi / 2],
            [0.0, -np.pi / 2, -np.pi, -np.pi / 2],
        ],
    )
    def test_flat_phase_certificate(self, theta):
        np.testing.assert_allclose(hadamard_t(theta).moduli, np.ones(4), atol=1e-12)

    def test_zero_interaction(self):
        t = hadamard_t(np.zeros(4))
        np.testing.assert_allclose(t.t, [2, 0, 0, 0], atol=1e-15)

    def test_eighth_turn_pattern(self):
        # both routes evaluated independently pin |t|^2 = (2+sqrt2, 2-sqrt2, 0, 0)
        theta = np.array([np.pi / 8, np.pi / 8, -np.pi / 8, -np.pi / 8])
        t = hadamard_t(theta)
        np.testing.assert_allclose(t.t, hadamard_t_contract(theta), atol=1e-12)
        expected = np.array([2 + np.sqrt(2), 2 - np.sqrt(2), 0.0, 0.0])
        np.testing.assert_allclose(t.moduli**2, expected, atol=1e-12)

    def test_hadamard_orthogonal(self):
        np.testing.assert_allclose(HADAMARD @ HADAMARD.T, np.eye(4), atol=1e-15)

    @settings(max_examples=250, deadline=None)
    @given(theta_vectors)
    def test_invariants_random_theta(self, theta):
        t = hadamard_t(theta)
        assert abs(np.sum(t.moduli**2) - 4.0) < 1e-10
        assert t.moduli.min() <= 1.0 + 1e-12
        np.testing.assert_allclose(t.t, hadamard_t_contract(theta), atol=1e-12)

    def test_zero_modulus_phase_is_zero(self):
        t = hadamard_t([np.pi / 8, np.pi / 8, -np.pi / 8, -np.pi / 8])
        assert t.phases[2] == 0.0
        assert t.phases[3] == 0.0

    def test_pair_matrix_symmetry(self):
        t = hadamard_t([0.3, -1.2, 0.7, 2.2])
        T = t.pair_matrix()
        np.testing.assert_allclose(T, T.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(T), np.zeros(4), atol=1e-15)

    def test_invalid_vector_rejected(self):
        with pytest.raises(ContractError):
            TVector(np.array([2.0, 2.0, 0.0, 0.0]))
        with pytest.raises(DimensionError):
            hadamard_t([0.0, 1.0])

    def test_nan_rejected(self):
        with pytest.raises(ContractError, match="must be 4"):
            TVector([np.nan] * 4)

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import pauli

from progchan import (
    HADAMARD,
    ContractError,
    DimensionError,
    TVector,
    bloch_to_matrix,
    canonical_gate,
    equal_up_to_global_phase,
    haar_unitary,
    hadamard_t,
    matrix_to_bloch,
    theta_from_alpha,
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


class TestStacks:
    """The closed-form chain on a (..., 3) stack gives, bit for bit, what it gives on each row."""

    @staticmethod
    def _stack(shape):
        rng = np.random.default_rng(5)
        return rng.uniform(-np.pi, np.pi, shape + (3,))

    @pytest.mark.parametrize("shape", [(300,), (2, 5)])
    def test_stack_equals_its_rows(self, shape):
        alpha = self._stack(shape)
        theta = theta_from_alpha(alpha)
        t = hadamard_t(theta)
        assert theta.shape == shape + (4,) and t.t.shape == shape + (4,)
        assert t.pair_matrix().shape == shape + (4, 4)
        for index in np.ndindex(*shape):
            row_theta = theta_from_alpha(alpha[index])
            row_t = hadamard_t(row_theta)
            assert np.array_equal(theta[index], row_theta)
            assert np.array_equal(t.t[index], row_t.t)
            assert np.array_equal(hadamard_t_contract(theta)[index], hadamard_t_contract(row_theta))
            assert np.array_equal(t.pair_matrix()[index], row_t.pair_matrix())

    @pytest.mark.parametrize("shape", [(4,), (2, 5)])
    def test_canonical_gate_stack_equals_its_rows(self, shape):
        # a (4, 3) stack once broadcast against the 4x4 basis into one wrong matrix
        alpha = self._stack(shape)
        gates = canonical_gate(alpha)
        assert gates.shape == shape + (4, 4)
        for index in np.ndindex(*shape):
            assert np.array_equal(gates[index], canonical_gate(alpha[index]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_bad_alpha_row_raises_as_alone(self, bad):
        alpha = self._stack((2, 5))
        alpha[1, 3, 1] = bad
        with pytest.raises(ContractError) as alone:
            theta_from_alpha(alpha[1, 3])
        with pytest.raises(ContractError, match=f"^{re.escape(str(alone.value))}$"):
            theta_from_alpha(alpha)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-9, np.nan])
    def test_bad_t_row_raises_as_alone(self, scale):
        t = hadamard_t(theta_from_alpha(self._stack((7,)))).t.copy()
        t[4] *= scale
        with pytest.raises(ContractError) as alone:
            TVector(t[4])
        with pytest.raises(ContractError, match=f"^{re.escape(str(alone.value))}$"):
            TVector(t)

    def test_min_bound_row_raises_as_alone(self):
        # four moduli of 1 + 1e-11 sum to 4 + 8e-11, inside the sum rule, yet all exceed 1
        t = np.tile(hadamard_t(np.zeros(4)).t, (3, 1))
        t[1] = 1 + 1e-11
        with pytest.raises(ContractError, match="^min \\|t_j\\| must not exceed 1$"):
            TVector(t[1])
        with pytest.raises(ContractError, match="^min \\|t_j\\| must not exceed 1$"):
            TVector(t)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 1)])
    def test_last_axis_must_be_three(self, shape):
        with pytest.raises(DimensionError, match="alpha must have 3 components"):
            theta_from_alpha(np.zeros(shape))

import numpy as np
import pytest
from helpers import ADVERSARIAL_ALPHAS, ADVERSARIAL_SCALES, dressed, is_unitary, random_chamber_alpha

from progchan import (
    CanonicalForm,
    ContractError,
    canonical_gate,
    equal_up_to_global_phase,
    fidelity_uv,
    haar_unitary,
    hadamard_t,
    kraus_cirac_decompose,
    kron,
    optimal_interaction,
    theta_from_alpha,
    worst_case_fidelity,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def in_chamber(alpha, tol=1e-12):
    a1, a2, a3 = alpha
    return np.pi / 4 + tol >= a1 >= a2 - tol and a2 >= abs(a3) - tol and a2 >= -tol


def assert_valid_form(form: CanonicalForm, v):
    assert in_chamber(form.alpha)
    for w in (form.w1, form.w2, form.w3, form.w4):
        assert is_unitary(w, 1e-9)
    assert np.max(np.abs(form.reconstruct() - v)) <= 1e-9


class TestLocalDevices:
    def test_tensor_product(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = kron(haar_unitary(2, rng), haar_unitary(2, rng))
            form = kraus_cirac_decompose(v)
            np.testing.assert_allclose(form.alpha, np.zeros(3), atol=1e-9)
            assert_valid_form(form, v)

    def test_identity(self):
        form = kraus_cirac_decompose(np.eye(4))
        np.testing.assert_allclose(form.alpha, np.zeros(3), atol=1e-12)
        assert_valid_form(form, np.eye(4))


class TestCanonicalRecovery:
    def test_interior_alpha_recovered(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            alpha = random_chamber_alpha(rng, interior=True)
            form = kraus_cirac_decompose(canonical_gate(alpha))
            np.testing.assert_allclose(form.alpha, alpha, atol=1e-9)
            assert_valid_form(form, canonical_gate(alpha))

    def test_optimal_device_class(self):
        # chamber representative of the optimal device keeps |t_j| = 1
        v = optimal_interaction(1, 1)
        form = kraus_cirac_decompose(v)
        assert_valid_form(form, v)
        t = hadamard_t(theta_from_alpha(form.alpha))
        np.testing.assert_allclose(t.moduli, np.ones(4), atol=1e-10)

    def test_boundary_cases(self):
        for v in (SWAP, CNOT, canonical_gate([np.pi / 4] * 3), canonical_gate([np.pi / 4, np.pi / 4, -np.pi / 4])):
            assert_valid_form(kraus_cirac_decompose(v), v)


class TestHaarRoundTrip:
    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = haar_unitary(4, rng)
            form = kraus_cirac_decompose(v)
            assert_valid_form(form, v)
            assert equal_up_to_global_phase(form.reconstruct(), v, 1e-9)

    def test_phase_only_changes_w1(self):
        rng = np.random.default_rng(3)
        v = haar_unitary(4, rng)
        w = np.exp(1j * 0.3) * v
        assert_valid_form(kraus_cirac_decompose(w), w)

    def test_fidelity_invariance_under_chamber_choice(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            v = haar_unitary(4, rng)
            form = kraus_cirac_decompose(v)
            via_alpha = float(
                np.min(hadamard_t(theta_from_alpha(form.alpha)).moduli ** 2) / 4.0
            )
            assert worst_case_fidelity(v).fidelity == pytest.approx(via_alpha, abs=1e-12)


class TestInputValidation:
    def test_non_unitary(self):
        with pytest.raises(ContractError):
            kraus_cirac_decompose(np.ones((4, 4)))

    def test_wrong_size(self):
        with pytest.raises(ContractError):
            kraus_cirac_decompose(np.eye(2))


class TestAdversarialSet:
    """Degenerate and chamber-boundary interactions, perturbed and dressed.

    Every case must decompose, and its worst-case fidelity must match the
    closed form min_j |t_j|^2 / 4 taken from the raw alpha, with a witness
    that attains it.
    """

    Q = np.pi / 4
    ALPHAS = ADVERSARIAL_ALPHAS
    SCALES = ADVERSARIAL_SCALES

    @pytest.mark.parametrize("name", ALPHAS)
    def test_fidelity_and_witness(self, name):
        rng = np.random.default_rng(list(self.ALPHAS).index(name))
        for scale in self.SCALES:
            for _ in range(15):
                alpha = np.array(self.ALPHAS[name]) + scale * rng.uniform(-1, 1, 3)
                v = dressed(alpha, rng)
                rep = worst_case_fidelity(v)  # decomposes v, so it must not raise
                closed = float(np.min(hadamard_t(theta_from_alpha(alpha)).moduli ** 2) / 4.0)
                assert abs(rep.fidelity - closed) <= 1e-12
                assert abs(fidelity_uv(rep.worst_unitary, v)[0] - rep.fidelity) <= 1e-12

    @pytest.mark.parametrize(
        "cores", [[(Q, 0.3, 0.2)], [(Q, Q, Q), (Q, Q, -Q)]], ids=["a1-quarter", "swap-signs"]
    )
    def test_alpha_is_a_class_invariant_on_the_quarter_face(self, cores):
        # alpha_3 of either sign is one class at alpha_1 = pi/4; every dressing
        # of it must decompose to one alpha
        rng = np.random.default_rng(40)
        forms = [kraus_cirac_decompose(dressed(a, rng)) for a in cores for _ in range(40)]
        alphas = np.array([form.alpha for form in forms])
        first = np.broadcast_to(alphas[0], alphas.shape)
        np.testing.assert_allclose(alphas, first, rtol=0, atol=1e-12)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    ADVERSARIAL_ALPHAS,
    ADVERSARIAL_SCALES,
    adversarial_devices,
    dressed,
    is_unitary,
    random_chamber_alpha,
)

from progchan import (
    CanonicalForm,
    ContractError,
    ScanConfig,
    canonical_gate,
    equal_up_to_global_phase,
    fidelity_uv,
    haar_unitary,
    hadamard_t,
    kraus_cirac_decompose,
    kron,
    minimax_scan,
    optimal_interaction,
    theta_from_alpha,
    worst_case_fidelity,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
# the textbook magic basis of Makhlin's local invariants, written out here
MAKHLIN_BASIS = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)


def in_chamber(alpha, tol=1e-12):
    a1, a2, a3 = alpha
    return np.pi / 4 + tol >= a1 >= a2 - tol and a2 >= abs(a3) - tol and a2 >= -tol


def chamber_fold(alpha):
    """rho: a point of pi/4 >= a1 >= a2 >= |a3| in alpha's local class, written
    apart from the library's ``_ChamberReducer``.

    Shifts by pi/2 bring each component into (-pi/4, pi/4]; a sort by modulus
    and an even number of sign flips leave a1, a2 >= 0, with a3 carrying the
    sign of the product.  On the quarter face a3 keeps that sign, so compare
    with ``assert_same_class``.
    """
    a = np.asarray(alpha, dtype=float)
    a = a - np.pi / 2 * np.ceil(a / (np.pi / 2) - 0.5)
    mags = np.sort(np.abs(a))[::-1]
    return mags * [1, 1, np.prod(np.sign(a)) or 1]


def assert_same_class(got, want, atol=1e-9, name=""):
    """Chamber points of one class, to atol: equal, or mirrored in the quarter face.

    (pi/4 - d, a2, a3) is (pi/4 + d, a2, -a3) up to a shift and two flips, so
    the mirror (pi/2 - a1, a2, -a3) lies in the same class, and near the face
    the two chamber points of nearly one class lie 2 d apart.
    """
    mirror = np.array([np.pi / 2 - want[0], want[1], -want[2]])
    assert min(np.abs(got - want).max(), np.abs(got - mirror).max()) <= atol, (name, got, want)


# maps of three fractions onto the chamber (in units of pi/4), its faces and its optimal edge
CHAMBER_FAMILIES = {
    "chamber": lambda x, y, z: (x, x * y, x * y * (2 * z - 1)),
    "quarter-face": lambda x, y, z: (1, y, y * (2 * z - 1)),
    "a2-eq-abs-a3": lambda x, y, z: (x, x * y, x * y * (1 if z < 0.5 else -1)),
    "a1-eq-a2": lambda x, y, z: (x, x, x * (2 * z - 1)),
    "optimal-edge": lambda x, y, z: (1, 1, z),
}
unit = st.floats(0, 1)
# any alpha, which the fold must bring into the chamber, the chamber's faces, and its corners
alphas = st.one_of(
    st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    st.builds(
        lambda name, *xyz: np.pi / 4 * np.array(CHAMBER_FAMILIES[name](*xyz)),
        st.sampled_from(sorted(CHAMBER_FAMILIES)), unit, unit, unit,
    ),
    st.sampled_from(list(ADVERSARIAL_ALPHAS.values())),
)
seeds = st.integers(0, 2**32 - 1)


def local_invariants(v):
    """Makhlin's (G1, G2) of a two-qubit unitary: equal exactly for locally equivalent ones.

    With m = (Q^dag V Q)^T (Q^dag V Q) in the magic basis Q,
    G1 = tr^2 m / (16 det V) and G2 = (tr^2 m - tr m^2) / (4 det V).
    """
    turned = MAKHLIN_BASIS.conj().T @ v @ MAKHLIN_BASIS
    m = turned.T @ turned
    trace, det = np.trace(m), np.linalg.det(v)
    return np.array([trace**2 / (16 * det), (trace**2 - np.trace(m @ m)) / (4 * det)])


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


class TestLocalInvariants:
    """A second route to the decomposition: V and the canonical gate of its
    alpha must share Makhlin's local invariants (Quantum Inf. Process. 1, 243, 2002)."""

    Q = np.pi / 4

    def devices(self, family, rng):
        if family == "haar":
            return [haar_unitary(4, rng) for _ in range(100)]
        if family == "adversarial":
            return adversarial_devices(rng, 3)
        # quarter-face classes with alpha_3 of both signs: one class per pair
        cores = [(self.Q, self.Q, self.Q)]
        for _ in range(30):
            a2 = rng.uniform(0, self.Q)
            cores.append((self.Q, a2, rng.uniform(0, a2)))
        return [dressed((a1, a2, sign * a3), rng) for a1, a2, a3 in cores for sign in (1, -1)]

    @pytest.mark.parametrize("family", ["haar", "adversarial", "quarter-face"])
    def test_canonical_gate_of_alpha_keeps_the_invariants(self, family):
        rng = np.random.default_rng(["haar", "adversarial", "quarter-face"].index(family))
        for v in self.devices(family, rng):
            alpha = kraus_cirac_decompose(v).alpha
            np.testing.assert_allclose(
                local_invariants(canonical_gate(alpha)), local_invariants(v), rtol=0, atol=1e-12
            )

    def test_invariants_tell_nearby_classes_apart(self):
        # classes 0.01 apart differ far beyond the tolerance above
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = random_chamber_alpha(rng, interior=True)
            for step in 0.01 * np.eye(3):
                gap = local_invariants(canonical_gate(alpha + step)) - local_invariants(canonical_gate(alpha))
                assert np.max(np.abs(gap)) > 1e-6


class TestChamberSymmetries:
    """Five maps of V with known effects on its chamber point, against a test-side fold.

    V^T, SWAP V SWAP, V^* and V^dag keep F, and SWAP V shifts alpha by
    (pi/4)(1, 1, 1) (Zhang, Vala, Sastry & Whaley, PRA 67, 042313).  A wrong
    move of the reducer changes alpha without changing F, so only alpha sees it.
    """

    @staticmethod
    def chamber_point(v):
        """alpha of v, which must lie in the chamber, with a3 >= 0 on the quarter face."""
        alpha = kraus_cirac_decompose(v).alpha
        assert in_chamber(alpha) and (np.pi / 4 - alpha[0] > 1e-12 or alpha[2] >= 0), alpha
        return alpha

    @settings(max_examples=60, deadline=None)
    @given(alphas, seeds)
    def test_alpha_of_each_image(self, alpha, seed):
        v = dressed(alpha, np.random.default_rng(seed))
        base = self.chamber_point(v)
        # the decomposition folds as rho does, and each image moves alpha as rho predicts
        images = {
            "V": (v, chamber_fold(alpha)),
            "V^T": (v.T, base),
            "SWAP V SWAP": (SWAP @ v @ SWAP, base),
            "V^*": (v.conj(), chamber_fold(-base)),
            "V^dag": (v.conj().T, chamber_fold(-base)),
            "SWAP V": (SWAP @ v, chamber_fold(base + np.pi / 4)),
        }
        for name, (image, want) in images.items():
            assert_same_class(self.chamber_point(image), want, name=name)

    @settings(max_examples=25, deadline=None)
    @given(alphas, seeds)
    def test_fidelity_of_each_image(self, alpha, seed):
        v = dressed(alpha, np.random.default_rng(seed))
        images = (v.T, v.conj(), v.conj().T, SWAP @ v @ SWAP)
        f = worst_case_fidelity(v).fidelity
        for image in images:
            assert abs(worst_case_fidelity(image).fidelity - f) <= 1e-12
        # SWAP V has its own F, the closed form's at the shifted alpha
        shifted = chamber_fold(chamber_fold(alpha) + np.pi / 4)
        closed = float(np.min(hadamard_t(theta_from_alpha(shifted)).moduli ** 2) / 4.0)
        assert abs(worst_case_fidelity(SWAP @ v).fidelity - closed) <= 1e-12
        # the oracle uses no alpha: on each image its bound is F, and its
        # minimum the same to the witness's gap (up to 1e-7 where Q_0's
        # spectrum nearly ties)
        config = ScanConfig(resolution=100)
        results = [minimax_scan(image, config) for image in (v, *images)]
        for result in results:
            assert abs(result.lower_bound - f) <= 1e-14
            assert abs(result.f_min - results[0].f_min) <= 1e-7

import re

import numpy as np
import pytest
from helpers import (
    ADVERSARIAL_ALPHAS,
    controlled_device,
    dressed,
    is_unitary,
    pauli,
    random_bloch,
    random_chamber_alpha,
    random_programs,
    sv_norm_sq,
)

from progchan import (
    ContractError,
    minimax,
    bloch_to_matrix,
    canonical_gate,
    closed_form_norm,
    closed_form_parts,
    controlled_unitary_worst,
    covariance_transform,
    equal_up_to_global_phase,
    fidelity_uv,
    haar_unitary,
    hadamard_t,
    kron,
    optimal_interaction,
    program_overlap,
    random_density,
    s_operator,
    theta_from_alpha,
    worst_case_fidelity,
)

I2 = np.eye(2)
I4 = np.eye(4)


def esse_sum(u, theta):
    """S for a canonical device via the eigenbasis sum, the independent route."""
    return 0.5 * sum(np.exp(-1j * theta[j]) * pauli(j) @ u @ pauli(j) for j in range(4))


class TestThetaFromAlpha:
    def test_zero(self):
        np.testing.assert_allclose(theta_from_alpha([0, 0, 0]), np.zeros(4), atol=1e-15)

    def test_quarter_triple(self):
        theta = theta_from_alpha([np.pi / 4] * 3)
        np.testing.assert_allclose(theta, [3 * np.pi / 4, -np.pi / 4, -np.pi / 4, -np.pi / 4])

    def test_optimal_alpha_eigenvalues(self):
        theta = theta_from_alpha([np.pi / 4, 0, np.pi / 4])
        np.testing.assert_allclose(theta, [np.pi / 2, 0, -np.pi / 2, 0], atol=1e-15)
        np.testing.assert_allclose(np.exp(1j * theta), [1j, 1, -1j, 1], atol=1e-15)

    def test_eigenvector_relation(self):
        # V |sigma_j>> = e^{i theta_j} |sigma_j>> for the spectral synthesis
        rng = np.random.default_rng(0)
        for alpha in ([np.pi / 4] * 3, random_chamber_alpha(rng), random_chamber_alpha(rng)):
            v = canonical_gate(alpha)
            theta = theta_from_alpha(alpha)
            for j in range(4):
                ket = pauli(j).reshape(-1) / np.sqrt(2)
                np.testing.assert_allclose(v @ ket, np.exp(1j * theta[j]) * ket, atol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [theta_from_alpha, canonical_gate])
    def test_non_finite_alpha_rejected(self, fn, bad):
        with pytest.raises(ContractError, match=r"^alpha must be finite, got \["):
            fn([bad, 0.1, 0.0])

    @pytest.mark.parametrize("big", [1e308, -1e308, 4.5e307])
    @pytest.mark.parametrize("fn", [theta_from_alpha, canonical_gate])
    def test_overflowing_alpha_rejected(self, fn, big):
        # rejected before any arithmetic, so no overflow warning either
        bound = re.escape(repr(float(np.finfo(float).max) / 4))
        with pytest.raises(ContractError, match=rf"^alpha must lie within \+-{bound} \(float max / 4\), got \["):
            fn([0.1, big, 0.0])

    def test_alpha_at_the_bound_has_finite_phases(self):
        bound = np.finfo(float).max / 4
        for alpha in ([bound] * 3, [bound, -bound, -bound], [-bound, bound, 0.0]):
            assert np.all(np.isfinite(theta_from_alpha(alpha)))


class TestSOperator:
    def test_identity_device(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = haar_unitary(2, rng)
            np.testing.assert_allclose(s_operator(u, I4), np.trace(u) * I2, atol=1e-13)

    def test_two_routes_random_canonical(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            alpha = random_chamber_alpha(rng)
            u = haar_unitary(2, rng)
            direct = s_operator(u, canonical_gate(alpha))
            np.testing.assert_allclose(direct, esse_sum(u, theta_from_alpha(alpha)), atol=1e-12)

    def test_quarter_triple_identity_target(self):
        v = canonical_gate([np.pi / 4] * 3)
        s = s_operator(I2, v)
        t0 = hadamard_t(theta_from_alpha([np.pi / 4] * 3)).t[0]
        np.testing.assert_allclose(s, t0 * I2, atol=1e-13)
        assert abs(abs(t0) - 1.0) < 1e-13

    def test_optimal_device_sigma_x(self):
        s = s_operator(pauli(1), optimal_interaction(1, 1))
        assert np.linalg.norm(s, 2) == pytest.approx(1.0, abs=1e-12)

    def test_stacked_core_equals_single_calls(self):
        rng = np.random.default_rng(16)
        us = np.array([haar_unitary(2, rng) for _ in range(300)])
        vs = np.array([haar_unitary(4, rng) for _ in range(300)])
        stacked = minimax._s(us, vs)
        assert stacked.shape == (300, 2, 2)
        assert all(np.array_equal(s, s_operator(u, v)) for s, u, v in zip(stacked, us, vs))

    def test_non_unitary_rejected(self):
        with pytest.raises(ContractError):
            s_operator(2 * I2, I4)
        with pytest.raises(ContractError):
            s_operator(I2, 2 * I4)


class TestClosedFormNorm:
    def test_zero_interaction(self):
        t = hadamard_t(np.zeros(4))
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = random_bloch(rng)
            assert closed_form_norm(n, t) == pytest.approx(4 * n[0] ** 2, abs=1e-12)

    def test_flat_t_axis_points(self):
        t = hadamard_t(theta_from_alpha([np.pi / 4, 0, np.pi / 4]))
        for j in range(4):
            n = np.zeros(4)
            n[j] = 1.0
            assert closed_form_norm(n, t) == pytest.approx(1.0, abs=1e-12)

    def test_against_svd_route(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            alpha = random_chamber_alpha(rng)
            n = random_bloch(rng)
            t = hadamard_t(theta_from_alpha(alpha))
            direct = sv_norm_sq(bloch_to_matrix(n), canonical_gate(alpha))
            assert closed_form_norm(n, t) == pytest.approx(direct, abs=1e-10)

    def test_lower_bound_chain(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha = random_chamber_alpha(rng)
            n = random_bloch(rng)
            t = hadamard_t(theta_from_alpha(alpha))
            v0, v_sq = closed_form_parts(n, t)
            full = v0 + np.sqrt(max(v_sq, 0.0))
            floor = float(np.min(t.moduli**2))
            assert full >= v0 - 1e-12
            assert v0 >= floor - 1e-12


class TestClosedFormParts:
    def test_nan_rejected(self):
        t = hadamard_t(theta_from_alpha([0.3, 0.2, 0.1]))
        with pytest.raises(ContractError, match="not on S\\^3"):
            closed_form_parts([np.nan, 0, 0, 0], t)


class TestFidelityUV:
    def test_identity_pair(self):
        f, sigma = fidelity_uv(I2, I4)
        assert f == pytest.approx(1.0, abs=1e-14)
        assert program_overlap(I2, I4, sigma) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_sigma_attains(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = haar_unitary(2, rng)
            v = haar_unitary(4, rng)
            f, sigma = fidelity_uv(u, v)
            assert program_overlap(u, v, sigma) == pytest.approx(f, abs=1e-10)

    def test_sampled_programs_never_beat_optimum(self):
        rng = np.random.default_rng(7)
        u = haar_unitary(2, rng)
        v = haar_unitary(4, rng)
        f, _ = fidelity_uv(u, v)
        for _ in range(100):
            assert program_overlap(u, v, random_density(rng)) <= f + 1e-10

    def test_optimal_device_never_below_quarter(self):
        rng = np.random.default_rng(8)
        v = optimal_interaction(1, 1)
        t = hadamard_t(theta_from_alpha([np.pi / 4, 0, np.pi / 4]))
        for _ in range(50):
            n = random_bloch(rng)
            f, _ = fidelity_uv(bloch_to_matrix(n), v)
            assert f >= 0.25 - 1e-12
            assert f == pytest.approx(closed_form_norm(n, t) / 4.0, abs=1e-10)

    def test_controlled_device_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v1, v2 = haar_unitary(2, rng), haar_unitary(2, rng)
            u = haar_unitary(2, rng)
            v = controlled_device(v1, v2)
            expected = (
                max(abs(np.trace(v1.conj().T @ u)), abs(np.trace(v2.conj().T @ u))) ** 2 / 4.0
            )
            f, _ = fidelity_uv(u, v)
            assert f == pytest.approx(expected, abs=1e-12)


class TestWorstCase:
    def test_identity_device(self):
        rep = worst_case_fidelity(I4)
        assert rep.fidelity == pytest.approx(0.0, abs=1e-15)
        assert rep.epsilon == pytest.approx(1.0, abs=1e-15)
        assert rep.argmin_j == 1
        assert equal_up_to_global_phase(rep.worst_unitary, pauli(1), 1e-10)
        np.testing.assert_allclose(rep.t.t, [2, 0, 0, 0], atol=1e-13)

    def test_optimal_devices(self):
        for sx in (1, -1):
            for sz in (1, -1):
                rep = worst_case_fidelity(optimal_interaction(sx, sz))
                assert rep.fidelity == pytest.approx(0.25, abs=1e-12)
                np.testing.assert_allclose(rep.t.moduli, np.ones(4), atol=1e-12)
                assert rep.argmin_j == 0

    def test_vanishing_fidelity_interaction(self):
        # alpha = (pi/8, 0, 0) zeroes two t components
        rep = worst_case_fidelity(canonical_gate([np.pi / 8, 0, 0]))
        assert rep.fidelity == pytest.approx(0.0, abs=1e-15)
        assert sorted(np.round(rep.t.moduli**2, 10)) == pytest.approx(
            sorted([2 + np.sqrt(2), 2 - np.sqrt(2), 0.0, 0.0]), abs=1e-9
        )

    def test_witness_consistency(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = haar_unitary(4, rng)
            rep = worst_case_fidelity(v)
            f, _ = fidelity_uv(rep.worst_unitary, v)
            assert f == pytest.approx(rep.fidelity, abs=1e-9)
            assert program_overlap(rep.worst_unitary, v, rep.optimal_sigma) == pytest.approx(
                rep.fidelity, abs=1e-9
            )
            assert rep.epsilon == pytest.approx(np.sqrt(1 - rep.fidelity), abs=1e-12)

    def test_local_dressing_invariance(self):
        rng = np.random.default_rng(11)
        v = canonical_gate(random_chamber_alpha(rng))
        base = worst_case_fidelity(v).fidelity
        for _ in range(50):
            dressed = (
                kron(haar_unitary(2, rng), haar_unitary(2, rng))
                @ v
                @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
            )
            assert worst_case_fidelity(dressed).fidelity == pytest.approx(base, abs=1e-10)

    def test_tied_minima_all_witness(self):
        # every Pauli witness reaches 1/4 when all |t_j| tie at the optimum
        from progchan import kraus_cirac_decompose

        v = optimal_interaction(1, 1)
        form = kraus_cirac_decompose(v)
        rep = worst_case_fidelity(v)
        for j in range(4):
            f, _ = fidelity_uv(form.w1 @ pauli(j) @ form.w3, v)
            assert f == pytest.approx(rep.fidelity, abs=1e-9)


def degeneracy_devices(group, rng):
    """Devices of one kind, for the degeneracy of S at the worst target."""
    if group == "haar":
        return [haar_unitary(4, rng) for _ in range(20)]
    if group == "optimal":
        return [dressed((np.pi / 4, 0.0, sz * np.pi / 4), rng) for sz in (1, -1) for _ in range(5)]
    if group == "quarter-face":
        alphas = [(np.pi / 4, a2, rng.uniform(-a2, a2)) for a2 in rng.uniform(0, np.pi / 4, 10)]
        return [dressed(alpha, rng) for alpha in alphas]
    if group == "adversarial":
        return [
            dressed(np.array(alpha) + scale * rng.uniform(-1, 1, 3), rng)
            for alpha in ADVERSARIAL_ALPHAS.values()
            for scale in (0.0, 1e-14, 1e-10, 1e-7, 1e-5)
        ]
    basis = haar_unitary(2, rng)
    return [controlled_device(haar_unitary(2, rng), haar_unitary(2, rng), basis) for _ in range(5)]


class TestWorstTargetDegeneracy:
    """At the worst target S is a multiple of a unitary, so every program is
    optimal there and the report's I/2 attains F."""

    GROUPS = ("haar", "optimal", "quarter-face", "adversarial", "controlled")

    @pytest.mark.parametrize("group", GROUPS)
    def test_s_dag_s_is_scalar(self, group):
        rng = np.random.default_rng(self.GROUPS.index(group) + 50)
        for v in degeneracy_devices(group, rng):
            rep = worst_case_fidelity(v)
            s = s_operator(rep.worst_unitary, v)
            gap = np.max(np.abs(s.conj().T @ s - 4 * rep.fidelity * I2))
            assert gap <= 1e-12

    @pytest.mark.parametrize("group", GROUPS)
    def test_every_program_attains_f(self, group):
        rng = np.random.default_rng(self.GROUPS.index(group) + 60)
        for v in degeneracy_devices(group, rng):
            rep = worst_case_fidelity(v)
            np.testing.assert_array_equal(rep.optimal_sigma, I2 / 2)
            sigmas = np.concatenate([random_programs(rng, 199), [rep.optimal_sigma]])
            values = program_overlap(rep.worst_unitary, v, sigmas)
            assert np.max(np.abs(values - rep.fidelity)) <= 1e-10

    def test_no_eigensolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("worst_case_fidelity must not call this")

        for name in ("fidelity_uv", "s_operator", "hermitian_eig"):
            monkeypatch.setattr(minimax, name, refuse)
        rng = np.random.default_rng(70)
        for v in (I4, optimal_interaction(1, -1), haar_unitary(4, rng)):
            assert worst_case_fidelity(v).fidelity <= 0.25 + 1e-12


class TestOptimalInteraction:
    def test_unitary_and_flat(self):
        for sx in (1, -1):
            for sz in (1, -1):
                v = optimal_interaction(sx, sz)
                assert is_unitary(v, 1e-12)
                t = hadamard_t(theta_from_alpha([sx * np.pi / 4, 0, sz * np.pi / 4]))
                np.testing.assert_allclose(t.moduli, np.ones(4), atol=1e-12)

    def test_bad_signs(self):
        with pytest.raises(ContractError):
            optimal_interaction(0, 1)

    def test_numpy_signs_accepted(self):
        want = optimal_interaction(1, -1)
        for signs in ((np.int64(1), np.int64(-1)), (np.float64(1.0), -1.0)):
            np.testing.assert_array_equal(optimal_interaction(*signs), want)

    @pytest.mark.parametrize(
        "signs", [(True, 1), (1, True), (False, -1), (np.True_, 1), (1 + 0j, 1), (1, -1 + 0j)]
    )
    def test_bool_signs_rejected(self, signs):
        # True == 1 and 1 + 0j == 1, yet neither is a sign
        with pytest.raises(ContractError, match=r"^signs must be \+1 or -1, got "):
            optimal_interaction(*signs)


class TestControlledUnitary:
    def test_axis_pair(self):
        u, f = controlled_unitary_worst(I2, pauli(3))
        assert f <= 1e-20
        assert abs(np.trace(u)) <= 1e-10
        assert abs(np.trace(pauli(3) @ u)) <= 1e-10

    def test_equal_pair(self):
        u, f = controlled_unitary_worst(I2, I2)
        assert abs(np.trace(u)) <= 1e-10
        assert f <= 1e-20

    def test_random_pairs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            v1, v2 = haar_unitary(2, rng), haar_unitary(2, rng)
            u, f = controlled_unitary_worst(v1, v2)
            assert is_unitary(u, 1e-12)
            assert abs(np.trace(v1.conj().T @ u)) <= 1e-10
            assert abs(np.trace(v2.conj().T @ u)) <= 1e-10
            assert f <= 1e-12
            via_device, _ = fidelity_uv(u, controlled_device(v1, v2))
            assert via_device <= 1e-12


class TestCovariance:
    def test_trivial_locals(self):
        rng = np.random.default_rng(13)
        u, v = haar_unitary(2, rng), haar_unitary(4, rng)
        np.testing.assert_allclose(
            covariance_transform(u, I2, I2, I2, I2, v), s_operator(u, v), atol=1e-13
        )

    def test_identity_core(self):
        rng = np.random.default_rng(14)
        u = haar_unitary(2, rng)
        ws = [haar_unitary(2, rng) for _ in range(4)]
        got = covariance_transform(u, *ws, I4)
        inner = np.trace(ws[0].conj().T @ u @ ws[2].conj().T)
        np.testing.assert_allclose(got, inner * np.conj(ws[1]) @ np.conj(ws[3]), atol=1e-12)

    def test_stacked_gap_is_the_largest_single_gap(self):
        rng = np.random.default_rng(17)
        draws = [[haar_unitary(d, rng) for d in (2, 2, 2, 2, 2, 4)] for _ in range(40)]
        singles = [minimax._covariance_gap(*args) for args in draws]
        direct, gap = minimax._covariance_gap(*map(np.array, zip(*draws)))
        assert all(np.array_equal(d, one) for d, (one, _) in zip(direct, singles))
        assert gap == max(g for _, g in singles)

    def test_random_everything(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            u, v = haar_unitary(2, rng), haar_unitary(4, rng)
            ws = [haar_unitary(2, rng) for _ in range(4)]
            dressed = kron(ws[0], ws[1]) @ v @ kron(ws[2], ws[3])
            np.testing.assert_allclose(
                covariance_transform(u, *ws, v), s_operator(u, dressed), atol=1e-12
            )

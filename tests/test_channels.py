import numpy as np
import pytest
from helpers import (
    matrix_unit_choi,
    random_chamber_alpha,
    random_pure_density,
    spectral_kraus_family,
)

from progchan import (
    ContractError,
    KrausChannel,
    apply_programmed,
    avg_io_fidelity,
    canonical_gate,
    channel_fidelity,
    distance,
    fidelity_uv,
    haar_unitary,
    optimal_interaction,
    program_channel,
    program_overlap,
    random_density,
    s_operator,
)
from progchan.channels import CHOI_RANK_CUTOFF, _choi_matrix
from progchan.pauli import pauli

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
I4 = np.eye(4)


class TestApplyProgrammed:
    def test_identity_device(self):
        rng = np.random.default_rng(0)
        rho, sigma = random_density(rng), random_density(rng)
        np.testing.assert_allclose(apply_programmed(I4, sigma, rho), rho, atol=1e-14)

    def test_swap_returns_program(self):
        rng = np.random.default_rng(1)
        rho, sigma = random_density(rng), random_density(rng)
        np.testing.assert_allclose(apply_programmed(SWAP, sigma, rho), sigma, atol=1e-14)

    def test_outputs_are_densities(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            v = haar_unitary(4, rng)
            out = apply_programmed(v, random_density(rng), random_density(rng))
            assert abs(np.trace(out).real - 1.0) < 1e-12
            np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(3)
        sigma = random_density(rng)
        with pytest.raises(ContractError):
            apply_programmed(2 * I4, sigma, sigma)
        with pytest.raises(ContractError):
            apply_programmed(I4, np.eye(2), sigma)


class TestProgramChannel:
    def test_swap_is_constant_channel(self):
        rng = np.random.default_rng(4)
        sigma = random_density(rng)
        channel = program_channel(SWAP, sigma)
        for _ in range(5):
            np.testing.assert_allclose(channel.apply(random_density(rng)), sigma, atol=1e-12)

    def test_identity_device_is_identity_channel(self):
        rng = np.random.default_rng(5)
        sigma = random_density(rng)
        channel = program_channel(I4, sigma)
        assert len(channel.ops) == 1
        rho = random_density(rng)
        np.testing.assert_allclose(channel.apply(rho), rho, atol=1e-12)

    def test_kraus_route_equals_trace_route(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = haar_unitary(4, rng)
            sigma, rho = random_density(rng), random_density(rng)
            channel = program_channel(v, sigma)
            np.testing.assert_allclose(
                channel.apply(rho), apply_programmed(v, sigma, rho), atol=1e-12
            )

    def test_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            channel = program_channel(haar_unitary(4, rng), random_density(rng))
            assert channel.completeness_defect() <= 1e-10

    def test_optimal_device_reaches_quarter_on_paulis(self):
        v = optimal_interaction(1, 1)
        for j in range(4):
            u = pauli(j)
            _, sigma = fidelity_uv(u, v)
            channel = program_channel(v, sigma)
            assert channel_fidelity(u, channel) == pytest.approx(0.25, abs=1e-10)

    def test_matches_spectral_kraus_construction(self):
        # eigenbasis family for a canonical device: same action, same overlap sum
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = random_chamber_alpha(rng)
            v = canonical_gate(alpha)
            sigma = random_density(rng)
            reference = spectral_kraus_family(alpha, sigma)
            channel = program_channel(v, sigma)
            rho = random_density(rng)
            via_ref = sum(k @ rho @ k.conj().T for k in reference)
            np.testing.assert_allclose(channel.apply(rho), via_ref, atol=1e-11)
            u = haar_unitary(2, rng)
            ref_sum = sum(abs(np.trace(k.conj().T @ u)) ** 2 for k in reference) / 4.0
            assert channel_fidelity(u, channel) == pytest.approx(ref_sum, abs=1e-10)


class TestChoiMatrix:
    """The two-matmul Choi matrix against the matrix-unit construction."""

    def test_matches_matrix_unit_construction(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            v = haar_unitary(4, rng)
            for sigma in (random_pure_density(rng), random_density(rng)):
                np.testing.assert_allclose(
                    _choi_matrix(v, sigma), matrix_unit_choi(v, sigma), rtol=0, atol=1e-15
                )

    def test_kraus_family_rebuilds_it(self):
        # sum_i vec K_i vec K_i^dag, with K = col.reshape(2, 2).T as extracted
        rng = np.random.default_rng(31)
        for v in (SWAP, I4, optimal_interaction(1, 1), *(haar_unitary(4, rng) for _ in range(20))):
            for sigma in (random_pure_density(rng), random_density(rng), np.eye(2) / 2):
                cols = [k.T.reshape(4) for k in program_channel(v, sigma).ops]
                rebuilt = sum(np.outer(c, c.conj()) for c in cols)
                np.testing.assert_allclose(
                    rebuilt, matrix_unit_choi(v, sigma), rtol=0, atol=4 * CHOI_RANK_CUTOFF
                )


class TestChannelFidelity:
    def test_unitary_channel(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(2, rng)
        assert channel_fidelity(u, KrausChannel((u,))) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_target(self):
        assert channel_fidelity(pauli(1), KrausChannel((np.eye(2),))) == 0.0

    def test_depolarizing(self):
        # direct sum over the four scaled Paulis gives 1/4 for every target
        channel = KrausChannel(tuple(pauli(j) / 2 for j in range(4)))
        rng = np.random.default_rng(10)
        for _ in range(10):
            u = haar_unitary(2, rng)
            total = sum(abs(np.trace(k.conj().T @ u)) ** 2 for k in channel.ops) / 4.0
            assert total == pytest.approx(0.25, abs=1e-12)
            assert channel_fidelity(u, channel) == pytest.approx(0.25, abs=1e-12)

    def test_incomplete_family_rejected(self):
        with pytest.raises(ContractError):
            KrausChannel((pauli(1) / 2,))
        # NaN, infinite and huge entries fail before the completeness product,
        # which would otherwise warn (inf * 0, overflow)
        half = [np.eye(2, dtype=complex) / np.sqrt(2), pauli(3) / np.sqrt(2)]
        half[1][1, 1] = complex(0.0, np.nan)
        cases = [(np.full((2, 2), x),) for x in (np.nan, np.inf, -np.inf, 1e200)]
        cases += [tuple(half), (np.eye(2), np.full((2, 2), complex(0.0, np.inf)))]
        for ops in cases:
            with pytest.raises(ContractError, match="an entry is not finite or beyond 2"):
                KrausChannel(ops)


class TestScalarMaps:
    def test_distance_values(self):
        assert distance(1.0) == 0.0
        assert distance(0.0) == 1.0
        assert distance(0.25) == pytest.approx(np.sqrt(3) / 2, abs=1e-15)

    def test_distance_range(self):
        with pytest.raises(ContractError):
            distance(1.5)
        with pytest.raises(ContractError):
            distance(-0.1)

    def test_avg_io(self):
        assert avg_io_fidelity(1.0, 2) == 1.0
        assert avg_io_fidelity(0.25, 2) == 0.5
        assert avg_io_fidelity(0.0, 2) == pytest.approx(1 / 3, abs=1e-15)
        with pytest.raises(ContractError):
            avg_io_fidelity(0.5, 1)
        assert avg_io_fidelity(0.25, 2.0) == 0.5
        assert avg_io_fidelity(np.float64(0.25), np.int64(2)) == 0.5
        assert avg_io_fidelity(np.int64(0), np.float64(2.0)) == pytest.approx(1 / 3, abs=1e-15)
        assert distance(np.float64(0.25)) == distance(0.25)
        assert distance(np.int64(1)) == 0.0

    @pytest.mark.parametrize("f", [True, False, np.True_], ids=["True", "False", "np.True_"])
    def test_bool_fidelity_rejected(self, f):
        with pytest.raises(ContractError, match="^fidelity must lie in"):
            distance(f)
        with pytest.raises(ContractError, match="^fidelity must lie in"):
            avg_io_fidelity(f, 2)

    @pytest.mark.parametrize(
        "d", [float("inf"), float("-inf"), float("nan"), 2.5, "3", True, np.True_, np.float64(3.5)]
    )
    def test_avg_io_bad_dimension(self, d):
        with pytest.raises(ContractError, match="^dimension must be an integer >= 2, got "):
            avg_io_fidelity(0.5, d)


class TestProgramOverlap:
    def test_identity_cases(self):
        rng = np.random.default_rng(11)
        sigma = random_density(rng)
        assert program_overlap(np.eye(2), I4, sigma) == pytest.approx(1.0, abs=1e-12)
        assert program_overlap(pauli(3), I4, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_equals_kraus_route(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = haar_unitary(2, rng)
            v = haar_unitary(4, rng)
            sigma = random_density(rng)
            via_kraus = channel_fidelity(u, program_channel(v, sigma))
            assert program_overlap(u, v, sigma) == pytest.approx(via_kraus, abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            f = program_overlap(
                haar_unitary(2, rng), haar_unitary(4, rng), random_density(rng)
            )
            assert 0.0 <= f <= 1.0

    def test_overlap_sum_identity(self):
        # sum_nm |Tr[C_nm^dag U]|^2 = Tr[sigma^T S^dag S]
        rng = np.random.default_rng(14)
        for _ in range(50):
            u = haar_unitary(2, rng)
            v = haar_unitary(4, rng)
            sigma = random_density(rng)
            channel = program_channel(v, sigma)
            kraus_sum = sum(abs(np.trace(k.conj().T @ u)) ** 2 for k in channel.ops)
            s = s_operator(u, v)
            direct = np.trace(sigma.T @ s.conj().T @ s).real
            assert kraus_sum == pytest.approx(direct, abs=1e-10)

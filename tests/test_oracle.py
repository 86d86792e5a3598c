import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from helpers import (
    ADVERSARIAL_ALPHAS,
    adversarial_devices,
    dressed,
    materialized_scan,
    random_bloch,
    random_chamber_alpha,
    random_programs,
    serial_polish,
    sigma_dominance_loop,
)

from progchan import (
    ContractError,
    DimensionError,
    ScanConfig,
    canonical_gate,
    fidelity_uv,
    haar_unitary,
    minimax_scan,
    optimal_interaction,
    pauli,
    program_overlap,
    random_density,
    s_operator,
    sample_su2,
    sigma_dominance_check,
    worst_case_fidelity,
)
from progchan import oracle
from progchan.kernels import device_parts, fidelity_from_bloch, fidelity_from_bloch_batch
from progchan.oracle import _ALPHAS, AXIS_POINTS, CERTIFY_TOL, _lowest, _polish, _random_densities


class TestSampleSU2:
    def test_axis_points_forced(self):
        pts = sample_su2(ScanConfig(resolution=500, seed=3))
        np.testing.assert_array_equal(pts[0], [1, 0, 0, 0])
        np.testing.assert_array_equal(pts[:8], np.concatenate([np.eye(4), -np.eye(4)]))

    def test_unit_norm(self):
        pts = sample_su2(ScanConfig(resolution=5000, seed=0))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), np.ones(len(pts)), atol=1e-14)

    def test_moment(self):
        # Haar moment of n_0^2 on S^3 is 1/4
        pts = sample_su2(ScanConfig(resolution=100_000, seed=0))
        assert np.mean(pts[:, 0] ** 2) == pytest.approx(0.25, abs=0.01)

    def test_deterministic_and_nested(self):
        a = sample_su2(ScanConfig(resolution=2000, seed=5))
        b = sample_su2(ScanConfig(resolution=2000, seed=5))
        np.testing.assert_array_equal(a, b)
        doubled = sample_su2(ScanConfig(resolution=4000, seed=5))
        np.testing.assert_array_equal(doubled[:2000], a)

    def test_seed_changes_tail(self):
        a = sample_su2(ScanConfig(resolution=1000, seed=1))
        b = sample_su2(ScanConfig(resolution=1000, seed=2))
        assert np.max(np.abs(a[8:] - b[8:])) > 1e-3

    def test_matches_mod_formula(self):
        # reference: the recurrence written with np.mod, bit for bit
        for seed, resolution in ((0, 100_000), (5, 2000), (11, 109), (3, 100)):
            pts = sample_su2(ScanConfig(resolution=resolution, seed=seed))
            offset = np.random.default_rng(seed).random(3)
            idx = np.arange(1, resolution - len(AXIS_POINTS) + 1)[:, None]
            u = np.mod(offset + idx * _ALPHAS, 1.0)
            azim, polar = 2 * np.pi * u[:, 1], 2 * np.pi * u[:, 2]
            r_low, r_high = np.sqrt(1.0 - u[:, 0]), np.sqrt(u[:, 0])
            expected = np.column_stack(
                [
                    r_low * np.sin(azim),
                    r_low * np.cos(azim),
                    r_high * np.sin(polar),
                    r_high * np.cos(polar),
                ]
            )
            np.testing.assert_array_equal(pts[len(AXIS_POINTS) :], expected)

    def test_config_validation(self):
        with pytest.raises(ContractError):
            ScanConfig(resolution=10)
        with pytest.raises(ContractError):
            ScanConfig(refine_steps=-1)
        with pytest.raises(ContractError, match="seed must be >= 0"):
            ScanConfig(seed=-1)
        with pytest.raises(ContractError, match="sigma_samples must be >= 0"):
            ScanConfig(sigma_samples=-3)
        for field, value in [
            ("resolution", 100.5),
            ("refine_steps", 2.5),
            ("seed", 2.5),
            ("sigma_samples", "10"),
            ("seed", True),
        ]:
            with pytest.raises(ContractError, match=f"{field} must be an integer"):
                ScanConfig(**{field: value})
        config = ScanConfig(resolution=np.int64(200), refine_steps=np.int32(5), seed=np.uint8(3))
        assert sample_su2(config).shape == (200, 4)


class TestMinimaxScan:
    def test_optimal_device(self):
        result = minimax_scan(optimal_interaction(1, 1), ScanConfig(resolution=5000, refine_steps=40, seed=0))
        assert 0.25 - 1e-9 <= result.f_min <= 0.25 + 2e-3
        assert abs(result.gap_to_closed_form) <= 2e-3
        assert result.evaluations >= 5000

    def test_identity_device_hits_zero(self):
        result = minimax_scan(np.eye(4), ScanConfig(resolution=500, refine_steps=0, seed=0))
        assert result.f_min <= 1e-12
        # the sigma_x axis point is an exact minimizer
        assert abs(np.abs(result.worst_bloch[1]) - 1.0) < 1e-12

    def test_one_sided_gap_random_devices(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = canonical_gate(random_chamber_alpha(rng))
            result = minimax_scan(v, ScanConfig(resolution=2000, refine_steps=25, seed=2))
            assert result.gap_to_closed_form >= -1e-9
            assert result.gap_to_closed_form <= 3e-3

    def test_deterministic(self):
        v = canonical_gate([0.3, 0.2, 0.1])
        cfg = ScanConfig(resolution=1500, refine_steps=10, seed=9)
        r1 = minimax_scan(v, cfg)
        r2 = minimax_scan(v, cfg)
        assert r1.f_min == r2.f_min
        np.testing.assert_array_equal(r1.worst_bloch, r2.worst_bloch)
        assert r1.evaluations == r2.evaluations

    def test_monotone_under_doubling(self):
        v = canonical_gate([0.35, 0.15, -0.05])
        lo = minimax_scan(v, ScanConfig(resolution=1000, refine_steps=0, seed=4))
        hi = minimax_scan(v, ScanConfig(resolution=2000, refine_steps=0, seed=4))
        assert hi.f_min <= lo.f_min + 1e-12

    def test_polish_never_hurts(self):
        v = canonical_gate([0.3, 0.25, 0.2])
        plain = minimax_scan(v, ScanConfig(resolution=1000, refine_steps=0, seed=6))
        polished = minimax_scan(v, ScanConfig(resolution=1000, refine_steps=40, seed=6))
        assert polished.f_min <= plain.f_min + 1e-15
        # the sweep meets the lower bound on a canonical device: no polish
        assert polished.evaluations == plain.evaluations == 1000
        # a dressed device is not certified, and there the polish runs
        v = dressed([0.3, 0.25, 0.2], np.random.default_rng(6))
        plain = minimax_scan(v, ScanConfig(resolution=1000, refine_steps=0, seed=6))
        polished = minimax_scan(v, ScanConfig(resolution=1000, refine_steps=40, seed=6))
        assert polished.f_min <= plain.f_min
        assert polished.evaluations > plain.evaluations

    def test_repeated_haar_scans_identical(self):
        rng = np.random.default_rng(21)
        for seed in range(3):
            v = haar_unitary(4, rng)
            cfg = ScanConfig(resolution=3000, refine_steps=60, seed=seed)
            first = minimax_scan(v, cfg)
            minimax_scan(haar_unitary(4, rng), cfg)  # an unrelated scan in between
            again = minimax_scan(v, cfg)
            assert again.f_min == first.f_min
            assert again.evaluations == first.evaluations
            np.testing.assert_array_equal(again.worst_bloch, first.worst_bloch)

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        minimax_scan(np.eye(4), ScanConfig(resolution=300, refine_steps=0, seed=0), trace_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,n0,n1,n2,n3,fidelity"
        assert len(lines) == 301
        # every cell is a plain number, never a numpy scalar's repr
        rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(rows[:, 0], np.arange(300))
        np.testing.assert_allclose(np.linalg.norm(rows[:, 1:5], axis=1), 1.0, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ContractError):
            minimax_scan(np.ones((4, 4)), ScanConfig(resolution=200, seed=0))


class TestStreamedSweep:
    # sample rows around the kernel's block boundaries (4096 rows; a lone last
    # row joins the block before it), and sequence lengths of 4096 + a few
    RESOLUTIONS = (100, 4096, 4097, 4098, 2 * 4096 + 1, 4104, 4105, 4106, 2 * 4096 + 9, 100_000)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_sweep_equals_full_sample(self, seed):
        parts = device_parts(haar_unitary(4, np.random.default_rng(seed)))
        for resolution in self.RESOLUTIONS:
            config = ScanConfig(resolution=resolution, seed=seed)
            streamed = oracle._sweep(parts, oracle._offset(config), resolution)
            np.testing.assert_array_equal(streamed, fidelity_from_bloch_batch(parts, sample_su2(config)))

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_rows_rebuilt_from_index(self, seed):
        config = ScanConfig(resolution=100_000, seed=seed)
        full = sample_su2(config)
        offset = oracle._offset(config)
        n_axis = len(AXIS_POINTS)
        random = np.random.default_rng(seed).integers(0, len(full), 50)
        index_sets = [
            np.concatenate([np.arange(n_axis), [n_axis, len(full) - 1], random]),
            # unsorted, repeated and straddling the last axis row
            [9, 3, 3, 99_999, 0, 8, 7],
            [n_axis - 1, n_axis, n_axis - 1, 0],
            [42],
            [5],
        ]
        # blocks as the sweep asks for them, and ones across the axis rows
        for start, stop in ((0, 3), (2, 8), (5, 4101), (8, 9), (4096, 8192), (99_999, 100_000)):
            index_sets.append(np.arange(start, stop))
        for rows in index_sets:
            got = oracle._sample_rows(offset, rows)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, full[rows])

    def test_peak_memory_independent_of_sample(self):
        v = canonical_gate([0.3, 0.2, 0.1])
        config = ScanConfig(resolution=200_000, refine_steps=0, seed=1)
        minimax_scan(v, ScanConfig(resolution=5000, refine_steps=0, seed=1))  # warm-up
        tracemalloc.start()
        try:
            minimax_scan(v, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values array is 8 B per point; a materialized sample adds 32 B
        # per point of coordinates and more in temporaries
        assert peak < 24 * config.resolution + 2_000_000

    def test_matches_materialized_scan(self):
        rng = np.random.default_rng(41)
        devices = [haar_unitary(4, rng) for _ in range(6)]
        devices += [canonical_gate(random_chamber_alpha(rng)) for _ in range(4)]
        devices += [optimal_interaction(1, 1), np.eye(4, dtype=complex)]
        for k, v in enumerate(devices):
            for resolution, steps in ((10_000, 30), (4097, 20), (8201, 0)):
                config = ScanConfig(resolution=resolution, refine_steps=steps, seed=k)
                f_min, worst, evaluations = materialized_scan(v, config)
                result = minimax_scan(v, config)
                assert result.f_min == f_min
                np.testing.assert_array_equal(result.worst_bloch, worst)
                assert result.evaluations == evaluations


class TestLowerBound:
    """The proven bound lambda_min(Q)/8 and the polish it makes unnecessary."""

    @staticmethod
    def canonical_devices(rng):
        devices = [canonical_gate(random_chamber_alpha(rng)) for _ in range(6)]
        devices += [canonical_gate(alpha) for alpha in ADVERSARIAL_ALPHAS.values()]
        return devices + [optimal_interaction(1, -1)]

    def test_no_sweep_point_below_bound(self):
        rng = np.random.default_rng(50)
        devices = [haar_unitary(4, rng) for _ in range(10)]
        devices += adversarial_devices(rng, 1) + self.canonical_devices(rng)
        for k, v in enumerate(devices):
            parts = device_parts(v)
            values = oracle._sweep(parts, oracle._offset(ScanConfig(seed=k)), 4105)
            assert values.min() >= oracle._lower_bound(parts) - CERTIFY_TOL

    def test_matches_closed_form(self):
        rng = np.random.default_rng(51)
        grid = np.linspace(-np.pi / 4, np.pi / 4, 13)
        devices = [haar_unitary(4, rng) for _ in range(300)]
        devices += adversarial_devices(rng, 3)
        devices += [dressed(alpha, rng) for alpha in itertools.product(grid, repeat=3)]
        for v in devices:
            bound = oracle._lower_bound(device_parts(v))
            assert abs(bound - worst_case_fidelity(v).fidelity) <= 1e-14

    def test_polish_skipped_on_canonical_devices(self):
        rng = np.random.default_rng(53)
        for k, v in enumerate(self.canonical_devices(rng)):
            config = ScanConfig(resolution=4105, refine_steps=30, seed=k)
            result = minimax_scan(v, config)
            assert result.evaluations == config.resolution
            assert abs(result.f_min - result.lower_bound) <= CERTIFY_TOL
            f_min, worst, evaluations = materialized_scan(v, config)
            assert result.f_min == f_min
            np.testing.assert_array_equal(result.worst_bloch, worst)
            assert evaluations == config.resolution

    def test_dressed_devices_match_reference(self):
        rng = np.random.default_rng(54)
        interior = [dressed(random_chamber_alpha(rng, interior=True), rng) for _ in range(6)]
        devices = interior + [dressed(alpha, rng) for alpha in ADVERSARIAL_ALPHAS.values()]
        for k, v in enumerate(devices):
            config = ScanConfig(resolution=4105, refine_steps=30, seed=k)
            result = minimax_scan(v, config)
            f_min, worst, evaluations = materialized_scan(v, config)
            assert result.f_min == f_min
            np.testing.assert_array_equal(result.worst_bloch, worst)
            assert result.evaluations == evaluations
            certified = result.f_min <= result.lower_bound + CERTIFY_TOL
            assert (result.evaluations == config.resolution) == certified
            # an interior dressed core's minimizer is no sample row, so the polish runs
            if k < len(interior):
                assert not certified


class TestLowest:
    """The polish seeds: the 16 lowest sweep values, ties lowest index first."""

    @staticmethod
    def stable(values, count=16):
        return np.argsort(values, kind="stable")[:count]

    def test_axis_twins_on_canonical_devices(self):
        # +e_j and -e_j give exactly the same fidelity on a canonical device
        points = sample_su2(ScanConfig(resolution=2000, seed=0))
        for v in (optimal_interaction(1, 1), canonical_gate([0.3, 0.2, 0.1]), np.eye(4)):
            values = oracle.fidelity_from_bloch_batch(device_parts(v), points)
            np.testing.assert_array_equal(values[:4], values[4:8])
            np.testing.assert_array_equal(_lowest(values, 16), self.stable(values))

    def test_planted_ties(self):
        rng = np.random.default_rng(12)
        values = rng.random(5000)
        ranked = np.argsort(values, kind="stable")
        # +- twins: each of the ten lowest values also sits at a higher index
        for i in ranked[:10]:
            values[rng.integers(i + 1, 5000)] = values[i]
        # a seven-way tie across rank 16 (ranks 13 to 19 after the twins)
        ranked = np.argsort(values, kind="stable")
        values[ranked[13:20]] = values[ranked[13]]
        picked = _lowest(values, 16)
        np.testing.assert_array_equal(picked, self.stable(values))
        assert len(np.unique(values[picked])) < 16

    def test_edge_cases(self):
        np.testing.assert_array_equal(_lowest(np.full(40, 0.5), 16), np.arange(16))
        short = np.array([0.3, 0.1, 0.3, 0.2])
        np.testing.assert_array_equal(_lowest(short, 16), [1, 3, 0, 2])
        with_nan = np.array([np.nan, 0.2, np.nan, 0.1, 0.2] * 4)
        for count in (1, 7, 8, 9, 16):
            np.testing.assert_array_equal(_lowest(with_nan, count), self.stable(with_nan, count))


class TestLockStepPolish:
    def test_matches_serial_reference_haar(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            parts = device_parts(haar_unitary(4, rng))
            starts = np.array([random_bloch(rng) for _ in range(4)])
            values, points, evaluations = _polish(parts, starts, 200, 0.03)
            objective = functools.partial(fidelity_from_bloch, parts)
            reference = [serial_polish(objective, n0, 200, 0.03) for n0 in starts]
            np.testing.assert_allclose(values, [r[0] for r in reference], rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-14)
            # every start evaluates 4 vertices and then 1 to 5 points per step
            assert 4 * 4 + 200 * 4 <= evaluations <= 4 * 4 + 200 * 4 * 5

    @pytest.mark.parametrize("n_starts, seed", [(1, 0), (4, 0), (4, 1), (3, 2)])
    def test_same_moves_as_serial_on_rugged_objective(self, monkeypatch, n_starts, seed):
        # ripples shorter than the simplex make contractions fail, so this
        # objective reaches the shrink step that smooth fidelities rarely do
        target = np.array([0.1, -0.7, 0.5, 0.5])  # unit norm

        def rugged(parts, ns):
            return np.abs(ns - target).max(axis=1) + 0.1 * np.sin(300.0 * ns[:, 0])

        monkeypatch.setattr(oracle, "fidelity_from_bloch_batch", rugged)
        rng = np.random.default_rng(seed)
        starts = np.array([random_bloch(rng) for _ in range(n_starts)])
        values, points, evaluations = _polish(None, starts, 20, 0.05)
        reference = [serial_polish(lambda n: rugged(None, n[None])[0], n0, 20, 0.05) for n0 in starts]
        np.testing.assert_allclose(values, [r[0] for r in reference], rtol=0, atol=1e-12)
        np.testing.assert_allclose(points, [r[1] for r in reference], rtol=0, atol=1e-12)
        assert evaluations == sum(r[2] for r in reference)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ties_ranked_in_vertex_order(self, monkeypatch, seed):
        # a staircase objective: equal values among the vertices are common, and
        # numpy's default argsort may order such ties either way
        target = np.array([0.1, -0.7, 0.5, 0.5])

        def staircase(parts, ns):
            return np.floor(64.0 * np.abs(ns - target).max(axis=1)) / 64.0

        monkeypatch.setattr(oracle, "fidelity_from_bloch_batch", staircase)
        rng = np.random.default_rng(seed)
        starts = np.array([random_bloch(rng) for _ in range(4)])
        values, points, evaluations = _polish(None, starts, 30, 0.2)
        reference = [serial_polish(lambda n: staircase(None, n[None])[0], n0, 30, 0.2) for n0 in starts]
        np.testing.assert_array_equal(values, [r[0] for r in reference])
        np.testing.assert_allclose(points, [r[1] for r in reference], rtol=0, atol=1e-12)
        assert evaluations == sum(r[2] for r in reference)

    def test_start_independent_of_its_companions(self):
        # every kernel call has >= 3 rows, so no point takes the one-row BLAS
        # path and a start's rounding cannot depend on the starts beside it
        rng = np.random.default_rng(15)
        for _ in range(24):
            parts = device_parts(haar_unitary(4, rng))
            starts = np.array([random_bloch(rng) for _ in range(4)])
            values, points, _ = _polish(parts, starts, 200, 0.05)
            for k, n0 in enumerate(starts):
                alone_value, alone_point, _ = _polish(parts, n0[None], 200, 0.05)
                np.testing.assert_array_equal(alone_value, values[k : k + 1])
                np.testing.assert_array_equal(alone_point, points[k : k + 1])

    @pytest.mark.parametrize("n_starts", [1, 4])
    def test_kernel_calls_per_polish(self, monkeypatch, n_starts):
        rows = []

        def spy(parts, ns):
            rows.append(len(ns))
            return fidelity_from_bloch_batch(parts, ns)

        monkeypatch.setattr(oracle, "fidelity_from_bloch_batch", spy)
        rng = np.random.default_rng(16)
        parts = device_parts(haar_unitary(4, rng))
        starts = np.array([random_bloch(rng) for _ in range(n_starts)])
        steps = 50
        _, _, evaluations = _polish(parts, starts, steps, 0.05)
        # the initial simplices, then at least one round per step
        assert len(rows) >= 1 + steps
        assert min(rows) >= 3
        assert rows[0] == 4 * n_starts
        # speculative points are computed but not counted
        assert sum(rows) > evaluations

    @pytest.mark.parametrize("n_starts", [1, 4])
    def test_no_steps_returns_best_initial_vertex(self, n_starts):
        rng = np.random.default_rng(14)
        parts = device_parts(haar_unitary(4, rng))
        starts = np.array([random_bloch(rng) for _ in range(n_starts)])
        values, points, evaluations = _polish(parts, starts, 0, 0.05)
        assert evaluations == 4 * n_starts
        objective = functools.partial(fidelity_from_bloch, parts)
        reference = [serial_polish(objective, n0, 0, 0.05) for n0 in starts]
        # one-point kernel calls may round the last bit apart from batched ones
        np.testing.assert_allclose(values, [r[0] for r in reference], rtol=0, atol=1e-15)
        np.testing.assert_allclose(points, [r[1] for r in reference], rtol=0, atol=1e-15)


class TestSigmaDominance:
    def test_identity_everything(self):
        assert sigma_dominance_check(np.eye(2), np.eye(4), 50) == pytest.approx(1.0, abs=1e-12)

    def test_optimal_device_capped(self):
        v = optimal_interaction(1, 1)
        top = sigma_dominance_check(pauli(1), v, 2000, seed=7)
        f, sigma = fidelity_uv(pauli(1), v)
        assert f == pytest.approx(0.25, abs=1e-12)
        assert top <= f + 1e-10

    def test_random_dominance(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            u, v = haar_unitary(2, rng), haar_unitary(4, rng)
            f, _ = fidelity_uv(u, v)
            assert sigma_dominance_check(u, v, 500, seed=trial) <= f + 1e-10


    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(17)
        devices = [optimal_interaction(1, 1), canonical_gate([0.3, 0.2, 0.1])]
        devices += [haar_unitary(4, rng) for _ in range(3)]
        for seed, v in enumerate(devices):
            u = haar_unitary(2, rng)
            for n in (1, 7, 300):
                batched = sigma_dominance_check(u, v, n, seed=seed)
                assert batched == pytest.approx(sigma_dominance_loop(u, v, n, seed=seed), abs=1e-15)

    def test_no_samples(self):
        assert sigma_dominance_check(np.eye(2), np.eye(4), 0) == 0.0
        with pytest.raises(ContractError):
            sigma_dominance_check(np.eye(2), np.eye(4), -1)

    @pytest.mark.parametrize(
        "n, message",
        [
            (2.5, "sample count must be an integer, got 2.5"),
            (True, "sample count must be an integer, got True"),
            (-1, "sample count must be >= 0, got -1"),
        ],
        ids=["float", "bool", "negative"],
    )
    def test_bad_sample_count(self, n, message):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            sigma_dominance_check(np.eye(2), np.eye(4), n)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must be >= 0, got -1"),
            (1.5, "seed must be an integer, got 1.5"),
            (True, "seed must be an integer, got True"),
        ],
        ids=["negative", "float", "bool"],
    )
    def test_bad_seed(self, seed, message):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            sigma_dominance_check(np.eye(2), np.eye(4), 10, seed=seed)

    def test_invalid_target_rejected(self):
        with pytest.raises(ContractError):
            sigma_dominance_check(np.ones((2, 2)), np.eye(4), 10)


class TestProgramOverlapStack:
    def test_stack_matches_single(self):
        # and the trace form (1/4) Tr[sigma^T S^dag S] it replaces
        rng = np.random.default_rng(19)
        for _ in range(10):
            u, v = haar_unitary(2, rng), haar_unitary(4, rng)
            sigmas = np.concatenate([random_programs(rng, 199), [np.eye(2) / 2]])
            values = program_overlap(u, v, sigmas)
            assert values.shape == (200,)
            single = [program_overlap(u, v, sigma) for sigma in sigmas]
            np.testing.assert_allclose(values, single, rtol=0, atol=1e-15)
            s = s_operator(u, v)
            product = np.swapaxes(sigmas, -1, -2) @ s.conj().T @ s
            traced = np.trace(product, axis1=-2, axis2=-1).real / 4.0
            np.testing.assert_allclose(values, traced, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 0.3], [0.1, 0.5]]),  # not Hermitian
            np.array([[0.6, 0.0], [0.0, 0.6]]),  # trace 1.2
            np.array([[1.2, 0.0], [0.0, -0.2]]),  # negative eigenvalue
            np.array([[np.nan, 0.0], [0.0, 0.5]]),
        ],
    )
    def test_invalid_program_in_stack_raises(self, bad):
        rng = np.random.default_rng(23)
        sigmas = np.array([random_density(rng) for _ in range(5)])
        sigmas[3] = bad
        with pytest.raises(ContractError, match="program state 3"):
            program_overlap(np.eye(2), np.eye(4), sigmas)
        with pytest.raises(ContractError, match="program state is not"):
            program_overlap(np.eye(2), np.eye(4), bad)

    def test_stack_shape_checked(self):
        with pytest.raises(DimensionError):
            program_overlap(np.eye(2), np.eye(4), np.zeros((3, 4, 4)))


class TestRandomDensity:
    def test_valid_states(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rho = random_density(rng)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_batch_is_sequential_stream(self):
        batch = _random_densities(np.random.default_rng(4), 30)
        rng = np.random.default_rng(4)
        single = np.array([random_density(rng) for _ in range(30)])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)

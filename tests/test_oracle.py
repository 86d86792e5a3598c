import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    ADVERSARIAL_ALPHAS,
    ADVERSARIAL_SCALES,
    adversarial_devices,
    bloch_parts,
    controlled_device,
    dressed,
    gram_forms,
    materialized_scan,
    projector_densities,
    random_chamber_alpha,
    random_programs,
    sigma_dominance_loop,
    sweep_values,
    witness_candidates,
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
    program_overlap,
    random_density,
    s_operator,
    sample_su2,
    sigma_dominance_check,
    worst_case_fidelity,
)
from progchan import kernels, oracle
from progchan.kernels import device_parts, fidelity_from_bloch_batch
from progchan.oracle import _ALPHAS, AXIS_POINTS, _random_densities
from progchan.pauli import pauli


# the sweep reads each point off the rotation table's coordinates, so it
# rounds apart from the kernel on the built rows by a few ulps of f
SWEEP_ATOL = 2e-15


def gram_witness(v):
    """The scan's (lower_bound, top of h_0/8, witness candidates) for the device v, without the sweep."""
    return oracle._gram_witness(*kernels._scan_forms(v))


def lower_bound(v):
    """The scan's lower_bound for the device v, without the sweep."""
    return gram_witness(v)[0]


def witnesses(v):
    """The scan's four witness candidates for the device v."""
    return gram_witness(v)[2]


def witness_value(v):
    """The lowest kernel value of the four witness candidates: the sweep's ceiling."""
    return float(fidelity_from_bloch_batch(device_parts(v), witnesses(v)).min())


def full_sweep_scan(v, config):
    """minimax_scan with a margin no bound exceeds, so that its sweep skips no row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_PRUNE_MARGIN", np.inf)
        return minimax_scan(v, config)


def assert_same_result(got, want):
    """Two ScanResults equal field for field, bit for bit."""
    assert (got.f_min, got.gap_to_closed_form) == (want.f_min, want.gap_to_closed_form)
    assert (got.evaluations, got.lower_bound) == (want.evaluations, want.lower_bound)
    assert got.worst_bloch.tobytes() == want.worst_bloch.tobytes()


def swept_blocks(forms, offset, n, ceiling=np.inf):
    """``_sweep``'s blocks as (rows, values) arrays, the values copied as they come."""
    blocks = oracle._sweep(forms, offset, n, ceiling)
    return [(np.arange(start, start + len(values)), values.copy()) for start, values in blocks]


def assert_matches_materialized(v, config):
    """minimax_scan against ``materialized_scan``; returns the result and the sweep minimum.

    The reference builds Q and D by other routes, so the witness values may
    round apart, within the gap bound.  The scan picks its row by the sweep's
    values, each within SWEEP_ATOL of the kernel's, so where the objective is
    flat to rounding it may pick another row, at most 2 SWEEP_ATOL higher.
    """
    result = minimax_scan(v, config)
    f_min, worst, evaluations, sweep_min = materialized_scan(v, config)
    assert result.evaluations == evaluations == config.resolution + 4
    assert abs(result.f_min - f_min) <= 1e-13
    assert result.f_min <= sweep_min + 2 * SWEEP_ATOL
    # the reported point attains f_min (batches of 2+ rows round alike)
    parts = device_parts(v)
    again = fidelity_from_bloch_batch(parts, np.array([result.worst_bloch] * 2))
    np.testing.assert_array_equal(again, [result.f_min] * 2)
    if result.f_min == f_min == sweep_min:
        np.testing.assert_array_equal(result.worst_bloch, worst)
    return result, sweep_min


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
        # reference, bit for bit: k = 4096 q + j by divmod, and sin + i cos of
        # each angle is the table entry at j times cos b - i sin b of period q
        turns = 2 * np.pi * np.mod(np.arange(4096)[:, None] * _ALPHAS[1:], 1.0)
        table = np.sin(turns) + 1j * np.cos(turns)
        for seed, resolution in ((0, 100_000), (5, 2000), (11, 109), (3, 100), (2, 4096 + 9)):
            pts = sample_su2(ScanConfig(resolution=resolution, seed=seed))
            offset = np.random.default_rng(seed).random(3)
            idx = np.arange(1, resolution - len(AXIS_POINTS) + 1)
            q, j = np.divmod(idx, 4096)
            b = 2 * np.pi * np.mod(offset[1:] + (4096 * q)[:, None] * _ALPHAS[1:], 1.0)
            rot = table[j] * (np.cos(b) - 1j * np.sin(b))
            u0 = np.mod(offset[0] + idx * _ALPHAS[0], 1.0)
            r_low, r_high = np.sqrt(1.0 - u0), np.sqrt(u0)
            expected = np.column_stack(
                [
                    r_low * rot[:, 0].real,
                    r_low * rot[:, 0].imag,
                    r_high * rot[:, 1].real,
                    r_high * rot[:, 1].imag,
                ]
            )
            np.testing.assert_array_equal(pts[len(AXIS_POINTS) :], expected)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_close_to_trig_recurrence(self, seed):
        # the recurrence with one sin or cos per angle rounds alpha k apart
        # from the table's split of k, by ~1e-10 at 100k points
        pts = sample_su2(ScanConfig(resolution=100_000, seed=seed))
        offset = np.random.default_rng(seed).random(3)
        idx = np.arange(1, len(pts) - len(AXIS_POINTS) + 1)[:, None]
        u = np.mod(offset + idx * _ALPHAS, 1.0)
        azim, polar = 2 * np.pi * u[:, 1], 2 * np.pi * u[:, 2]
        r_low, r_high = np.sqrt(1.0 - u[:, 0]), np.sqrt(u[:, 0])
        expected = np.column_stack(
            [r_low * np.sin(azim), r_low * np.cos(azim), r_high * np.sin(polar), r_high * np.cos(polar)]
        )
        np.testing.assert_allclose(pts[len(AXIS_POINTS) :], expected, rtol=0, atol=1e-9)

    def test_rotation_table_shared_and_read_only(self):
        table = oracle._rotation_table()
        assert table is oracle._rotation_table()
        assert table.shape == (4096, 2) and table.dtype == complex
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0

    def test_monomial_table_shared_and_read_only(self):
        table = oracle._monomial_table()
        assert table is oracle._monomial_table()
        assert table.shape == (10, 4096) and table.dtype == float
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
        # the products tau_mu tau_nu of each entry's (Re, Im) parts, grouped by weight
        tau = oracle._rotation_table().view(float)
        pairs = [(0, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
        np.testing.assert_array_equal(table, [tau[:, mu] * tau[:, nu] for mu, nu in pairs])

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
            ("seed", np.True_),
            ("resolution", np.float64(200.0)),
        ]:
            with pytest.raises(ContractError, match=f"{field} must be an integer"):
                ScanConfig(**{field: value})
        config = ScanConfig(resolution=np.int64(200), refine_steps=np.int32(5), seed=np.uint8(3))
        assert sample_su2(config).shape == (200, 4)

    def test_config_bounds(self):
        # each bound is accepted; nothing is allocated here, so no scan runs at it
        config = ScanConfig(resolution=oracle.MAX_RESOLUTION, sigma_samples=oracle.MAX_SIGMA_SAMPLES)
        assert (config.resolution, config.sigma_samples) == (10**8, 10**6)
        for field, cap in [("resolution", "MAX_RESOLUTION"), ("sigma_samples", "MAX_SIGMA_SAMPLES")]:
            with pytest.raises(ContractError, match=f"^{field} must be <= {cap} = "):
                ScanConfig(**{field: getattr(oracle, cap) + 1})

    def test_sigma_check_count_bound(self):
        # refused before any program is drawn
        with pytest.raises(ContractError, match="^sample count must be <= MAX_SIGMA_SAMPLES = "):
            sigma_dominance_check(np.eye(2), np.eye(4), 10**15)


class TestMinimaxScan:
    def test_optimal_device(self):
        result = minimax_scan(optimal_interaction(1, 1), ScanConfig(resolution=5000, seed=0))
        assert 0.25 - 1e-9 <= result.f_min <= 0.25 + 2e-3
        assert abs(result.gap_to_closed_form) <= 1e-13
        assert result.evaluations == 5004

    def test_identity_device_hits_zero(self):
        result = minimax_scan(np.eye(4), ScanConfig(resolution=500, seed=0))
        assert result.f_min <= 1e-12
        # the sigma_x axis point is an exact minimizer
        assert abs(np.abs(result.worst_bloch[1]) - 1.0) < 1e-12

    def test_one_sided_gap_random_devices(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = canonical_gate(random_chamber_alpha(rng))
            result = minimax_scan(v, ScanConfig(resolution=2000, seed=2))
            assert result.gap_to_closed_form >= -1e-9
            assert result.gap_to_closed_form <= 1e-13

    def test_deterministic(self):
        v = canonical_gate([0.3, 0.2, 0.1])
        cfg = ScanConfig(resolution=1500, seed=9)
        r1 = minimax_scan(v, cfg)
        r2 = minimax_scan(v, cfg)
        assert r1.f_min == r2.f_min
        np.testing.assert_array_equal(r1.worst_bloch, r2.worst_bloch)
        assert r1.evaluations == r2.evaluations

    def test_monotone_under_doubling(self):
        v = canonical_gate([0.35, 0.15, -0.05])
        lo = minimax_scan(v, ScanConfig(resolution=1000, seed=4))
        hi = minimax_scan(v, ScanConfig(resolution=2000, seed=4))
        assert hi.f_min <= lo.f_min + 1e-12

    def test_repeated_haar_scans_identical(self):
        rng = np.random.default_rng(21)
        for seed in range(3):
            v = haar_unitary(4, rng)
            cfg = ScanConfig(resolution=3000, seed=seed)
            first = minimax_scan(v, cfg)
            minimax_scan(haar_unitary(4, rng), cfg)  # an unrelated scan in between
            again = minimax_scan(v, cfg)
            assert again.f_min == first.f_min
            assert again.evaluations == first.evaluations
            np.testing.assert_array_equal(again.worst_bloch, first.worst_bloch)

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        minimax_scan(np.eye(4), ScanConfig(resolution=300, seed=0), trace_path=path)
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
    # sample sizes around the rotation table's 4096-point periods: 4104 rows
    # leave a lone point in the last period, and sequence lengths of 4096 + a few
    RESOLUTIONS = (100, 4096, 4097, 4098, 2 * 4096 + 1, 4104, 4105, 4106, 2 * 4096 + 9, 100_000)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_sweep_matches_full_sample(self, seed):
        rng = np.random.default_rng(seed)
        devices = [haar_unitary(4, rng), canonical_gate(random_chamber_alpha(rng))]
        devices += [canonical_gate(alpha) for alpha in ADVERSARIAL_ALPHAS.values()]
        offset = oracle._offset(ScanConfig(seed=seed))
        for v in devices:
            parts = device_parts(v)
            longest = sweep_values(parts, offset, max(self.RESOLUTIONS))
            for resolution in self.RESOLUTIONS:
                swept = sweep_values(parts, offset, resolution)
                sample = sample_su2(ScanConfig(resolution=resolution, seed=seed))
                want = fidelity_from_bloch_batch(parts, sample)
                np.testing.assert_allclose(swept, want, rtol=0, atol=SWEEP_ATOL)
                # the axis rows go through the kernel
                np.testing.assert_array_equal(swept[: len(AXIS_POINTS)], want[: len(AXIS_POINTS)])
                # no value depends on n, not even a lone last point's (4104 rows)
                np.testing.assert_array_equal(swept, longest[:resolution])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_sweep_above_bound_and_f_min_is_kernel_value(self, device_seed, seed):
        v = haar_unitary(4, np.random.default_rng(device_seed))
        config = ScanConfig(resolution=4105, seed=seed)
        parts = device_parts(v)
        result = minimax_scan(v, config)
        values = sweep_values(parts, oracle._offset(config), config.resolution)
        assert values.min() >= result.lower_bound - 1e-15
        again = fidelity_from_bloch_batch(parts, [result.worst_bloch] * 2)
        np.testing.assert_array_equal(again, [result.f_min] * 2)

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
            # sequence indices 4095-4097 and 8191-8193 straddle the rotation
            # table's periods; rows 4103 and 8199 start one, row 7 the first
            np.arange(4102, 4105),
            np.arange(8198, 8201),
            [4103],
            [8199],
            [7],
            [8199, 4103, 4102, 8200, 8],
        ]
        # 4096-row ranges, and ones across the axis rows
        for start, stop in ((0, 3), (2, 8), (5, 4101), (8, 9), (4096, 8192), (99_999, 100_000)):
            index_sets.append(np.arange(start, stop))
        for rows in index_sets:
            got = oracle._sample_rows(offset, rows)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, full[rows])
        # pieces of 4096 rows give sample_su2's bits at 4096 rows and one more,
        # two pieces and two rows (no lone last row), and many pieces
        pieces = {
            4097: [(0, 4097)],
            8194: [(0, 4096), (4096, 8194)],
            100_000: [(a, min(a + 4096, 100_000)) for a in range(0, 100_000, 4096)],
        }
        for resolution, bounds in pieces.items():
            whole = sample_su2(ScanConfig(resolution=resolution, seed=seed))
            blocked = np.concatenate([oracle._sample_rows(offset, np.arange(a, b)) for a, b in bounds])
            np.testing.assert_array_equal(blocked, whole)

    # flat devices, where many rows tie, and Haar ones
    ARGMIN_DEVICES = (
        np.eye(4),
        optimal_interaction(1, 1),
        np.eye(4)[[0, 2, 1, 3]],  # SWAP
        *(haar_unitary(4, np.random.default_rng(seed)) for seed in (3, 4)),
    )

    @pytest.mark.parametrize("resolution", [100, 4104, 4105, 10_000, 100_000])
    def test_row_is_first_minimum(self, resolution, monkeypatch):
        # the scan re-reads one row through one one-row _sample_rows call: the
        # full sweep's first minimum whenever that row could win the final batch
        sample_rows, read = oracle._sample_rows, []

        def spy(offset, rows):
            read.append(list(rows))
            return sample_rows(offset, rows)

        monkeypatch.setattr(oracle, "_sample_rows", spy)
        for k, v in enumerate(self.ARGMIN_DEVICES):
            config = ScanConfig(resolution=resolution, seed=k)
            forms, offset = device_parts(v), oracle._offset(config)
            values = sweep_values(forms, offset, resolution)
            assert not np.isnan(values).any()
            read.clear()
            result = minimax_scan(v, config)
            [[row]] = read
            # the row np.argmin picks: axis rows first, ties to the lower row
            first = int(np.argmin(values))
            at_row, at_first = (
                fidelity_from_bloch_batch(forms, sample_rows(offset, [i, i]))[0] for i in (row, first)
            )
            ceiling = witness_value(v)
            if at_first <= ceiling:
                assert row == first
            else:
                # neither row wins: the witness is f_min, as after a full sweep
                assert at_row > ceiling and result.f_min == ceiling
            assert_same_result(result, full_sweep_scan(v, config))

    def test_blocks_are_contiguous_from_the_axis_rows(self):
        # with no ceiling the blocks tile the rows in order
        forms = device_parts(haar_unitary(4, np.random.default_rng(8)))
        offset = oracle._offset(ScanConfig(seed=8))
        for resolution in self.RESOLUTIONS:
            blocks = [(start, len(values)) for start, values in oracle._sweep(forms, offset, resolution)]
            assert blocks[0] == (0, len(AXIS_POINTS))
            # then one block per period k // 4096 of sequence indices k = 1..n - 8
            assert len(blocks) == 2 + (resolution - len(AXIS_POINTS)) // 4096
            ends = [start + size for start, size in blocks]
            assert [start for start, _ in blocks[1:]] == ends[:-1]
            assert ends[-1] == resolution

    @staticmethod
    def ceiling_devices(rng):
        return [
            haar_unitary(4, rng),
            dressed(random_chamber_alpha(rng), rng),
            canonical_gate(random_chamber_alpha(rng)),
            dressed(ADVERSARIAL_ALPHAS["a1-eq-a2"], rng),
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.floats(0, 1),
        st.sampled_from([100, 4104, 4105, 10_000]),
    )
    def test_ceiling_keeps_every_row_that_can_reach_it(self, device_seed, seed, level, resolution):
        rng = np.random.default_rng(device_seed)
        v = self.ceiling_devices(rng)[device_seed % 4]
        forms, offset = device_parts(v), oracle._offset(ScanConfig(seed=seed))
        full = sweep_values(forms, offset, resolution)
        # ceilings from the bound up to the largest value, most of them low
        bound = lower_bound(v)
        ceiling = bound + level**4 * (full.max() - bound)
        blocks = swept_blocks(forms, offset, resolution, ceiling)
        # the axis block, then whole periods: none skipped after the first one yielded
        whole = [(start, len(values)) for start, values in oracle._sweep(forms, offset, resolution)]
        kept = [(rows[0], len(rows)) for rows, _ in blocks]
        assert kept == whole[:1] + whole[len(whole) + 1 - len(kept) :]
        rows = np.concatenate([rows for rows, _ in blocks])
        values = np.concatenate([values for _, values in blocks])
        assert np.all(np.diff(rows) > 0) and rows[-1] < resolution
        # the full sweep's bits at every row yielded
        assert values.tobytes() == full[rows].tobytes()
        # every row that could reach the ceiling is yielded; a skipped one lies above it
        reach = np.flatnonzero(full <= ceiling + oracle._PRUNE_MARGIN)
        assert np.isin(reach, rows).all()
        skipped = np.setdiff1d(np.arange(resolution), rows)
        assert np.all(full[skipped] > ceiling + oracle._PRUNE_MARGIN / 2)

    @staticmethod
    def h0_over_8(forms, config):
        """h_0/8 at every row of the sample, by the kernel's monomials."""
        return (kernels.pack(forms)[0] @ kernels.monomials(sample_su2(config).T)) / 8

    def test_lone_survivor_in_a_block(self):
        # the ceiling at the sequence rows' lowest h_0/8 leaves that row alone
        # within the margin; it lies in period 1 (rows 4103..8198), so period 0
        # is skipped and period 1 comes whole, as do the later ones, in mid-block
        # and as the sample's last row
        v = haar_unitary(4, np.random.default_rng(12))
        config = ScanConfig(resolution=10_000, seed=12)
        forms, offset = device_parts(v), oracle._offset(config)
        full = sweep_values(forms, offset, 10_000)
        h0 = self.h0_over_8(forms, config)[len(AXIS_POINTS) :]
        row = len(AXIS_POINTS) + int(np.argmin(h0))
        assert 4103 < row < 8198 and np.sort(h0)[1] > h0.min() + 2 * oracle._PRUNE_MARGIN
        for resolution in (10_000, row + 1):
            blocks = swept_blocks(forms, offset, resolution, h0.min())
            assert [rows[0] for rows, _ in blocks] == [0, 4103, 8199][: len(blocks)]
            assert blocks[-1][0][-1] == resolution - 1
            for rows, values in blocks:
                assert values.tobytes() == full[rows].tobytes()

    def test_lone_row_of_a_period(self):
        # at 9 rows period 0 holds row 8 alone, computed with row 9's point;
        # that point's lower h_0/8 neither keeps row 8 nor changes its value
        v = haar_unitary(4, np.random.default_rng(14))
        forms, offset = device_parts(v), oracle._offset(ScanConfig(seed=3))
        full = sweep_values(forms, offset, 10)
        h0 = self.h0_over_8(forms, ScanConfig(resolution=100, seed=3))
        below = h0[8] - 10 * oracle._PRUNE_MARGIN
        assert h0[9] < below
        blocks = swept_blocks(forms, offset, 9, h0[8])
        assert [rows.tolist() for rows, _ in blocks] == [list(range(8)), [8]]
        assert blocks[1][1].tobytes() == full[8:9].tobytes()
        assert [rows.tolist() for rows, _ in swept_blocks(forms, offset, 9, below)] == [list(range(8))]

    def test_scan_where_no_sequence_row_survives(self, monkeypatch):
        batches = []

        def spy(forms, ns):
            batches.append(np.array(ns))
            return fidelity_from_bloch_batch(forms, ns)

        rng = np.random.default_rng(13)
        for k, v in enumerate([dressed(random_chamber_alpha(rng, interior=True), rng) for _ in range(3)]):
            config = ScanConfig(resolution=100_000, seed=k)
            forms, offset = device_parts(v), oracle._offset(config)
            # only the axis rows come through: the final batch is an axis row and the candidates
            blocks = oracle._sweep(forms, offset, config.resolution, witness_value(v))
            assert [(start, len(values)) for start, values in blocks] == [(0, len(AXIS_POINTS))]
            monkeypatch.setattr(oracle, "fidelity_from_bloch_batch", spy)
            batches.clear()
            result = minimax_scan(v, config)
            monkeypatch.undo()
            assert [len(batch) for batch in batches] == [4, len(AXIS_POINTS), 5]
            assert result.f_min == witness_value(v)
            assert_same_result(result, full_sweep_scan(v, config))

    @pytest.mark.parametrize("resolution", [4104, 4105, 2 * 4096 + 9])
    def test_trace_equals_the_whole_sample(self, tmp_path, resolution):
        # the reference is the trace as it was built before it streamed: the
        # whole sample_su2 array and the whole array of sweep values
        path = tmp_path / "trace.csv"
        devices = (np.eye(4), optimal_interaction(1, -1), haar_unitary(4, np.random.default_rng(9)))
        for k, v in enumerate(devices):
            config = ScanConfig(resolution=resolution, seed=k)
            minimax_scan(v, config, trace_path=path)
            values = sweep_values(device_parts(v), oracle._offset(config), resolution)
            lines = ["index,n0,n1,n2,n3,fidelity"]
            for i, (p, f) in enumerate(zip(sample_su2(config), values)):
                lines.append(",".join([str(i), *(repr(float(x)) for x in (*p, f))]))
            assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()

    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_period_coefficients_are_one_product_per_period(self, seed):
        # the stacked product equals, bit for bit, one product per period q with
        # R_q built from angles computed here by the same operations
        rng = np.random.default_rng(seed)
        devices = [haar_unitary(4, rng) for _ in range(10)]
        devices += [canonical_gate(random_chamber_alpha(rng)), optimal_interaction(1, 1), np.eye(4)]
        offset = oracle._offset(ScanConfig(seed=seed))
        periods = 245  # a million points
        rotations = []
        for q in range(periods):
            turns = _ALPHAS[1:] * (q << 12)
            turns += offset[1:]
            turns -= np.floor(turns)
            turns *= 2 * np.pi
            (c_azim, c_polar), (s_azim, s_polar) = np.cos(turns), np.sin(turns)
            rotation = np.zeros((4, 4))
            rotation[:2, :2] = [[c_azim, s_azim], [-s_azim, c_azim]]
            rotation[2:, 2:] = [[c_polar, s_polar], [-s_polar, c_polar]]
            rotations.append(rotation)
        for v in devices:
            forms = device_parts(v)
            stacked = oracle._period_coefficients(forms, offset, periods)
            assert stacked.shape == (periods, 4, 10)
            for q, rotation in enumerate(rotations):
                single = kernels.pack(rotation.T @ forms @ rotation)[..., oracle._SWEEP_ROWS]
                np.testing.assert_array_equal(stacked[q], single)

    @staticmethod
    def traced_peak(v, config, trace_path=None):
        tracemalloc.start()
        try:
            minimax_scan(v, config, trace_path=trace_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("resolution", [100_000, 200_000, 400_000])
    def test_traced_scan_memory_is_bounded_by_the_block(self, tmp_path, resolution):
        # the trace held the whole sample and every value: 9.3, 18.5 and 36.8 MiB
        v = canonical_gate([0.3, 0.2, 0.1])
        minimax_scan(v, ScanConfig(resolution=5000, seed=1), trace_path=tmp_path / "warm.csv")
        peak = self.traced_peak(v, ScanConfig(resolution=resolution, seed=1), tmp_path / "trace.csv")
        assert peak < 4 * 2**20

    def test_trace_path_checked_before_the_sweep(self, tmp_path, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before the trace was opened")

        monkeypatch.setattr(oracle, "_period_coefficients", no_sweep)
        with pytest.raises(FileNotFoundError):
            minimax_scan(np.eye(4), ScanConfig(resolution=200), trace_path=tmp_path / "missing" / "t.csv")

    def test_peak_memory_independent_of_sample(self):
        v = canonical_gate([0.3, 0.2, 0.1])
        minimax_scan(v, ScanConfig(resolution=5000, seed=1))  # warm-up
        small, large = (self.traced_peak(v, ScanConfig(resolution=n, seed=1)) for n in (100_000, 400_000))
        # a materialized sample adds 32 B per point of coordinates and more in temporaries
        assert large < 24 * 400_000 + 2_000_000
        # no value is kept per point; only the period coefficients grow, ~1 KB per 4096 points
        assert large - small < 400_000 - 100_000

    def test_matches_materialized_scan(self):
        rng = np.random.default_rng(41)
        devices = [haar_unitary(4, rng) for _ in range(6)]
        devices += [canonical_gate(random_chamber_alpha(rng)) for _ in range(4)]
        devices += [optimal_interaction(1, 1), np.eye(4, dtype=complex)]
        for k, v in enumerate(devices):
            for resolution in (10_000, 4097, 8201):
                assert_matches_materialized(v, ScanConfig(resolution=resolution, seed=k))


    @pytest.mark.parametrize("resolution", [10_000, 100_000])
    def test_pruned_scan_equals_full_sweep_and_materialized(self, resolution):
        rng = np.random.default_rng(71)
        devices = [haar_unitary(4, rng) for _ in range(44)]
        devices += [canonical_gate(random_chamber_alpha(rng)) for _ in range(30)]
        devices += [dressed(random_chamber_alpha(rng), rng) for _ in range(30)]
        devices += [canonical_gate(alpha) for alpha in ADVERSARIAL_ALPHAS.values()]
        devices += [dressed(alpha, rng) for alpha in ADVERSARIAL_ALPHAS.values()]
        devices += [controlled_device(haar_unitary(2, rng), haar_unitary(2, rng)) for _ in range(20)]
        devices += [optimal_interaction(sx, sz) for sx in (1, -1) for sz in (1, -1)]
        devices += [np.eye(4, dtype=complex), np.eye(4)[[0, 2, 1, 3]]]
        assert len(devices) >= 150
        for k, v in enumerate(devices):
            config = ScanConfig(resolution=resolution, seed=k)
            result, _ = assert_matches_materialized(v, config)
            assert_same_result(result, full_sweep_scan(v, config))


class TestLowerBound:
    """The proven bound lambda_min(Q)/8, which no kernel value undercuts."""

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
            values = sweep_values(parts, oracle._offset(ScanConfig(seed=k)), 4105)
            assert values.min() >= lower_bound(v) - 1e-15

    def test_matches_closed_form(self):
        rng = np.random.default_rng(51)
        grid = np.linspace(-np.pi / 4, np.pi / 4, 13)
        devices = [haar_unitary(4, rng) for _ in range(300)]
        devices += adversarial_devices(rng, 3)
        devices += [dressed(alpha, rng) for alpha in itertools.product(grid, repeat=3)]
        for v in devices:
            bound = lower_bound(v)
            assert abs(bound - worst_case_fidelity(v).fidelity) <= 1e-14

    def test_dressed_devices_match_reference(self):
        rng = np.random.default_rng(54)
        interior = [dressed(random_chamber_alpha(rng, interior=True), rng) for _ in range(6)]
        devices = interior + [dressed(alpha, rng) for alpha in ADVERSARIAL_ALPHAS.values()]
        for k, v in enumerate(devices):
            result, sweep_min = assert_matches_materialized(v, ScanConfig(resolution=4105, seed=k))
            assert abs(result.gap_to_closed_form) <= 1e-13
            # an interior dressed core's minimizer is no sample row: the witness wins
            if k < len(interior):
                assert result.f_min < sweep_min


class TestWitness:
    """The Gram witness: four kernel points, one of which meets lambda_min(Q)/8."""

    @staticmethod
    def witness_gap(v):
        values = fidelity_from_bloch_batch(device_parts(v), witnesses(v))
        return values.min() - worst_case_fidelity(v).fidelity

    @staticmethod
    def exact_sets(rng):
        """Device sets on which the witness meets F(V) to rounding."""
        adversarial = [canonical_gate(alpha) for alpha in ADVERSARIAL_ALPHAS.values()]
        adversarial += [dressed(alpha, rng) for alpha in ADVERSARIAL_ALPHAS.values() for _ in range(3)]
        return {
            "haar": [haar_unitary(4, rng) for _ in range(100)],
            "optimal-core": [optimal_interaction(sx, sz) for sx in (1, -1) for sz in (1, -1)],
            "chamber": [canonical_gate(random_chamber_alpha(rng)) for _ in range(30)],
            "dressed": [dressed(random_chamber_alpha(rng), rng) for _ in range(30)],
            "adversarial": adversarial + [np.eye(4, dtype=complex)],
        }

    @staticmethod
    def perturbed(rng, draws):
        """Dressed ADVERSARIAL_ALPHAS devices perturbed at every non-zero scale."""
        return [
            dressed(np.array(alpha) + scale * rng.uniform(-1, 1, 3), rng)
            for alpha in ADVERSARIAL_ALPHAS.values()
            for scale in ADVERSARIAL_SCALES[1:]
            for _ in range(draws)
        ]

    def test_gap_per_device_set(self):
        rng = np.random.default_rng(60)
        for name, devices in self.exact_sets(rng).items():
            worst = max(abs(self.witness_gap(v)) for v in devices)
            assert worst <= 1e-13, name
        assert max(abs(self.witness_gap(v)) for v in self.perturbed(rng, 3)) <= 1e-7

    def test_gap_on_dressed_chamber_grid(self):
        # corners, edges and faces included: bottom eigenspaces of dimension 1 to 4
        rng = np.random.default_rng(61)
        grid = np.linspace(-np.pi / 4, np.pi / 4, 13)
        for alpha in itertools.product(grid, repeat=3):
            assert abs(self.witness_gap(dressed(alpha, rng))) <= 1e-13, alpha

    @pytest.mark.parametrize("resolution", [10_000, 100_000])
    def test_scan_gap_at_both_resolutions(self, resolution):
        rng = np.random.default_rng(62)
        sets = {name: devices[:3] for name, devices in self.exact_sets(rng).items()}
        sets["perturbed"] = self.perturbed(rng, 1)[::4]
        for name, devices in sets.items():
            bound = 1e-7 if name == "perturbed" else 1e-13
            for k, v in enumerate(devices):
                result = minimax_scan(v, ScanConfig(resolution=resolution, seed=k))
                assert abs(result.gap_to_closed_form) <= bound, name
                assert result.f_min >= result.lower_bound - 1e-15, name

    def test_no_candidate_below_bound(self):
        rng = np.random.default_rng(63)
        devices = [v for vs in self.exact_sets(rng).values() for v in vs] + self.perturbed(rng, 1)
        for v in devices:
            parts = device_parts(v)
            candidates = witnesses(v)
            np.testing.assert_allclose(np.linalg.norm(candidates, axis=1), 1.0, rtol=0, atol=1e-15)
            values = fidelity_from_bloch_batch(parts, candidates)
            assert values.min() >= lower_bound(v) - 1e-15

    def test_forms_match_second_route(self):
        rng = np.random.default_rng(64)
        devices = [haar_unitary(4, rng) for _ in range(50)] + adversarial_devices(rng, 1)
        for v in devices:
            parts = bloch_parts(v)
            q, d = gram_forms(parts)
            forms, det_form = kernels._scan_forms(v)
            gram = forms[0]
            # a few ulps of the largest entry (|D| reaches ~3.6): det's LU
            # route rounds apart from the entry products
            np.testing.assert_allclose(det_form, d, rtol=0, atol=2e-15 * np.abs(d).max())
            np.testing.assert_allclose(gram, q, rtol=0, atol=2e-15 * np.abs(q).max())
            for _ in range(3):
                n = rng.normal(size=4)
                s = np.einsum("m,mab->ab", n, parts)
                assert abs(n @ det_form @ n - np.linalg.det(s)) <= 1e-14
                assert abs(n @ gram @ n - np.sum(np.abs(s) ** 2)) <= 1e-14

    def test_candidates_match_serial_construction(self):
        # a stacked eigensolve over the angle grid against one angle at a time,
        # on Q and D from the second route.  Perturbed devices are left out:
        # rounding moves the eigenvectors of their nearly tied eigenvalues, so
        # there the routes agree only to the gap bound (test_gap_per_device_set)
        rng = np.random.default_rng(65)
        for v in (v for devices in self.exact_sets(rng).values() for v in devices):
            parts = device_parts(v)
            ours = fidelity_from_bloch_batch(parts, witnesses(v))
            theirs = fidelity_from_bloch_batch(parts, witness_candidates(bloch_parts(v)))
            # both meet F to the gap bound; rounding in Q alone moves them ~1e-14 apart
            assert abs(ours.min() - theirs.min()) <= 1e-13

    def test_one_witness_call(self, monkeypatch):
        batches = []

        def spy(parts, ns):
            batches.append(np.array(ns))
            return fidelity_from_bloch_batch(parts, ns)

        monkeypatch.setattr(oracle, "fidelity_from_bloch_batch", spy)
        rng = np.random.default_rng(66)
        for v in (haar_unitary(4, rng), optimal_interaction(1, 1)):
            for resolution in (100, 4100, 10_000):
                config = ScanConfig(resolution=resolution, seed=1)
                forms, sample = device_parts(v), sample_su2(config)
                first = int(np.argmin(sweep_values(forms, oracle._offset(config), resolution)))
                at_first = fidelity_from_bloch_batch(forms, sample[[first, first]])[0]
                ceiling = witness_value(v)
                batches.clear()
                result = minimax_scan(v, config)
                assert result.evaluations == resolution + 4
                # the 4 witness candidates, the 8 axis rows, then one sweep row
                # with the candidates
                candidates, axis, points = batches
                np.testing.assert_array_equal(candidates, witnesses(v))
                np.testing.assert_array_equal(axis, AXIS_POINTS)
                np.testing.assert_array_equal(points[1:], witnesses(v))
                # the full sweep's first minimum whenever it could win; else the witness wins
                if at_first <= ceiling:
                    np.testing.assert_array_equal(points[0], sample[first])
                else:
                    assert result.f_min == ceiling


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
            (np.True_, f"sample count must be an integer, got {np.True_!r}"),
            (np.float64(2.0), f"sample count must be an integer, got {np.float64(2.0)!r}"),
            (-1, "sample count must be >= 0, got -1"),
            (np.int64(-1), "sample count must be >= 0, got -1"),
        ],
        ids=["float", "bool", "np.bool_", "np.float64", "negative", "np.int64"],
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
            (np.True_, f"seed must be an integer, got {np.True_!r}"),
            (np.float64(1.0), f"seed must be an integer, got {np.float64(1.0)!r}"),
            (np.int64(-1), "seed must be >= 0, got -1"),
        ],
        ids=["negative", "float", "bool", "np.bool_", "np.float64", "np.int64"],
    )
    def test_bad_seed(self, seed, message):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            sigma_dominance_check(np.eye(2), np.eye(4), 10, seed=seed)

    def test_numpy_integer_count_and_seed(self):
        u, v = pauli(1), optimal_interaction(1, 1)
        want = sigma_dominance_check(u, v, 10, seed=3)
        assert sigma_dominance_check(u, v, np.int64(10), seed=np.int64(3)) == want

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


def test_haar_stack_equals_single_draws():
    # a (30, 2, d, d) draw consumes the generator as 30 haar_unitary calls would
    for dim in (2, 4):
        gauss = np.random.default_rng(dim).normal(size=(30, 2, dim, dim))
        stack = oracle._haar_from_gaussian(gauss[:, 0] + 1j * gauss[:, 1])
        rng = np.random.default_rng(dim)
        assert all(np.array_equal(u, haar_unitary(dim, rng)) for u in stack)


class TestRandomDensity:
    def test_valid_states(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rho = random_density(rng)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_matches_projector_reference(self):
        for seed in range(100):
            for n in (1, 2, 7, 1000):
                got = _random_densities(np.random.default_rng(seed), n)
                want = projector_densities(np.random.default_rng(seed), n)
                # bit for bit, signed zeros included
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_batch_is_sequential_stream(self):
        batch = _random_densities(np.random.default_rng(4), 30)
        rng = np.random.default_rng(4)
        single = np.array([random_density(rng) for _ in range(30)])
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-15)

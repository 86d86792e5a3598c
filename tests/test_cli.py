import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import covariance_rows_loop, hadamard_rows_loop, scan_grid_loop, write_matrix

from progchan import (
    ContractError,
    KrausChannel,
    TVector,
    channel_fidelity,
    haar_unitary,
    obj_to_matrix,
    optimal_interaction,
    random_density,
)
from progchan import cli
from progchan.cli import main
from progchan.pauli import pauli


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(0)
    paths = {}
    paths["v_opt"] = tmp_path / "v_opt.json"
    write_matrix(optimal_interaction(1, 1), paths["v_opt"])
    paths["v_id"] = tmp_path / "v_id.json"
    write_matrix(np.eye(4), paths["v_id"])
    paths["u_id"] = tmp_path / "u_id.json"
    write_matrix(np.eye(2), paths["u_id"])
    paths["u_x"] = tmp_path / "u_x.json"
    write_matrix(pauli(1), paths["u_x"])
    paths["sigma"] = tmp_path / "sigma.json"
    write_matrix(random_density(rng), paths["sigma"])
    paths["v_haar"] = tmp_path / "v_haar.json"
    write_matrix(haar_unitary(4, rng), paths["v_haar"])
    paths["swap"] = tmp_path / "swap.json"
    write_matrix(
        np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
        paths["swap"],
    )
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWorstCase:
    def test_optimal_device(self, files, capsys):
        code, out, _ = run(capsys, "worst-case", "--v", files["v_opt"])
        assert code == 0
        rep = json.loads(out)
        assert rep["fidelity"] == pytest.approx(0.25, abs=1e-12)
        assert rep["epsilon"] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
        assert rep["argmin_j"] in range(4)
        assert len(rep["t"]) == 4

    def test_out_file(self, files, capsys):
        out_path = files["tmp"] / "report.json"
        code, out, _ = run(capsys, "worst-case", "--v", files["v_opt"], "--out", out_path)
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["fidelity"] == pytest.approx(0.25, abs=1e-12)


class TestChain:
    """worst-case's program state fed to program programs the worst target."""

    @pytest.mark.parametrize("device", ["v_haar", "v_opt", "v_id", "swap"])
    def test_worst_case_sigma_into_program(self, files, capsys, device):
        wc = files["tmp"] / "wc.json"
        assert run(capsys, "worst-case", "--v", files[device], "--out", wc)[0] == 0
        report = json.loads(wc.read_text())
        np.testing.assert_array_equal(obj_to_matrix(report["optimal_sigma"]), [[0.5, 0], [0, 0.5]])
        sigma = files["tmp"] / "wc_sigma.json"
        sigma.write_text(json.dumps(report["optimal_sigma"]))
        code, out, _ = run(capsys, "program", "--v", files[device], "--sigma", sigma)
        assert code == 0
        channel = KrausChannel(tuple(obj_to_matrix(k) for k in json.loads(out)["kraus"]))
        f = channel_fidelity(obj_to_matrix(report["worst_unitary"]), channel)
        assert abs(f - report["fidelity"]) <= 1e-10


class TestFidelity:
    def test_identity(self, files, capsys):
        code, out, _ = run(capsys, "fidelity", "--u", files["u_id"], "--v", files["v_id"])
        assert code == 0
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_with_sigma(self, files, capsys):
        code, out, _ = run(
            capsys, "fidelity", "--u", files["u_x"], "--v", files["v_id"], "--sigma", files["sigma"]
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["program"] == "given"
        assert rep["fidelity"] == pytest.approx(0.0, abs=1e-12)


class TestProgram:
    def test_swap_outputs_program(self, files, capsys):
        code, out, _ = run(
            capsys,
            "program", "--v", files["swap"], "--sigma", files["sigma"], "--rho", files["u_id"],
        )
        # rho = I2 is not a density matrix: parse succeeds, contract fails
        assert code == 2

    def test_swap_with_valid_rho(self, files, capsys):
        rho_path = files["tmp"] / "rho.json"
        write_matrix(np.diag([0.25, 0.75]), rho_path)
        code, out, _ = run(
            capsys, "program", "--v", files["swap"], "--sigma", files["sigma"], "--rho", rho_path
        )
        assert code == 0
        rep = json.loads(out)
        sigma = obj_to_matrix(json.loads(files["sigma"].read_text()))
        np.testing.assert_allclose(obj_to_matrix(rep["output"]), sigma, atol=1e-12)
        assert len(rep["kraus"]) >= 1


class TestOptimalV:
    def test_emit_circuit(self, files, capsys):
        code, out, _ = run(capsys, "optimal-v", "--sx", "1", "--sz", "-1", "--emit-circuit")
        assert code == 0
        rep = json.loads(out)
        assert rep["fidelity"] == pytest.approx(0.25, abs=1e-12)
        assert rep["circuit"][0] == "CNOT 0 1"
        assert len(rep["circuit"]) == 4


class TestDecompose:
    def test_haar(self, files, capsys):
        code, out, _ = run(capsys, "decompose", "--v", files["v_haar"])
        assert code == 0
        rep = json.loads(out)
        assert rep["residual"] <= 1e-9
        assert len(rep["alpha"]) == 3
        assert np.pi / 4 + 1e-12 >= rep["alpha"][0] >= rep["alpha"][1] >= abs(rep["alpha"][2])


class TestCircuitVerb:
    def test_prints_gates(self, files, capsys):
        code, out, _ = run(capsys, "circuit", "--alpha", "0.3,0.2,0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "CNOT 0 1"
        assert any(line.startswith("XROT") for line in lines)

    def test_bad_alpha(self, files, capsys):
        code, _, err = run(capsys, "circuit", "--alpha", "1,2")
        assert code == 2
        assert "alpha" in err

    @pytest.mark.parametrize("alpha", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_alpha(self, files, capsys, alpha):
        code, out, err = run(capsys, "circuit", "--alpha", alpha)
        assert code == 2 and out == ""
        assert "must be finite" in err

    def test_overflowing_alpha(self, files, capsys):
        code, out, err = run(capsys, "circuit", "--alpha", "1e308,1e308,1e308")
        assert code == 2 and out == ""
        assert err.startswith("error: alpha must lie within +-") and "(float max / 4)" in err
        assert "Traceback" not in err

    def test_huge_alpha_within_the_bound_fails_the_synthesis_check(self, files, capsys):
        # phases this large lose every digit, so the built circuit misses its target
        code, out, err = run(capsys, "circuit", "--alpha", "1e17,0,0")
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: general circuit does not reproduce its target")


class TestVerify:
    def test_all_passes(self, files, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
        assert code == 0
        assert "holds-with-corrected-sign" in out
        assert "fail" not in out.replace("holds-with-corrected-sign", "")

    def test_single_suite(self, files, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "hadamard", "--seed", "1")
        assert code == 0
        assert "hadamard/sum-rule" in out

    def test_broken_sum_rule_fails(self, files, capsys, monkeypatch):
        # a t formula off by a factor 2 breaks |t|^2 summing to 4 and min |t| <= 1;
        # the suite must report it as failed (1), not as bad input (2)
        raw = cli._hadamard_t_raw
        monkeypatch.setattr(cli, "_hadamard_t_raw", lambda theta: 2 * raw(theta))
        code, out, err = run(capsys, "verify", "--suite", "hadamard", "--seed", "0")
        assert (code, err) == (1, "")
        status = {line.split()[0]: line.split()[1] for line in out.splitlines()}
        assert status == {
            "hadamard/orthogonality": "pass",
            "hadamard/sum-rule": "fail",
            "hadamard/min-bound": "fail",
            "hadamard/two-route": "fail",
        }

    @pytest.mark.parametrize("excess, status", [(5e-11, "pass"), (2e-10, "fail")])
    def test_sum_rule_bound_is_shared_with_tvector(
        self, files, capsys, monkeypatch, excess, status
    ):
        # |t|^2 summing to 4 + excess: the row and TVector read one bound.  The
        # scaled vectors also leave the two-route row, so only a failed sum
        # rule fixes the exit code.
        raw = cli._hadamard_t_raw
        scale = np.sqrt(1 + excess / 4)
        monkeypatch.setattr(cli, "_hadamard_t_raw", lambda theta: scale * raw(theta))
        code, out, err = run(capsys, "verify", "--suite", "hadamard", "--seed", "0")
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()}
        assert (rows["hadamard/sum-rule"], rows["hadamard/min-bound"], err) == (status, "pass", "")
        t = cli._hadamard_t_raw(np.array([0.1, -0.7, 1.3, 2.9]))
        if status == "pass":
            TVector(t)
        else:
            assert code == 1
            with pytest.raises(ContractError, match="sum"):
                TVector(t)


class TestOracleVerb:
    def test_scan_report(self, files, capsys):
        code, out, _ = run(
            capsys,
            "oracle", "--v", files["v_opt"], "--resolution", "2000", "--seed", "3",
            "--sigma-samples", "200",
        )
        assert code == 0
        rep = json.loads(out)
        assert 0.25 - 1e-9 <= rep["f_min"] <= 0.25 + 2e-3
        assert rep["evaluations"] >= 2000
        assert rep["seed"] == 3
        assert rep["sigma_dominance_max"] <= rep["f_min"] + 1e-10

    def test_deterministic_output(self, files, capsys):
        args = ("oracle", "--v", files["v_id"], "--resolution", "500", "--seed", "1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_witness_on_haar_device(self, files, capsys):
        args = ("oracle", "--v", files["v_haar"], "--resolution", "500", "--seed", "2")
        code, out, _ = run(capsys, *args)
        assert code == 0
        rep = json.loads(out)
        # the keys the verb has always written; refine_steps reads 0 and is unused
        assert set(rep) == {
            "f_min", "worst_bloch", "gap_to_closed_form", "lower_bound", "evaluations",
            "resolution", "refine_steps", "seed", "sigma_dominance_max",
        }
        assert rep["evaluations"] == 504 and rep["refine_steps"] == 0
        # 500 sweep points alone miss F by far more; the witness meets it
        assert abs(rep["gap_to_closed_form"]) <= 1e-13
        assert abs(rep["f_min"] - rep["lower_bound"]) <= 1e-15
        assert run(capsys, *args)[1] == out

    def test_refine_flag_gone(self, files, capsys):
        code, out, err = run(capsys, "oracle", "--v", files["v_id"], "--refine", "5")
        assert code == 2 and out == ""
        assert "--refine" in err


    def test_negative_sigma_samples(self, files, capsys):
        code, out, err = run(capsys, "oracle", "--v", files["v_id"], "--sigma-samples", "-3")
        assert code == 2 and out == ""
        assert "sigma_samples must be >= 0" in err


class TestSeedValidation:
    @pytest.mark.parametrize("verb", ["oracle", "verify"])
    def test_negative_flag(self, files, capsys, verb):
        inputs = ["--v", files["v_id"]] if verb == "oracle" else []
        code, out, err = run(capsys, verb, *inputs, "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv, default",
        [
            (("oracle", "--v", "v_id", "--resolution", "500"), ()),
            (("verify",), ("--seed", "0")),
        ],
        ids=["oracle", "verify"],
    )
    def test_environment_ignored(self, files, capsys, monkeypatch, argv, default):
        """The output depends on the command line and the files alone: an
        environment variable that once set the default seed changes nothing."""
        argv = [files.get(a, a) for a in argv]
        monkeypatch.delenv("PROGCHAN_SEED", raising=False)
        expected = run(capsys, *argv, *default)
        monkeypatch.setenv("PROGCHAN_SEED", "17")
        assert run(capsys, *argv) == expected
        assert expected[0] == 0 and expected[1]


class TestScanVerb:
    def test_grid_csv(self, files, capsys):
        out_path = files["tmp"] / "grid.csv"
        code, _, _ = run(capsys, "scan", "--alpha-grid", "3", "--out", out_path)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "a1,a2,a3,t0_sq,t1_sq,t2_sq,t3_sq,fidelity"
        assert len(lines) > 3
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 8 for row in rows)
        # every cell is a plain float literal, never a numpy scalar repr
        cells = [float(cell) for row in rows for cell in row]
        assert all(np.isfinite(cells))
        last = rows[-1]
        # final row is the chamber corner alpha = (pi/4, pi/4, pi/4): F = 1/4
        assert float(last[-1]) == pytest.approx(0.25, abs=1e-12)


class TestStackedLoops:
    """The verbs that map stacks give the values of the per-sample loops they replaced."""

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_scan_csv_equals_the_point_loop(self, files, capsys, n):
        out_path = files["tmp"] / "grid.csv"
        assert run(capsys, "scan", "--alpha-grid", n, "--out", out_path)[0] == 0
        assert out_path.read_bytes() == scan_grid_loop(n).encode()

    def test_scan_csv_across_row_blocks(self, files, capsys, monkeypatch):
        # blocks of 5 rows split every a1 slice of n = 9 but the first two
        monkeypatch.setattr(cli, "_SCAN_BLOCK", 5)
        out_path = files["tmp"] / "grid.csv"
        assert run(capsys, "scan", "--alpha-grid", 9, "--out", out_path)[0] == 0
        assert out_path.read_bytes() == scan_grid_loop(9).encode()

    def test_scan_memory_is_bounded_by_the_row_block(self, files, capsys):
        # a whole a1 slice held as Python lists peaked at 8 MiB here
        tracemalloc.start()
        try:
            code = run(capsys, "scan", "--alpha-grid", 100, "--out", files["tmp"] / "grid.csv")[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_hadamard_rows_equal_the_sample_loop(self, seed):
        assert cli._verify_hadamard_rows(seed) == hadamard_rows_loop(seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_covariance_rows_equal_the_sample_loop(self, seed):
        assert cli._verify_covariance_rows(seed) == covariance_rows_loop(seed)


class TestCountBounds:
    """Counts too large to allocate exit 2 with their bound, never a traceback."""

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (("oracle", "--resolution", "1000000000000000"), "MAX_RESOLUTION = 100000000"),
            (("oracle", "--resolution", "100000001"), "MAX_RESOLUTION = 100000000"),
            (("oracle", "--sigma-samples", "1000000000000000"), "MAX_SIGMA_SAMPLES = 1000000"),
            (("oracle", "--sigma-samples", "1000001"), "MAX_SIGMA_SAMPLES = 1000000"),
            (("scan", "--alpha-grid", "1000000000000"), "MAX_ALPHA_GRID = 200"),
            (("scan", "--alpha-grid", "201"), "MAX_ALPHA_GRID = 200"),
        ],
    )
    def test_count_above_its_bound(self, files, capsys, argv, bound):
        extra = ["--v", files["v_id"]] if argv[0] == "oracle" else ["--out", files["tmp"] / "g.csv"]
        code, out, err = run(capsys, *argv, *extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and bound in err
        assert "Traceback" not in err
        assert not (files["tmp"] / "g.csv").exists()


class TestPrinterBytes:
    """Exact output of the circuit printer and the verify table."""

    def test_circuit_verb(self, files, capsys):
        code, out, _ = run(capsys, "circuit", "--alpha", "0.3,0.2,0.1")
        assert code == 0
        assert out == (
            "CNOT 0 1\n"
            "XROT 0 0.3\n"
            "ZROT 1 0.1\n"
            "CNOT 0 1\n"
            "ZROT 0 -0.7853981633974483\n"
            "ZROT 1 -0.7853981633974483\n"
            "CNOT 0 1\n"
            "XROT 0 -0.2\n"
            "CNOT 0 1\n"
            "ZROT 0 0.7853981633974483\n"
            "ZROT 1 0.7853981633974483\n"
        )

    @pytest.mark.parametrize("sx", ["1", "-1"])
    @pytest.mark.parametrize("sz", ["1", "-1"])
    def test_optimal_v_circuit(self, files, capsys, sx, sz):
        code, out, _ = run(capsys, "optimal-v", "--sx", sx, "--sz", sz, "--emit-circuit")
        assert code == 0
        angle = {"1": "0.7853981633974483", "-1": "-0.7853981633974483"}
        assert json.loads(out)["circuit"] == [
            "CNOT 0 1",
            f"XROT 0 {angle[sx]}",
            f"ZROT 1 {angle[sz]}",
            "CNOT 0 1",
        ]

    def test_verify_rows(self, files, capsys):
        # residual digits depend on the BLAS build, so only their format is pinned
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0")
        assert code == 0
        rows = [
            ("identity/pauli-pair-commutation", "pass", ""),
            ("identity/cnot-x-conjugation", "pass", ""),
            ("identity/cnot-z-conjugation", "holds-with-corrected-sign", "  [C (I x Z) C = +Z x Z]"),
            ("identity/z-rotated-xx-to-yy", "pass", ""),
            ("covariance/two-route", "pass", ""),
            ("hadamard/orthogonality", "pass", ""),
            ("hadamard/sum-rule", "pass", ""),
            ("hadamard/min-bound", "pass", ""),
            ("hadamard/two-route", "pass", ""),
        ]
        pattern = "".join(
            re.escape(f"{name:<31}  {status:<25} residual=") + r"\d\.\d{3}e[+-]\d{2}"
            + re.escape(note) + "\n"
            for name, status, note in rows
        )
        assert re.fullmatch(pattern, out)

    # the oracle verb's JSON at the default seed and sigma samples; the float
    # literals round-trip, so comparing against json.dumps pins every byte
    ORACLE_GOLDENS = {
        "haar4": {
            "f_min": 0.08537284596249917,
            "gap_to_closed_form": 1.6653345369377348e-16,
            "lower_bound": 0.08537284596249911,
            "sigma_dominance_max": 0.08537284596249917,
            "worst_bloch": [-0.4739740137489787, -0.49413769781006034, 0.21508134529251519, -0.6963595226611168],
        },
        "optimal": {
            "f_min": 0.2499999999999999,
            "gap_to_closed_form": -5.551115123125783e-17,
            "lower_bound": 0.2499999999999999,
            "sigma_dominance_max": 0.25,
            "worst_bloch": [0.0, 1.0, 0.0, 0.0],
        },
        "i4": {
            "f_min": 0.0,
            "gap_to_closed_form": 0.0,
            "lower_bound": 0.0,
            "sigma_dominance_max": 0.0,
            "worst_bloch": [0.0, 1.0, 0.0, 0.0],
        },
    }

    @staticmethod
    def ci_haar4():
        """The seeded Haar device the CI workflow writes as haar4.json."""
        g = np.random.default_rng(7).normal(size=(2, 4, 4))
        q, r = np.linalg.qr(g[0] + 1j * g[1])
        d = np.diag(r)
        return q * (d / abs(d))

    @pytest.mark.parametrize("resolution", [10_000, 100_000])
    @pytest.mark.parametrize("device", ["haar4", "optimal", "i4"])
    def test_oracle_verb(self, files, capsys, device, resolution):
        v = {"haar4": self.ci_haar4, "optimal": lambda: optimal_interaction(1, 1), "i4": lambda: np.eye(4)}
        path = files["tmp"] / f"{device}.json"
        write_matrix(v[device](), path)
        code, out, _ = run(capsys, "oracle", "--v", path, "--resolution", resolution)
        assert code == 0
        expected = dict(
            self.ORACLE_GOLDENS[device],
            evaluations=resolution + 4, refine_steps=0, resolution=resolution, seed=0,
        )
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestErrors:
    def test_missing_file(self, files, capsys):
        code, _, err = run(capsys, "worst-case", "--v", files["tmp"] / "nope.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("name", ["v.npy", "v-utf16.json"])
    def test_file_not_utf8(self, files, capsys, name):
        bad = files["tmp"] / name
        if name.endswith(".npy"):
            np.save(bad, np.eye(4))
        else:
            bad.write_text(json.dumps({"dim": 4, "rows": []}), encoding="utf-16")
        code, out, err = run(capsys, "worst-case", "--v", bad)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read matrix file {bad}: ") and err.count("\n") == 1

    def test_utf8_file_in_ascii_locale(self, files):
        """A UTF-8 matrix file reads the same under the C locale as in UTF-8 mode."""
        obj = json.loads(files["u_x"].read_text())
        path = files["tmp"] / "u_note.json"
        path.write_text(json.dumps(dict(obj, note="\u00e9"), ensure_ascii=False), encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "progchan", "fidelity", "--u", path, "--v", files["v_opt"]]
        outputs = []
        for mode in ({"PYTHONUTF8": "0", "LC_ALL": "C"}, {"PYTHONUTF8": "1"}):
            env = dict(os.environ, PYTHONPATH=src, **mode)
            outputs.append(subprocess.run(argv, env=env, capture_output=True, timeout=120))
        assert outputs[0].returncode == 0, outputs[0].stderr
        assert (outputs[0].stdout, outputs[0].stderr) == (outputs[1].stdout, outputs[1].stderr)

    def test_entry_beyond_bound(self, files, capsys):
        # m^dag m would overflow before the unitarity check
        big = files["tmp"] / "v_big.json"
        write_matrix(1e200 * np.eye(4), big)
        code, out, err = run(capsys, "worst-case", "--v", big)
        assert code == 2 and out == ""
        assert err == "error: joint unitary is not unitary at tolerance 1e-10\n"

    def test_non_unitary_input(self, files, capsys):
        bad = files["tmp"] / "bad.json"
        write_matrix(np.ones((4, 4)), bad)
        code, _, err = run(capsys, "worst-case", "--v", bad)
        assert code == 2
        # a null entry reads as NaN, which is not unitary either
        rows = [[[1, 0], [0, 0]], [[0, 0], [None, 0]]]
        bad.write_text(json.dumps({"dim": 2, "rows": rows}))
        code, _, err = run(capsys, "fidelity", "--u", bad, "--v", files["v_id"])
        assert code == 2
        assert err == "error: target unitary is not unitary at tolerance 1e-10\n"

    def test_non_square_json(self, files, capsys):
        bad = files["tmp"] / "badshape.json"
        bad.write_text(json.dumps({"dim": 2, "rows": [[[1, 0]]]}))
        code, _, _ = run(capsys, "worst-case", "--v", bad)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("oracle", "--v", "I2"), "joint unitary"),
            (("fidelity", "--u", "I2", "--v", "I4", "--sigma", "I4/4"), "program state"),
            (("program", "--v", "I2", "--sigma", "I2/2"), "joint unitary"),
            (("program", "--v", "I4", "--sigma", "I4/4"), "program state"),
            (("program", "--v", "I4", "--sigma", "I2/2", "--rho", "I4/4"), "input state"),
        ],
        ids=["oracle-v", "fidelity-sigma", "program-v", "program-sigma", "program-rho"],
    )
    def test_wrong_size(self, files, capsys, argv, named):
        mats = {"I2": np.eye(2), "I4": np.eye(4), "I2/2": np.eye(2) / 2, "I4/4": np.eye(4) / 4}
        paths = {}
        for key, m in mats.items():
            paths[key] = files["tmp"] / (key.replace("/", "_") + ".json")
            write_matrix(m, paths[key])
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 2
        assert out == ""
        assert named in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 4, "rows": null}',
            '{"dim": 4.0, "rows": []}',
            '{"dim": 4, "rows": [[[1, 0], [0, 0], [0, 0], [0, 0]], 5, [], []]}',
            '{"dim": 4, "rows": [[[1, 0, 0]]]}',
            '{"dim": 4, "rows": [[[1' + "0" * 400 + ', 0]]]}',
        ],
        ids=["null-rows", "float-dim", "number-row", "three-numbers", "400-digit-entry"],
    )
    def test_malformed_matrix_file(self, files, capsys, text):
        bad = files["tmp"] / "malformed.json"
        bad.write_text(text)
        code, out, err = run(capsys, "worst-case", "--v", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert ("(4, 4, 2)" in err) or ("dim must be 2 or 4" in err)

    @pytest.mark.parametrize("entry", ['"1"', "true"], ids=["string", "boolean"])
    def test_non_number_entry(self, files, capsys, entry):
        # float() would read either entry as 1.0, and the file as the identity
        bad = files["tmp"] / "u_entry.json"
        bad.write_text('{"dim": 2, "rows": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % entry)
        code, out, err = run(capsys, "fidelity", "--u", bad, "--v", files["v_id"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "numbers of shape (2, 2, 2), not strings or booleans" in err

    @pytest.mark.parametrize(
        "argv",
        [("program", "--v", "I4"), ("fidelity", "--u", "I2", "--v", "I4")],
        ids=["program", "fidelity"],
    )
    def test_infinite_state_entry(self, files, capsys, argv):
        # inf - inf in a Hermitian test would warn before the error
        sigma = files["tmp"] / "sigma_inf.json"
        sigma.write_text('{"dim": 2, "rows": [[[Infinity, 0], [0, 0]], [[0, 0], [0.5, 0]]]}')
        paths = {"I2": files["u_id"], "I4": files["v_id"]}
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv), "--sigma", sigma)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: program state is not a valid density matrix")

    @pytest.mark.parametrize(
        "argv",
        [
            ("worst-case", "--v", "v_id", "--out", "DIR"),
            ("oracle", "--v", "v_id", "--resolution", "200", "--csv", "DIR"),
            ("scan", "--alpha-grid", "2", "--out", "DIR"),
            ("worst-case", "--v", "v_id", "--out", "UNDER_FILE"),
        ],
        ids=["worst-case-out-dir", "oracle-csv-dir", "scan-out-dir", "out-under-file"],
    )
    def test_unwritable_output(self, files, capsys, argv):
        # a directory, or a path below a regular file, cannot be written
        paths = {"v_id": files["v_id"], "DIR": files["tmp"], "UNDER_FILE": files["v_id"] / "out.json"}
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [("program", "--v", "I4"), ("fidelity", "--u", "I2", "--v", "I4")],
        ids=["program", "fidelity"],
    )
    def test_state_entry_near_float_limit(self, files, capsys, argv):
        # b - c^* and a + d would overflow before the error
        sigma = files["tmp"] / "sigma_big.json"
        write_matrix(np.array([[1e308, -1e308], [1e308, 0.5]]), sigma)
        paths = {"I2": files["u_id"], "I4": files["v_id"]}
        code, out, err = run(capsys, *(paths.get(a, a) for a in argv), "--sigma", sigma)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: program state is not a valid density matrix")

    def test_unknown_flag(self, files, capsys):
        code, _, _ = run(capsys, "worst-case", "--v", files["v_id"], "--bogus")
        assert code == 2

    def test_unknown_verb(self, files, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 input or parse error,
3 numerical failure (e.g. a decomposition residual out of bounds).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import circuits, oracle
from .channels import apply_programmed, program_channel, program_overlap
from .errors import ContractError, DecompositionError, MatrixFormatError
from .matio import load_matrix, matrix_to_obj
# s_operator is unused here but stays bound: perfbench/tracing.py rebinds it
# in this module by name.
from .minimax import (  # noqa: F401
    COVARIANCE_TOL,
    CanonicalForm,
    _covariance_gap,
    fidelity_uv,
    kraus_cirac_decompose,
    optimal_interaction,
    s_operator,
    theta_from_alpha,
    worst_case_fidelity,
)
from .pauli import HADAMARD, _hadamard_t_raw, bloch_to_matrix, hadamard_t, hadamard_t_contract
from .pauli import _MIN_BOUND_TOL, _SUM_RULE_TOL

#: largest --alpha-grid; it caps the CSV, not memory: n(n+1)(2n+1)/6 = 2.69M rows, ~0.42 GB at 200
MAX_ALPHA_GRID = 200
# rows of the scan's CSV mapped and written at a time, so its memory does not grow with n
_SCAN_BLOCK = 4096


def _write(text: str, out_path=None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path=None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _report_minimax(rep) -> dict:
    return {
        "fidelity": rep.fidelity,
        "epsilon": rep.epsilon,
        "argmin_j": rep.argmin_j,
        "worst_unitary": matrix_to_obj(rep.worst_unitary),
        "optimal_sigma": matrix_to_obj(rep.optimal_sigma),
        "t": _complex_pairs(rep.t.t),
    }


def _parse_alpha(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise MatrixFormatError(f"--alpha needs three comma-separated values, got {text!r}")
    try:
        alpha = np.array([float(p) for p in parts])
    except ValueError:
        raise MatrixFormatError(f"--alpha values must be numbers, got {text!r}")
    if not np.all(np.isfinite(alpha)):
        raise MatrixFormatError(f"--alpha values must be finite, got {text!r}")
    return alpha


def _cmd_worst_case(args) -> int:
    rep = worst_case_fidelity(load_matrix(args.v))
    _emit(_report_minimax(rep), args.out)
    return 0


def _cmd_fidelity(args) -> int:
    u = load_matrix(args.u)
    v = load_matrix(args.v)
    if args.sigma:
        value = program_overlap(u, v, load_matrix(args.sigma))
        _emit({"fidelity": value, "program": "given"}, args.out)
    else:
        value, sigma = fidelity_uv(u, v)
        _emit(
            {"fidelity": value, "optimal_sigma": matrix_to_obj(sigma), "program": "optimal"},
            args.out,
        )
    return 0


def _cmd_program(args) -> int:
    v = load_matrix(args.v)
    sigma = load_matrix(args.sigma)
    channel = program_channel(v, sigma)
    payload = {"kraus": [matrix_to_obj(k) for k in channel.ops]}
    if args.rho:
        payload["output"] = matrix_to_obj(apply_programmed(v, sigma, load_matrix(args.rho)))
    _emit(payload, args.out)
    return 0


def _cmd_optimal_v(args) -> int:
    v = optimal_interaction(args.sx, args.sz)
    payload = {
        "sx": args.sx,
        "sz": args.sz,
        "v": matrix_to_obj(v),
        "fidelity": worst_case_fidelity(v).fidelity,
    }
    if args.emit_circuit:
        circuit = circuits.build_optimal_circuit(args.sx, args.sz)
        payload["circuit"] = circuits.format_circuit(circuit).splitlines()
    _emit(payload, args.out)
    return 0


def _cmd_decompose(args) -> int:
    v = load_matrix(args.v)
    form = kraus_cirac_decompose(v)
    residual = float(np.max(np.abs(form.reconstruct() - v)))
    _emit(
        {
            "alpha": [float(a) for a in form.alpha],
            "w1": matrix_to_obj(form.w1),
            "w2": matrix_to_obj(form.w2),
            "w3": matrix_to_obj(form.w3),
            "w4": matrix_to_obj(form.w4),
            "residual": residual,
        },
        args.out,
    )
    return 0


def _cmd_circuit(args) -> int:
    alpha = _parse_alpha(args.alpha)
    eye = np.eye(2, dtype=complex)
    circuit = circuits.build_general_circuit(CanonicalForm(alpha, eye, eye, eye, eye))
    _write(circuits.format_circuit(circuit), args.out)
    return 0


def _pass_fail_row(name: str, residual: float, tol: float) -> tuple:
    return (name, "pass" if residual <= tol else "fail", residual, "")


def _verify_identities_rows() -> list:
    return [
        (f"identity/{c.ident}", *c.verdict, c.corrected_form or "")
        for c in circuits.verify_identities()
    ]


def _verify_covariance_rows(seed: int) -> list:
    # one (50, 72) draw consumes the generator as 50 rounds of u, v, w1..w4 (real, then imag) would
    draws = np.random.default_rng(seed).normal(size=(50, 72))
    roles = np.split(draws, [8, 40, 48, 56, 64], axis=1)
    gauss = [part.reshape(50, 2, dim, dim) for part, dim in zip(roles, (2, 4, 2, 2, 2, 2))]
    u, v, w1, w2, w3, w4 = (oracle._haar_from_gaussian(g[:, 0] + 1j * g[:, 1]) for g in gauss)
    worst = _covariance_gap(u, w1, w2, w3, w4, v)[1]
    return [_pass_fail_row("covariance/two-route", worst, COVARIANCE_TOL)]


def _verify_hadamard_rows(seed: int) -> list:
    ortho = float(np.max(np.abs(HADAMARD @ HADAMARD.T - np.eye(4))))
    # one (1000, 4) draw consumes the generator as 1000 draws of 4 would
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, (1000, 4))
    # the bare vectors: TVector would reject a broken sum rule or bound as bad input
    t = _hadamard_t_raw(theta)
    moduli = np.abs(t)
    worst_sum = float(np.max(np.abs(np.sum(moduli**2, axis=-1) - 4.0), initial=0.0))
    worst_min = float(np.max(moduli.min(axis=-1) - 1.0, initial=0.0))
    worst_route = float(np.max(np.abs(t - hadamard_t_contract(theta)), initial=0.0))
    return [
        _pass_fail_row("hadamard/orthogonality", ortho, 1e-15),
        _pass_fail_row("hadamard/sum-rule", worst_sum, _SUM_RULE_TOL),
        _pass_fail_row("hadamard/min-bound", worst_min, _MIN_BOUND_TOL),
        _pass_fail_row("hadamard/two-route", worst_route, 1e-12),
    ]


def _cmd_verify(args) -> int:
    oracle._check_count("seed", args.seed)  # the rule ScanConfig applies to the oracle's seed
    rows = []
    if args.suite in ("identities", "all"):
        rows += _verify_identities_rows()
    if args.suite in ("covariance", "all"):
        rows += _verify_covariance_rows(args.seed)
    if args.suite in ("hadamard", "all"):
        rows += _verify_hadamard_rows(args.seed)
    width = max(len(r[0]) for r in rows)
    failed = False
    for name, status, residual, note in rows:
        line = f"{name:<{width}}  {status:<25} residual={residual:.3e}"
        if note:
            line += f"  [{note}]"
        sys.stdout.write(line + "\n")
        failed = failed or status == "fail"
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    config = oracle.ScanConfig(
        resolution=args.resolution,
        seed=args.seed,
        sigma_samples=args.sigma_samples,
    )
    v = load_matrix(args.v)
    result = oracle.minimax_scan(v, config, trace_path=args.csv)
    payload = {
        "f_min": result.f_min,
        "worst_bloch": [float(x) for x in result.worst_bloch],
        "gap_to_closed_form": result.gap_to_closed_form,
        "lower_bound": result.lower_bound,
        "evaluations": result.evaluations,
        "resolution": config.resolution,
        "refine_steps": config.refine_steps,
        "seed": config.seed,
    }
    if config.sigma_samples > 0:
        worst_u = bloch_to_matrix(result.worst_bloch)
        payload["sigma_dominance_max"] = oracle.sigma_dominance_check(
            worst_u, v, config.sigma_samples, seed=config.seed
        )
    _emit(payload, args.out)
    return 0


def _cmd_scan(args) -> int:
    import csv as csv_mod

    n = args.alpha_grid
    if n < 2:
        raise MatrixFormatError("--alpha-grid must be >= 2")
    if n > MAX_ALPHA_GRID:
        raise MatrixFormatError(f"--alpha-grid must be <= MAX_ALPHA_GRID = {MAX_ALPHA_GRID}, got {n}")
    grid = np.linspace(0.0, np.pi / 4, n)
    # the (a2, a3) pairs with |a3| <= a2, a2-major; each a1 takes those with a2 <= a1
    a2, a3 = np.meshgrid(grid, np.linspace(-np.pi / 4, np.pi / 4, 2 * n - 1), indexing="ij")
    pairs = np.stack([a2, a3], axis=-1)[np.abs(a3) <= a2 + 1e-15]
    with open(args.out, "w", newline="") as fh:
        writer = csv_mod.writer(fh)
        writer.writerow(["a1", "a2", "a3", "t0_sq", "t1_sq", "t2_sq", "t3_sq", "fidelity"])
        for a1 in grid:
            below = pairs[pairs[:, 0] <= a1 + 1e-15]
            for start in range(0, len(below), _SCAN_BLOCK):
                alpha = np.insert(below[start : start + _SCAN_BLOCK], 0, a1, axis=1)
                w = hadamard_t(theta_from_alpha(alpha)).moduli ** 2
                rows = np.column_stack([alpha, w, w.min(-1) / 4.0]).tolist()
                writer.writerows([repr(x) for x in row] for row in rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="progchan",
        description="Worst-case programming fidelity of a fixed two-qubit device.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("worst-case", help="minimax report for a joint unitary")
    p.add_argument("--v", required=True, help="4x4 unitary matrix file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("fidelity", help="best-program or fixed-program fidelity")
    p.add_argument("--u", required=True, help="2x2 target unitary file")
    p.add_argument("--v", required=True, help="4x4 joint unitary file")
    p.add_argument("--sigma", help="program state file (optional)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("program", help="Kraus family (and output state) of a program")
    p.add_argument("--v", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--rho", help="input state file (optional)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_program)

    p = sub.add_parser("optimal-v", help="an optimal device for the chosen signs")
    p.add_argument("--sx", type=int, choices=(1, -1), default=1)
    p.add_argument("--sz", type=int, choices=(1, -1), default=1)
    p.add_argument("--emit-circuit", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_optimal_v)

    p = sub.add_parser("decompose", help="canonical form of a joint unitary")
    p.add_argument("--v", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("circuit", help="gate list for inline interaction coefficients")
    p.add_argument("--alpha", required=True, help="a1,a2,a3 in radians")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument(
        "--suite", choices=("identities", "covariance", "hadamard", "all"), default="all"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force minimax scan of a device")
    p.add_argument("--v", required=True)
    p.add_argument("--resolution", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-samples", type=int, default=1000)
    p.add_argument("--csv", help="write a per-sample trace CSV")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("scan", help="fidelity grid over the interaction chamber")
    p.add_argument("--alpha-grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (MatrixFormatError, ContractError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DecompositionError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

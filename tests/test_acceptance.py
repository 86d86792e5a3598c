"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the stated tolerances are asserted as-is.
"""

import time

import numpy as np
from helpers import controlled_device, random_chamber_alpha, sv_norm_sq

from progchan import (
    ScanConfig,
    apply_programmed,
    avg_io_fidelity,
    bloch_to_matrix,
    build_general_circuit,
    build_optimal_circuit,
    canonical_gate,
    circuit_matrix,
    closed_form_norm,
    controlled_unitary_worst,
    distance,
    equal_up_to_global_phase,
    fidelity_uv,
    haar_unitary,
    hadamard_t,
    kraus_cirac_decompose,
    kron,
    minimax_scan,
    optimal_interaction,
    program_channel,
    random_density,
    s_operator,
    theta_from_alpha,
    verify_identities,
    worst_case_fidelity,
)
from progchan.oracle import CERTIFY_TOL
from progchan.pauli import pauli

SIGN_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def bound_gap(result):
    """|f_min - lower_bound| of a scan: rounding only, once the sweep is certified."""
    return abs(result.f_min - result.lower_bound)


def report(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {description} {detail}".rstrip())
    assert ok, f"criterion {num:02d} failed: {description} {detail}"


def test_criterion_01_optimal_fidelity():
    worst_err = 0.0
    worst_time = 0.0
    for sx, sz in SIGN_PAIRS:  # warm up caches and BLAS on every branch
        worst_case_fidelity(optimal_interaction(sx, sz))
    for sx, sz in SIGN_PAIRS:
        times = []
        for _ in range(11):
            start = time.perf_counter()
            rep = worst_case_fidelity(optimal_interaction(sx, sz))
            times.append(time.perf_counter() - start)
        worst_err = max(worst_err, abs(rep.fidelity - 0.25))
        # min over repeats: the standard estimator, robust to scheduler noise
        worst_time = max(worst_time, min(times))
    report(
        1,
        "optimal devices reach F = 1/4",
        worst_err <= 1e-12 and worst_time < 1e-3,
        f"(max |F-0.25| = {worst_err:.2e}, runtime {worst_time * 1e3:.3f} ms)",
    )


def test_criterion_02_oracle_concurrence():
    start = time.perf_counter()
    result = minimax_scan(
        optimal_interaction(1, 1), ScanConfig(resolution=100_000, refine_steps=200, seed=0)
    )
    elapsed = time.perf_counter() - start
    ok = 0.25 - 1e-9 <= result.f_min <= 0.25 + 2e-3 and elapsed < 60.0
    # the sweep meets the proven lower bound at an axis point, so the polish is skipped
    ok = ok and result.evaluations == 100_000 and bound_gap(result) <= CERTIFY_TOL
    report(
        2,
        "brute-force scan agrees with F = 1/4",
        ok,
        f"(f_min = {result.f_min:.9f}, {elapsed:.1f} s, {result.evaluations} evaluations,"
        f" |f_min - bound| = {bound_gap(result):.1e})",
    )


def test_criterion_03_phase_certificate():
    worst = 0.0
    for theta in ([0, np.pi / 2, np.pi, np.pi / 2], [0, -np.pi / 2, -np.pi, -np.pi / 2]):
        t = hadamard_t(np.asarray(theta, dtype=float))
        worst = max(worst, float(np.max(np.abs(t.moduli - 1.0))))
    report(3, "certificate phases give |t_j| = 1", worst <= 1e-12, f"(max dev {worst:.2e})")


def test_criterion_04_hadamard_normalization():
    rng = np.random.default_rng(0)
    worst_sum = 0.0
    worst_min = 0.0
    for _ in range(1000):
        t = hadamard_t(rng.uniform(-np.pi, np.pi, 4))
        worst_sum = max(worst_sum, abs(float(np.sum(t.moduli**2)) - 4.0))
        worst_min = max(worst_min, float(t.moduli.min()) - 1.0)
    ok = worst_sum <= 1e-10 and worst_min <= 1e-12
    report(
        4,
        "sum rule and min bound over 1000 random phases",
        ok,
        f"(sum dev {worst_sum:.2e}, min excess {worst_min:.2e})",
    )


def test_criterion_05_two_route_s():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        alpha = random_chamber_alpha(rng)
        u = haar_unitary(2, rng)
        theta = theta_from_alpha(alpha)
        via_sum = 0.5 * sum(np.exp(-1j * theta[j]) * pauli(j) @ u @ pauli(j) for j in range(4))
        via_trace = s_operator(u, canonical_gate(alpha))
        worst = max(worst, float(np.max(np.abs(via_sum - via_trace))))
    report(5, "eigenbasis sum equals partial-trace S", worst <= 1e-12, f"(max dev {worst:.2e})")


def test_criterion_06_closed_form_norm():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        alpha = random_chamber_alpha(rng)
        n = rng.normal(size=4)
        n /= np.linalg.norm(n)
        t = hadamard_t(theta_from_alpha(alpha))
        direct = sv_norm_sq(bloch_to_matrix(n), canonical_gate(alpha))
        worst = max(worst, abs(closed_form_norm(n, t) - direct))
    report(6, "closed-form norm equals SVD route", worst <= 1e-10, f"(max dev {worst:.2e})")


def test_criterion_07_closed_form_vs_oracle():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst_low = 0.0
    worst_high = 0.0
    worst_bound = 0.0
    skipped = 0
    for _ in range(25):
        alpha = random_chamber_alpha(rng)
        result = minimax_scan(
            canonical_gate(alpha), ScanConfig(resolution=20_000, refine_steps=60, seed=11)
        )
        worst_low = min(worst_low, result.gap_to_closed_form)
        worst_high = max(worst_high, result.gap_to_closed_form)
        # every canonical device is certified by the lower bound and skips the polish
        skipped += result.evaluations == 20_000
        worst_bound = max(worst_bound, bound_gap(result))
    elapsed = time.perf_counter() - start
    ok = worst_low >= -1e-9 and worst_high <= 3e-3 and elapsed < 600.0
    ok = ok and skipped == 25 and worst_bound <= CERTIFY_TOL
    report(
        7,
        "oracle minimum brackets the closed form on 25 random devices",
        ok,
        f"(gap in [{worst_low:.2e}, {worst_high:.2e}], {skipped} certified,"
        f" |f_min - bound| <= {worst_bound:.1e}, {elapsed:.1f} s)",
    )


def test_criterion_08_channel_consistency():
    rng = np.random.default_rng(4)
    worst_action = 0.0
    worst_overlap = 0.0
    for _ in range(200):
        v = haar_unitary(4, rng)
        sigma = random_density(rng)
        rho = random_density(rng)
        u = haar_unitary(2, rng)
        channel = program_channel(v, sigma)
        worst_action = max(
            worst_action,
            float(np.max(np.abs(channel.apply(rho) - apply_programmed(v, sigma, rho)))),
        )
        kraus_sum = sum(abs(np.trace(k.conj().T @ u)) ** 2 for k in channel.ops)
        s = s_operator(u, v)
        worst_overlap = max(
            worst_overlap, abs(kraus_sum - np.trace(sigma.T @ s.conj().T @ s).real)
        )
    ok = worst_action <= 1e-12 and worst_overlap <= 1e-10
    report(
        8,
        "Kraus route equals trace route and overlap identity holds",
        ok,
        f"(action dev {worst_action:.2e}, overlap dev {worst_overlap:.2e})",
    )


def test_criterion_09_controlled_unitary_no_go():
    rng = np.random.default_rng(5)
    worst_trace = 0.0
    worst_fid = 0.0
    for _ in range(100):
        v1, v2 = haar_unitary(2, rng), haar_unitary(2, rng)
        u, _ = controlled_unitary_worst(v1, v2)
        worst_trace = max(
            worst_trace,
            abs(np.trace(v1.conj().T @ u)),
            abs(np.trace(v2.conj().T @ u)),
        )
        f, _ = fidelity_uv(u, controlled_device(v1, v2))
        worst_fid = max(worst_fid, f)
    ok = worst_trace <= 1e-10 and worst_fid <= 1e-12
    report(
        9,
        "controlled-unitary devices have a zero-fidelity target",
        ok,
        f"(max |trace| {worst_trace:.2e}, max fidelity {worst_fid:.2e})",
    )


def test_criterion_10_decomposition_round_trip():
    rng = np.random.default_rng(6)
    worst_recon = 0.0
    for _ in range(100):
        v = haar_unitary(4, rng)
        form = kraus_cirac_decompose(v)
        assert equal_up_to_global_phase(form.reconstruct(), v, 1e-9)
        worst_recon = max(worst_recon, float(np.max(np.abs(form.reconstruct() - v))))
    v = canonical_gate(random_chamber_alpha(rng))
    base = worst_case_fidelity(v).fidelity
    worst_inv = 0.0
    for _ in range(100):
        dressed = (
            kron(haar_unitary(2, rng), haar_unitary(2, rng))
            @ v
            @ kron(haar_unitary(2, rng), haar_unitary(2, rng))
        )
        worst_inv = max(worst_inv, abs(worst_case_fidelity(dressed).fidelity - base))
    ok = worst_recon <= 1e-9 and worst_inv <= 1e-10
    report(
        10,
        "canonical round trip and local invariance of F",
        ok,
        f"(recon {worst_recon:.2e}, F drift {worst_inv:.2e})",
    )


def test_criterion_11_circuit_equivalence():
    worst_opt = 0.0
    for sx, sz in SIGN_PAIRS:
        built = circuit_matrix(build_optimal_circuit(sx, sz))
        target = optimal_interaction(sx, sz)
        assert equal_up_to_global_phase(built, target, 1e-12)
        worst_opt = max(worst_opt, float(np.max(np.abs(built - target))))
    rng = np.random.default_rng(7)
    ok_general = True
    for _ in range(100):
        form = kraus_cirac_decompose(canonical_gate(random_chamber_alpha(rng)))
        built = circuit_matrix(build_general_circuit(form))
        ok_general = ok_general and equal_up_to_global_phase(built, form.reconstruct(), 1e-10)
    report(
        11,
        "circuits reproduce their target interactions",
        worst_opt <= 1e-12 and ok_general,
        f"(optimal circuit dev {worst_opt:.2e})",
    )


def test_criterion_12_identity_audit():
    rows = {check.ident: check for check in verify_identities(tol=1e-12)}
    ok = (
        rows["pauli-pair-commutation"].printed_holds
        and rows["cnot-x-conjugation"].printed_holds
        and rows["z-rotated-xx-to-yy"].printed_holds
        and rows["cnot-z-conjugation"].holds
    )
    z = rows["cnot-z-conjugation"]
    sign_note = "printed sign" if z.printed_holds else f"corrected: {z.corrected_form}"
    report(12, "published identities audited", ok, f"({sign_note})")


def test_criterion_13_derived_relations():
    dist_err = abs(distance(0.25) - np.sqrt(3) / 2)
    avg = avg_io_fidelity(0.25, 2)
    ok = dist_err <= 1e-15 and avg == 0.5
    report(
        13,
        "distance and averaged fidelity of the optimum",
        ok,
        f"(distance dev {dist_err:.2e}, averaged = {avg})",
    )

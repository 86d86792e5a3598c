import numpy as np
import pytest
from helpers import is_unitary, random_chamber_alpha

from progchan import (
    CanonicalForm,
    ContractError,
    DimensionError,
    Gate,
    IdentityCheck,
    SynthesisError,
    build_general_circuit,
    build_optimal_circuit,
    canonical_gate,
    circuit_matrix,
    equal_up_to_global_phase,
    format_circuit,
    haar_unitary,
    kraus_cirac_decompose,
    optimal_interaction,
    verify_identities,
    worst_case_fidelity,
)
from progchan import circuits
from progchan.circuits import cnot, gate_matrix, local, rotation
from progchan.pauli import pauli

I2 = np.eye(2, dtype=complex)


def identity_form(alpha):
    return CanonicalForm(np.asarray(alpha, dtype=float), I2, I2, I2, I2)


def kron_gate_matrix(g):
    """A gate's 4x4 matrix with its single-wire factor embedded by np.kron."""
    if g.kind == "cnot":
        return gate_matrix(g)
    if g.kind == "local":
        g2 = g.matrix
    else:
        sigma = pauli(circuits.ROTATION_KINDS[g.kind])
        g2 = np.cos(g.angle) * np.eye(2) + 1j * np.sin(g.angle) * sigma
    return np.kron(g2, np.eye(2)) if g.wires[0] == 0 else np.kron(np.eye(2), g2)


def kron_identities(tol=1e-12):
    """The identity audit written out one identity at a time with np.kron."""
    results = []
    c = circuits.CNOT_01

    resid = 0.0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            lhs = np.kron(pauli(a), pauli(a)) @ np.kron(pauli(b), pauli(b))
            rhs = np.kron(pauli(b), pauli(b)) @ np.kron(pauli(a), pauli(a))
            resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    results.append(IdentityCheck("pauli-pair-commutation", resid <= tol, resid))

    got = c @ np.kron(pauli(1), np.eye(2)) @ c
    resid = float(np.max(np.abs(got - np.kron(pauli(1), pauli(1)))))
    results.append(IdentityCheck("cnot-x-conjugation", resid <= tol, resid))

    got = c @ np.kron(np.eye(2), pauli(3)) @ c
    printed = float(np.max(np.abs(got + np.kron(pauli(3), pauli(3)))))
    flipped = float(np.max(np.abs(got - np.kron(pauli(3), pauli(3)))))
    if printed <= tol:
        results.append(IdentityCheck("cnot-z-conjugation", True, printed))
    else:
        corrected = flipped if flipped <= tol else None
        sign = "C (I x Z) C = +Z x Z"
        results.append(IdentityCheck("cnot-z-conjugation", False, printed, sign, corrected))

    zq = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    lhs = (
        np.kron(zq, zq)
        @ c
        @ np.kron(pauli(1), np.eye(2))
        @ c
        @ np.kron(zq.conj().T, zq.conj().T)
    )
    resid = float(np.max(np.abs(lhs - np.kron(pauli(2), pauli(2)))))
    results.append(IdentityCheck("z-rotated-xx-to-yy", resid <= tol, resid))
    return results


class TestGateMatrix:
    def test_zero_rotation(self):
        np.testing.assert_allclose(gate_matrix(rotation("zrot", 0, 0.0)), np.eye(4), atol=1e-15)

    def test_cnot_squares_to_identity(self):
        c = gate_matrix(cnot())
        np.testing.assert_allclose(c @ c, np.eye(4), atol=1e-15)

    def test_xrot_embedding(self):
        got = gate_matrix(rotation("xrot", 0, np.pi / 4))
        want = np.kron(np.cos(np.pi / 4) * I2 + 1j * np.sin(np.pi / 4) * pauli(1), I2)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_reversed_cnot(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        want = swap @ gate_matrix(cnot(0, 1)) @ swap
        np.testing.assert_allclose(gate_matrix(cnot(1, 0)), want, atol=1e-15)

    def test_bad_wires(self):
        with pytest.raises(DimensionError):
            rotation("xrot", 2, 0.1)
        with pytest.raises(ContractError):
            cnot(0, 0)

    @pytest.mark.parametrize(
        "wire",
        [1.9, 1.0, True, False, np.True_, np.False_, np.float64(0.0), "1", None],
    )
    def test_non_integer_wire_rejected(self, wire):
        with pytest.raises(DimensionError, match="wire index must be 0 or 1"):
            rotation("xrot", wire, 0.3)
        with pytest.raises(DimensionError, match="wire index must be 0 or 1"):
            cnot(wire, 0 if wire else 1)
        with pytest.raises(DimensionError, match="wire index must be 0 or 1"):
            local(wire, I2)

    @pytest.mark.parametrize("wires", [5, np.int64(0), "01", "0", b"\x00", None, {0, 1}])
    def test_wires_not_a_sequence_rejected(self, wires):
        with pytest.raises(DimensionError, match="wires must be a tuple or list"):
            Gate(kind="cnot", wires=wires)
        with pytest.raises(DimensionError, match="wires must be a tuple or list"):
            Gate(kind="xrot", wires=wires, angle=0.3)

    def test_wires_list_accepted(self):
        assert Gate(kind="cnot", wires=[1, 0]).wires == (1, 0)

    def test_numpy_integer_wire_accepted(self):
        gate = rotation("xrot", np.int64(1), 0.3)
        assert gate.wires == (1,) and type(gate.wires[0]) is int
        np.testing.assert_array_equal(gate_matrix(gate), gate_matrix(rotation("xrot", 1, 0.3)))

    @pytest.mark.parametrize(
        "angle",
        [np.nan, np.inf, -np.inf, np.float64("nan"), True, np.True_, 0.3 + 0j, "0.3", None],
    )
    def test_bad_angle_rejected(self, angle):
        with pytest.raises(ContractError, match="xrot (needs one wire and an angle|angle must be)"):
            rotation("xrot", 0, angle)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "cnot", "wires": (0, 1), "angle": 0.3}, "cnot takes no angle"),
            ({"kind": "cnot", "wires": (0, 1), "matrix": I2}, "cnot takes no matrix"),
            (
                {"kind": "xrot", "wires": (0,), "angle": 0.1, "matrix": np.ones((3, 3))},
                "xrot takes no matrix",
            ),
            (
                {"kind": "local", "wires": (1,), "angle": np.nan, "matrix": I2},
                "local takes no angle",
            ),
        ],
    )
    def test_field_of_another_kind_rejected(self, fields, message):
        # gate_matrix and format_circuit would drop the stray field silently
        with pytest.raises(ContractError, match=message):
            Gate(**fields)

    def test_real_angles_stored_as_float(self):
        for angle in (np.float64(0.25), np.float32(0.5), 2, np.int64(-1)):
            gate = rotation("zrot", 1, angle)
            assert type(gate.angle) is float and gate.angle == float(angle)


class TestCircuitMatrix:
    def test_empty(self):
        np.testing.assert_array_equal(circuit_matrix(()), np.eye(4))

    def test_cnot_pair(self):
        c = (cnot(), cnot())
        np.testing.assert_allclose(circuit_matrix(c), np.eye(4), atol=1e-15)

    def test_temporal_order(self):
        # leftmost gate acts first: matrix is later @ earlier
        c = (rotation("xrot", 0, 0.3), rotation("zrot", 0, 0.7))
        want = gate_matrix(rotation("zrot", 0, 0.7)) @ gate_matrix(rotation("xrot", 0, 0.3))
        np.testing.assert_allclose(circuit_matrix(c), want, atol=1e-15)

    def test_always_unitary(self):
        rng = np.random.default_rng(0)
        c = (
            local(0, haar_unitary(2, rng)),
            cnot(),
            rotation("yrot", 1, 1.234),
            local(1, haar_unitary(2, rng)),
        )
        assert is_unitary(circuit_matrix(c), 1e-12)


class TestBuilderOutput:
    def test_builders_return_tuples_of_gates(self):
        general = build_general_circuit(identity_form([0.3, 0.2, 0.1]))
        optimal = build_optimal_circuit(1, -1)
        assert type(general) is tuple and type(optimal) is tuple
        assert all(isinstance(g, Gate) for g in general + optimal)

    def test_list_of_gates_accepted(self):
        gates = build_general_circuit(identity_form([0.3, 0.2, 0.1]))
        np.testing.assert_array_equal(circuit_matrix(list(gates)), circuit_matrix(gates))
        assert format_circuit(list(gates)) == format_circuit(gates)

    def test_bits_match_np_kron(self):
        # 200 decomposed Haar devices, with their local gates, and the four optimal circuits
        rng = np.random.default_rng(28)
        circuits_built = [
            build_general_circuit(kraus_cirac_decompose(haar_unitary(4, rng))) for _ in range(200)
        ]
        circuits_built += [build_optimal_circuit(sx, sz) for sx in (1, -1) for sz in (1, -1)]
        for gates in circuits_built:
            want = np.eye(4, dtype=complex)
            for g in gates:
                assert np.array_equal(gate_matrix(g), kron_gate_matrix(g))
                want = kron_gate_matrix(g) @ want
            assert np.array_equal(circuit_matrix(gates), want)


class TestGeneralCircuit:
    def test_zero_alpha(self):
        c = build_general_circuit(identity_form([0, 0, 0]))
        assert equal_up_to_global_phase(circuit_matrix(c), np.eye(4), 1e-12)

    def test_random_alpha_without_locals(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            alpha = random_chamber_alpha(rng)
            c = build_general_circuit(identity_form(alpha))
            assert equal_up_to_global_phase(circuit_matrix(c), canonical_gate(alpha), 1e-10)

    def test_nonchamber_alpha_accepted(self):
        alpha = [np.pi / 4, 0.0, np.pi / 4]
        c = build_general_circuit(identity_form(alpha))
        assert equal_up_to_global_phase(circuit_matrix(c), optimal_interaction(1, 1), 1e-10)

    def test_full_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = haar_unitary(4, rng)
            c = build_general_circuit(kraus_cirac_decompose(v))
            assert equal_up_to_global_phase(circuit_matrix(c), v, 1e-9)

    def test_locals_enter_gate_list(self):
        rng = np.random.default_rng(3)
        w = [haar_unitary(2, rng) for _ in range(4)]
        form = CanonicalForm(np.array([0.2, 0.1, 0.05]), *w)
        c = build_general_circuit(form)
        assert sum(1 for g in c if g.kind == "local") == 4
        assert equal_up_to_global_phase(circuit_matrix(c), form.reconstruct(), 1e-10)


class TestSynthesisCheck:
    """Both builders compare the circuit with its target up to global phase,
    the general one at 1e-10 and the optimal one at 1e-12."""

    @staticmethod
    def _skew(monkeypatch, delta):
        exact = circuits.circuit_matrix
        bump = np.zeros((4, 4))
        bump[0, 0] = delta
        monkeypatch.setattr(circuits, "circuit_matrix", lambda c: exact(c) + bump)

    def test_tolerances(self, monkeypatch):
        self._skew(monkeypatch, 5e-11)
        build_general_circuit(identity_form([0.3, 0.2, 0.1]))
        with pytest.raises(SynthesisError, match="optimal circuit") as info:
            build_optimal_circuit(1, 1)
        assert info.value.residual == pytest.approx(5e-11, rel=1e-3)

    def test_general_rejected(self, monkeypatch):
        self._skew(monkeypatch, 5e-10)
        with pytest.raises(SynthesisError, match="general circuit") as info:
            build_general_circuit(identity_form([0.3, 0.2, 0.1]))
        assert info.value.residual == pytest.approx(5e-10, rel=1e-3)


class TestOptimalCircuit:
    @pytest.mark.parametrize("sx", [1, -1])
    @pytest.mark.parametrize("sz", [1, -1])
    def test_matches_exponential(self, sx, sz):
        c = build_optimal_circuit(sx, sz)
        assert equal_up_to_global_phase(circuit_matrix(c), optimal_interaction(sx, sz), 1e-12)

    @pytest.mark.parametrize("sx", [1, -1])
    @pytest.mark.parametrize("sz", [1, -1])
    def test_worst_case_quarter(self, sx, sz):
        assert worst_case_fidelity(circuit_matrix(build_optimal_circuit(sx, sz))).fidelity == (
            pytest.approx(0.25, abs=1e-12)
        )

    def test_opposite_signs_cancel(self):
        prod = circuit_matrix(build_optimal_circuit(-1, -1)) @ circuit_matrix(
            build_optimal_circuit(1, 1)
        )
        form = kraus_cirac_decompose(prod)
        np.testing.assert_allclose(form.alpha, np.zeros(3), atol=1e-9)


class TestIdentities:
    def test_audit(self):
        rows = {check.ident: check for check in verify_identities()}
        assert rows["pauli-pair-commutation"].printed_holds
        assert rows["pauli-pair-commutation"].residual <= 1e-12
        assert rows["cnot-x-conjugation"].printed_holds
        assert rows["cnot-x-conjugation"].residual <= 1e-12
        assert rows["z-rotated-xx-to-yy"].printed_holds
        assert rows["z-rotated-xx-to-yy"].residual <= 1e-12
        zrow = rows["cnot-z-conjugation"]
        assert zrow.holds
        # the printed minus sign does not survive direct evaluation
        assert not zrow.printed_holds
        assert zrow.corrected_form == "C (I x Z) C = +Z x Z"
        assert zrow.corrected_residual <= 1e-12
        assert zrow.verdict == ("holds-with-corrected-sign", zrow.corrected_residual)
        assert rows["cnot-x-conjugation"].verdict[0] == "pass"

    @pytest.mark.parametrize("tol", [1e-12, 0.0, 3.0])
    def test_audit_matches_np_kron(self, tol):
        # at 0.0 the z-rotated residual fails; at 3.0 the printed Z sign passes
        assert verify_identities(tol) == kron_identities(tol)

    def test_verdict(self):
        printed = IdentityCheck("a", True, 1e-16)
        corrected = IdentityCheck("b", False, 2.0, "fixed", 3e-16)
        failed = IdentityCheck("c", False, 2.0, "fixed")
        assert (printed.verdict, printed.holds) == (("pass", 1e-16), True)
        assert (corrected.verdict, corrected.holds) == (("holds-with-corrected-sign", 3e-16), True)
        assert (failed.verdict, failed.holds) == (("fail", 2.0), False)


class TestTextFormat:
    def test_round_trip_rotations(self):
        c = build_optimal_circuit(1, -1)
        lines = format_circuit(c).splitlines()
        assert lines == [
            "CNOT 0 1",
            "XROT 0 0.7853981633974483",
            "ZROT 1 -0.7853981633974483",
            "CNOT 0 1",
        ]
        # angles print as repr(), which reads back to the same float
        assert [float(line.split()[2]) for line in lines[1:3]] == [g.angle for g in c[1:3]]

    def test_local_gate_rejected(self):
        c = (local(0, np.eye(2)),)
        with pytest.raises(ContractError, match="local gate"):
            format_circuit(c)

    def test_empty(self):
        assert format_circuit(()) == ""

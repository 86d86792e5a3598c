"""Gate-level synthesis of canonical interactions on two wires.

Wire 0 is the system, wire 1 the ancilla.  Rotation gates follow the
convention G_phi = exp(i phi sigma_G); the CNOT uses wire 0 as control
unless stated otherwise.  Gate lists are temporal: the leftmost gate acts
first, so the circuit matrix is the right-to-left product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .errors import ContractError, DimensionError, SynthesisError
from .matops import assert_unitary, equal_up_to_global_phase
from .minimax import CanonicalForm, optimal_interaction
from .pauli import PAULI

ROTATION_KINDS = {"xrot": 1, "yrot": 2, "zrot": 3}

CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CNOT_01.setflags(write=False)

#: max deviation to still drop an identity local from a synthesized gate list
_IDENTITY_DROP_TOL = 1e-12


@dataclass(frozen=True)
class Gate:
    """One gate: a rotation or local on a single wire, or a CNOT on both."""

    kind: str
    wires: tuple
    angle: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        for w in self.wires:
            # numpy integers are Integral; bool is too, but is no wire
            if not isinstance(w, Integral) or isinstance(w, bool) or w not in (0, 1):
                raise DimensionError(f"wire index must be 0 or 1, got {w!r}")
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if self.kind == "cnot":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ContractError("cnot needs distinct control and target wires")
        elif self.kind in ROTATION_KINDS:
            if len(self.wires) != 1 or self.angle is None:
                raise ContractError(f"{self.kind} needs one wire and an angle")
            angle = self.angle
            if not isinstance(angle, Real) or isinstance(angle, bool) or not math.isfinite(angle):
                raise ContractError(f"{self.kind} angle must be a finite real, got {angle!r}")
            object.__setattr__(self, "angle", float(angle))
        elif self.kind == "local":
            if len(self.wires) != 1 or self.matrix is None:
                raise ContractError("local needs one wire and a matrix")
            object.__setattr__(self, "matrix", assert_unitary(self.matrix, 2, name="local gate"))
        else:
            raise ContractError(f"unknown gate kind {self.kind!r}")


def rotation(kind: str, wire: int, angle: float) -> Gate:
    return Gate(kind=kind, wires=(wire,), angle=angle)


def cnot(control: int = 0, target: int = 1) -> Gate:
    return Gate(kind="cnot", wires=(control, target))


def local(wire: int, matrix) -> Gate:
    return Gate(kind="local", wires=(wire,), matrix=np.asarray(matrix, dtype=complex))


@dataclass(frozen=True)
class Circuit:
    gates: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


def _embed(g2, wire: int) -> np.ndarray:
    if wire == 0:
        return np.kron(g2, np.eye(2))
    return np.kron(np.eye(2), g2)


def gate_matrix(g: Gate) -> np.ndarray:
    """4x4 matrix of a single gate."""
    if g.kind == "cnot":
        if g.wires == (0, 1):
            return CNOT_01.copy()
        # control on wire 1: swap-conjugated variant
        return np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
        )
    if g.kind in ROTATION_KINDS:
        sigma = PAULI[ROTATION_KINDS[g.kind]]
        rot = np.cos(g.angle) * np.eye(2) + 1j * np.sin(g.angle) * sigma
        return _embed(rot, g.wires[0])
    return _embed(g.matrix, g.wires[0])


def circuit_matrix(c: Circuit) -> np.ndarray:
    """Right-to-left product of the gate matrices (leftmost gate acts first)."""
    m = np.eye(4, dtype=complex)
    for g in c.gates:
        m = gate_matrix(g) @ m
    return m


def _locals_pair(w_sys, w_anc) -> list:
    gates = []
    if np.max(np.abs(w_sys - np.eye(2))) > _IDENTITY_DROP_TOL:
        gates.append(local(0, w_sys))
    if np.max(np.abs(w_anc - np.eye(2))) > _IDENTITY_DROP_TOL:
        gates.append(local(1, w_anc))
    return gates


def _checked(circuit: Circuit, target, tol: float, message: str) -> Circuit:
    """``circuit``, once its matrix equals ``target`` up to global phase within
    ``tol``; otherwise SynthesisError with the max entrywise deviation."""
    built = circuit_matrix(circuit)
    if not equal_up_to_global_phase(built, target, tol):
        raise SynthesisError(message, float(np.max(np.abs(built - target))))
    return circuit


def build_general_circuit(cf: CanonicalForm) -> Circuit:
    """Four-CNOT template realizing (W1 x W2) canonical_gate(alpha) (W3 x W4).

    The inner CNOT sandwiches turn single-wire rotations into the three
    commuting interaction factors; the pre/post quarter Z rotations carry the
    middle factor onto the YY axis.  The result is validated against the
    spectral-synthesis target before it is returned.
    """
    a1, a2, a3 = cf.alpha
    gates = []
    gates += _locals_pair(cf.w3, cf.w4)
    gates += [
        cnot(),
        rotation("xrot", 0, a1),
        rotation("zrot", 1, a3),
        cnot(),
        rotation("zrot", 0, -np.pi / 4),
        rotation("zrot", 1, -np.pi / 4),
        cnot(),
        rotation("xrot", 0, -a2),
        cnot(),
        rotation("zrot", 0, np.pi / 4),
        rotation("zrot", 1, np.pi / 4),
    ]
    gates += _locals_pair(cf.w1, cf.w2)
    circuit = Circuit(tuple(gates))
    target = cf.reconstruct()
    return _checked(circuit, target, 1e-10, "general circuit does not reproduce its target")


def build_optimal_circuit(sx_sign: int, sz_sign: int) -> Circuit:
    """CNOT . (X_{sx pi/4} x Z_{sz pi/4}) . CNOT, the two-CNOT optimal device."""
    circuit = Circuit(
        (
            cnot(),
            rotation("xrot", 0, sx_sign * np.pi / 4),
            rotation("zrot", 1, sz_sign * np.pi / 4),
            cnot(),
        )
    )
    target = optimal_interaction(sx_sign, sz_sign)
    return _checked(circuit, target, 1e-12, "optimal circuit does not reproduce its target")


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of checking one of the published CNOT-conjugation identities."""

    ident: str
    printed_holds: bool
    residual: float
    corrected_form: str | None = None
    corrected_residual: float | None = None

    @property
    def verdict(self) -> tuple[str, float]:
        """(status, residual to report); the status is ``pass``,
        ``holds-with-corrected-sign`` or ``fail``."""
        if self.printed_holds:
            return "pass", self.residual
        if self.corrected_residual is not None:
            return "holds-with-corrected-sign", self.corrected_residual
        return "fail", self.residual

    @property
    def holds(self) -> bool:
        return self.verdict[0] != "fail"


def verify_identities(tol: float = 1e-12) -> list[IdentityCheck]:
    """Numerically audit the four circuit identities used by the synthesis.

    The Z-conjugation identity is printed in the literature with a minus
    sign; the check records whichever sign actually holds.
    """
    results = []
    c = CNOT_01

    resid = 0.0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            lhs = np.kron(PAULI[a], PAULI[a]) @ np.kron(PAULI[b], PAULI[b])
            rhs = np.kron(PAULI[b], PAULI[b]) @ np.kron(PAULI[a], PAULI[a])
            resid = max(resid, float(np.max(np.abs(lhs - rhs))))
    results.append(IdentityCheck("pauli-pair-commutation", resid <= tol, resid))

    got = c @ np.kron(PAULI[1], np.eye(2)) @ c
    resid = float(np.max(np.abs(got - np.kron(PAULI[1], PAULI[1]))))
    results.append(IdentityCheck("cnot-x-conjugation", resid <= tol, resid))

    got = c @ np.kron(np.eye(2), PAULI[3]) @ c
    printed = float(np.max(np.abs(got + np.kron(PAULI[3], PAULI[3]))))  # printed sign: -ZZ
    flipped = float(np.max(np.abs(got - np.kron(PAULI[3], PAULI[3]))))
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
        @ np.kron(PAULI[1], np.eye(2))
        @ c
        @ np.kron(zq.conj().T, zq.conj().T)
    )
    resid = float(np.max(np.abs(lhs - np.kron(PAULI[2], PAULI[2]))))
    results.append(IdentityCheck("z-rotated-xx-to-yy", resid <= tol, resid))

    return results


# ---------------------------------------------------------------------------
# text format, write-only: one gate per line, e.g. "CNOT 0 1", "XROT 0 0.3"
# ---------------------------------------------------------------------------


def format_circuit(c: Circuit) -> str:
    """One line per gate; angles print as repr() so they read back exactly."""
    lines = []
    for g in c.gates:
        if g.kind == "cnot":
            lines.append(f"CNOT {g.wires[0]} {g.wires[1]}")
        elif g.kind in ROTATION_KINDS:
            lines.append(f"{g.kind.upper()} {g.wires[0]} {g.angle!r}")
        else:
            raise ContractError("a local gate has no text form: only CNOTs and rotations print")
    return "\n".join(lines) + ("\n" if lines else "")

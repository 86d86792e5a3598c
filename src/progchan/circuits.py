"""Gate-level synthesis of canonical interactions on two wires.

Wire 0 is the system, wire 1 the ancilla.  Rotation gates follow the
convention G_phi = exp(i phi sigma_G); the CNOT uses wire 0 as control
unless stated otherwise.  Gate lists are temporal: the leftmost gate acts
first, so the circuit matrix is the right-to-left product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, SynthesisError
from .matops import _is_integer, _is_real, _kron, assert_unitary, equal_up_to_global_phase
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
        # a string is iterable too, but its characters are no wires
        if not isinstance(self.wires, (tuple, list)):
            raise DimensionError(f"wires must be a tuple or list of wire indices, got {self.wires!r}")
        for w in self.wires:
            if not _is_integer(w) or w not in (0, 1):
                raise DimensionError(f"wire index must be 0 or 1, got {w!r}")
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if self.kind not in ROTATION_KINDS and self.kind not in ("cnot", "local"):
            raise ContractError(f"unknown gate kind {self.kind!r}")
        # a field the kind ignores would be dropped silently by gate_matrix and format_circuit
        if self.angle is not None and self.kind not in ROTATION_KINDS:
            raise ContractError(f"{self.kind} takes no angle, got {self.angle!r}")
        if self.matrix is not None and self.kind != "local":
            raise ContractError(f"{self.kind} takes no matrix")
        if self.kind == "cnot":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ContractError("cnot needs distinct control and target wires")
        elif self.kind in ROTATION_KINDS:
            if len(self.wires) != 1 or self.angle is None:
                raise ContractError(f"{self.kind} needs one wire and an angle")
            angle = self.angle
            if not _is_real(angle) or not math.isfinite(angle):
                raise ContractError(f"{self.kind} angle must be a finite real, got {angle!r}")
            object.__setattr__(self, "angle", float(angle))
        else:
            if len(self.wires) != 1 or self.matrix is None:
                raise ContractError("local needs one wire and a matrix")
            object.__setattr__(self, "matrix", assert_unitary(self.matrix, 2, name="local gate"))


def rotation(kind: str, wire: int, angle: float) -> Gate:
    return Gate(kind=kind, wires=(wire,), angle=angle)


def cnot(control: int = 0, target: int = 1) -> Gate:
    return Gate(kind="cnot", wires=(control, target))


def local(wire: int, matrix) -> Gate:
    return Gate(kind="local", wires=(wire,), matrix=np.asarray(matrix, dtype=complex))


def _embed(g2, wire: int) -> np.ndarray:
    return _kron(g2, PAULI[0]) if wire == 0 else _kron(PAULI[0], g2)


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


def circuit_matrix(gates) -> np.ndarray:
    """Right-to-left product of a sequence of gate matrices (leftmost gate acts first)."""
    m = np.eye(4, dtype=complex)
    for g in gates:
        m = gate_matrix(g) @ m
    return m


def _locals_pair(w_sys, w_anc) -> list:
    gates = []
    if np.max(np.abs(w_sys - np.eye(2))) > _IDENTITY_DROP_TOL:
        gates.append(local(0, w_sys))
    if np.max(np.abs(w_anc - np.eye(2))) > _IDENTITY_DROP_TOL:
        gates.append(local(1, w_anc))
    return gates


def _checked(gates: tuple, target, tol: float, message: str) -> tuple:
    """``gates``, once their matrix equals ``target`` up to global phase within
    ``tol``; otherwise SynthesisError with the max entrywise deviation."""
    built = circuit_matrix(gates)
    if not equal_up_to_global_phase(built, target, tol):
        raise SynthesisError(message, float(np.max(np.abs(built - target))))
    return gates


def build_general_circuit(cf: CanonicalForm) -> tuple[Gate, ...]:
    """Four-CNOT template realizing (W1 x W2) canonical_gate(alpha) (W3 x W4).

    The inner CNOT sandwiches turn single-wire rotations into the three
    commuting interaction factors; the pre/post quarter Z rotations carry the
    middle factor onto the YY axis.  The result is validated against the
    spectral-synthesis target before it is returned.
    """
    a1, a2, a3 = cf.alpha
    gates = (
        *_locals_pair(cf.w3, cf.w4),
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
        *_locals_pair(cf.w1, cf.w2),
    )
    return _checked(gates, cf.reconstruct(), 1e-10, "general circuit does not reproduce its target")


def build_optimal_circuit(sx_sign: int, sz_sign: int) -> tuple[Gate, ...]:
    """CNOT . (X_{sx pi/4} x Z_{sz pi/4}) . CNOT, the two-CNOT optimal device."""
    target = optimal_interaction(sx_sign, sz_sign)  # checks the signs before any gate is built
    gates = (
        cnot(),
        rotation("xrot", 0, sx_sign * np.pi / 4),
        rotation("zrot", 1, sz_sign * np.pi / 4),
        cnot(),
    )
    return _checked(gates, target, 1e-12, "optimal circuit does not reproduce its target")


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
    c, x_i, i_z = CNOT_01, _kron(PAULI[1], PAULI[0]), _kron(PAULI[0], PAULI[3])
    xx, yy, zz = pairs = _kron(PAULI[1:], PAULI[1:])
    products = pairs[:, None] @ pairs  # products[a, b] = P_a P_b for P = XX, YY, ZZ
    zq = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    zq_dag = zq.conj().T
    # name, left side, right side as printed, and the corrected (text, right side) if any
    table = (
        ("pauli-pair-commutation", products, products.swapaxes(0, 1), None),
        ("cnot-x-conjugation", c @ x_i @ c, xx, None),
        ("cnot-z-conjugation", c @ i_z @ c, -zz, ("C (I x Z) C = +Z x Z", zz)),
        ("z-rotated-xx-to-yy", _kron(zq, zq) @ c @ x_i @ c @ _kron(zq_dag, zq_dag), yy, None),
    )
    results = []
    for ident, lhs, rhs, corrected in table:
        resid = float(np.max(np.abs(lhs - rhs)))
        if resid <= tol or corrected is None:
            results.append(IdentityCheck(ident, resid <= tol, resid))
        else:
            fixed = float(np.max(np.abs(lhs - corrected[1])))
            fixed = fixed if fixed <= tol else None
            results.append(IdentityCheck(ident, False, resid, corrected[0], fixed))
    return results


# ---------------------------------------------------------------------------
# text format, write-only: one gate per line, e.g. "CNOT 0 1", "XROT 0 0.3"
# ---------------------------------------------------------------------------


def format_circuit(gates) -> str:
    """One line per gate of a sequence; angles print as repr() so they read back exactly."""
    lines = []
    for g in gates:
        if g.kind == "cnot":
            lines.append(f"CNOT {g.wires[0]} {g.wires[1]}")
        elif g.kind in ROTATION_KINDS:
            lines.append(f"{g.kind.upper()} {g.wires[0]} {g.angle!r}")
        else:
            raise ContractError("a local gate has no text form: only CNOTs and rotations print")
    return "\n".join(lines) + ("\n" if lines else "")

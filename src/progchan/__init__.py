"""progchan: worst-case programming fidelity of a fixed two-qubit device.

A fixed joint unitary V on system + ancilla programs a channel on the system
through the ancilla ("program") state.  This package computes the programmed
channels, the best program for any target unitary, the worst-case fidelity
F(V) = min_U max_sigma F(U, P_{V,sigma}) in closed form, the devices reaching
the optimum F = 1/4, and an independent brute-force verification of all of it.
"""

from .channels import (
    KrausChannel,
    apply_programmed,
    avg_io_fidelity,
    channel_fidelity,
    distance,
    program_channel,
    program_overlap,
)
from .circuits import (
    Gate,
    IdentityCheck,
    build_general_circuit,
    build_optimal_circuit,
    circuit_matrix,
    format_circuit,
    verify_identities,
)
from .errors import (
    ContractError,
    DecompositionError,
    DimensionError,
    MatrixFormatError,
    SynthesisError,
)
from .matio import load_matrix, matrix_to_obj, obj_to_matrix
from .matops import equal_up_to_global_phase, kron, partial_trace
from .minimax import (
    CanonicalForm,
    MinimaxReport,
    canonical_gate,
    closed_form_norm,
    closed_form_parts,
    controlled_unitary_worst,
    covariance_transform,
    fidelity_uv,
    kraus_cirac_decompose,
    optimal_interaction,
    s_operator,
    theta_from_alpha,
    worst_case_fidelity,
)
from .oracle import (
    ScanConfig,
    ScanResult,
    haar_unitary,
    minimax_scan,
    random_density,
    sample_su2,
    sigma_dominance_check,
)
from .pauli import (
    HADAMARD,
    PAULI,
    TVector,
    bloch_to_matrix,
    hadamard_t,
    matrix_to_bloch,
)

__version__ = "0.1.0"

__all__ = [
    "KrausChannel",
    "apply_programmed",
    "avg_io_fidelity",
    "channel_fidelity",
    "distance",
    "program_channel",
    "program_overlap",
    "Gate",
    "IdentityCheck",
    "build_general_circuit",
    "build_optimal_circuit",
    "circuit_matrix",
    "format_circuit",
    "verify_identities",
    "ContractError",
    "DecompositionError",
    "DimensionError",
    "MatrixFormatError",
    "SynthesisError",
    "load_matrix",
    "matrix_to_obj",
    "obj_to_matrix",
    "equal_up_to_global_phase",
    "kron",
    "partial_trace",
    "CanonicalForm",
    "MinimaxReport",
    "canonical_gate",
    "closed_form_norm",
    "closed_form_parts",
    "controlled_unitary_worst",
    "covariance_transform",
    "fidelity_uv",
    "kraus_cirac_decompose",
    "optimal_interaction",
    "s_operator",
    "theta_from_alpha",
    "worst_case_fidelity",
    "ScanConfig",
    "ScanResult",
    "haar_unitary",
    "minimax_scan",
    "random_density",
    "sample_su2",
    "sigma_dominance_check",
    "HADAMARD",
    "PAULI",
    "TVector",
    "bloch_to_matrix",
    "hadamard_t",
    "matrix_to_bloch",
    "__version__",
]

"""The public API, and the names the benchmark harness reaches into.

``import progchan`` exports the paper's objects and what the CLI, the README
and the acceptance suite use; every other name is internal to its submodule.
``perfbench/tracing.py`` rebinds functions by name in the modules that call
them, so renaming or dropping one of those names breaks ``run.py --trace 1``
without failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import progchan

PUBLIC_API = [
    "CanonicalForm",
    "ContractError",
    "DecompositionError",
    "DimensionError",
    "Gate",
    "HADAMARD",
    "IdentityCheck",
    "KrausChannel",
    "MatrixFormatError",
    "MinimaxReport",
    "PAULI",
    "ScanConfig",
    "ScanResult",
    "SynthesisError",
    "TVector",
    "__version__",
    "apply_programmed",
    "avg_io_fidelity",
    "bloch_to_matrix",
    "build_general_circuit",
    "build_optimal_circuit",
    "canonical_gate",
    "channel_fidelity",
    "circuit_matrix",
    "closed_form_norm",
    "closed_form_parts",
    "controlled_unitary_worst",
    "covariance_transform",
    "distance",
    "equal_up_to_global_phase",
    "fidelity_uv",
    "format_circuit",
    "haar_unitary",
    "hadamard_t",
    "kraus_cirac_decompose",
    "kron",
    "load_matrix",
    "matrix_to_bloch",
    "matrix_to_obj",
    "minimax_scan",
    "obj_to_matrix",
    "optimal_interaction",
    "partial_trace",
    "program_channel",
    "program_overlap",
    "random_density",
    "s_operator",
    "sample_su2",
    "sigma_dominance_check",
    "theta_from_alpha",
    "verify_identities",
    "worst_case_fidelity",
]

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Read by perfbench/baseline.py, run.py and workloads.py outside the hooks
PERFBENCH_READS = [
    ("_scan_py", "fidelity_batch"),
    ("kernels", "backend_name"),
    ("kernels", "device_parts"),
    ("kernels", "fidelity_from_bloch"),
    ("kernels", "fidelity_from_bloch_batch"),
    ("minimax", "CanonicalForm"),
    ("minimax", "kraus_cirac_decompose"),
    ("minimax", "optimal_interaction"),
    ("minimax", "theta_from_alpha"),
    ("oracle", "ScanConfig"),
    ("oracle", "sample_su2"),
    ("pauli", "bloch_to_matrix"),
    ("pauli", "hadamard_t"),
    ("circuits", "build_general_circuit"),
    ("circuits", "build_optimal_circuit"),
    ("circuits", "format_circuit"),
    ("channels", "channel_fidelity"),
    ("cli", "main"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_all_is_pinned():
    assert sorted(progchan.__all__) == PUBLIC_API


def test_pauli_is_the_submodule():
    import progchan.pauli as p

    assert p is sys.modules["progchan.pauli"]
    assert progchan.pauli.PAULI is p.PAULI


def test_every_export_resolves():
    for name in progchan.__all__:
        assert hasattr(progchan, name), name


def test_benchmark_names_are_bound():
    names = {(module, attr) for module, attr, _ in load_tracing().HOOKS} | set(PERFBENCH_READS)
    missing = [
        f"progchan.{module}.{attr}"
        for module, attr in sorted(names)
        if not callable(getattr(importlib.import_module(f"progchan.{module}"), attr, None))
    ]
    assert not missing

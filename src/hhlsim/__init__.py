"""Gate-model circuit simulator and quantum linear-system solver.

The package splits into a small stack: ``qstate`` holds state algebra,
``circuit`` the gate set and execution backends, ``hhl`` the generic
solver pipeline, ``compiled2x2`` the hand-optimized four-qubit circuit
for the bundled 2x2 instance, ``analysis`` observables and reports, and
``cli`` the command-line front end.
"""

from .circuit import Circuit, ConditionalGate, Gate, Measure, NoiseSpec, RunOutcome
from .compiled2x2 import CompiledConfig, run_compiled
from .errors import (
    BadFlag,
    BadIndex,
    DimensionMismatch,
    InvalidC,
    NonUnitary,
    NotHermitian,
    NotNormalized,
    NotPositiveDefinite,
    Singular,
    SimulationError,
    UnphysicalExpectations,
    ZeroProbability,
)
from .hhl import HhlProblem, HhlResult, classical_solve, run_hhl
from .analysis import (
    PauliExpectations,
    PauliReport,
    build_pauli_report,
    ghz_fidelity,
    pauli_expectation,
    reconstruct_single_qubit,
)

__all__ = [
    "BadFlag",
    "BadIndex",
    "Circuit",
    "CompiledConfig",
    "ConditionalGate",
    "DimensionMismatch",
    "Gate",
    "HhlProblem",
    "HhlResult",
    "InvalidC",
    "Measure",
    "NoiseSpec",
    "NonUnitary",
    "NotHermitian",
    "NotNormalized",
    "NotPositiveDefinite",
    "PauliExpectations",
    "PauliReport",
    "RunOutcome",
    "SimulationError",
    "Singular",
    "UnphysicalExpectations",
    "ZeroProbability",
    "build_pauli_report",
    "classical_solve",
    "ghz_fidelity",
    "pauli_expectation",
    "reconstruct_single_qubit",
    "run_compiled",
    "run_hhl",
]

__version__ = "0.1.0"

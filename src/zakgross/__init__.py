"""Phase-space simulator for GKP qudit Clifford circuits on the torus."""

from .circuit_io import CircuitSpec, SchemaError, parse_circuit, run
from .estimator import EstimateReport, InfeasiblePlan, estimate, sample_count
from .measure import MeasurementSpec, exact_probabilities, exact_probabilities_ideal
from .qudit import CodeParams, Gate
from .symplectic import AffineMap, IntSymplectic, NotSymplectic, decompose
from .theta import CodeState
from .wigner import WignerState, ideal_input, realistic_input, sample_abs

__all__ = [
    "AffineMap",
    "CircuitSpec",
    "CodeParams",
    "CodeState",
    "EstimateReport",
    "Gate",
    "InfeasiblePlan",
    "IntSymplectic",
    "MeasurementSpec",
    "NotSymplectic",
    "SchemaError",
    "WignerState",
    "decompose",
    "estimate",
    "exact_probabilities",
    "exact_probabilities_ideal",
    "ideal_input",
    "parse_circuit",
    "realistic_input",
    "run",
    "sample_abs",
    "sample_count",
]
__version__ = "0.1.0"

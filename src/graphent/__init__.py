"""Graph states from pairwise x-x spin couplings.

Evolving |00...0> under commuting exp(-i*(phi/2)*XX) edge terms of an
interaction graph entangles each spin with the rest by an amount set by its
vertex degree: E = (1 - |cos(phi)|**degree) / 2. The package computes that
measure three mutually cross-checking ways (closed form, exact state-vector
simulation, finite-shot sampling with an optional readout-error model) and
synthesizes the preparing gate circuits.
"""

from .calibration import (
    CalibrationData,
    load_calibration,
    parse_calibration,
    valencia_calibration,
)
from .circuits import (
    apply_circuit,
    choose_orientation,
    circuit_text,
    gate_text,
    measurement_prelude,
    synthesize_edge,
    synthesize_graph_circuit,
)
from .entanglement import (
    BlochVector,
    EntanglementEstimate,
    analytic_entanglement,
    analytic_estimate,
    bloch_vector,
    entanglement_from_bloch,
    exact_entanglement,
)
from .errors import ConsistencyError, GraphentError, ResourceCapError, ValidationError
from .graphs import (
    FORMATS,
    Graph,
    complete,
    parse_graph,
    path,
    preset,
    ring,
    valencia,
)
from .sampling import DEFAULT_SHOTS, derive_seed, estimate_entanglement_shots
from .statevector import (
    DEFAULT_MAX_QUBITS,
    Gate,
    StateVector,
    apply_gate,
    evolve_edge_exact,
    evolve_graph_exact,
    init_zero,
    overlap_magnitude,
)
from .validation import random_graph, run_validation

__version__ = "0.1.0"

"""Graph states from pairwise x-x spin couplings.

Evolving |00...0> under commuting exp(-i*(phi/2)*XX) edge terms of an
interaction graph entangles each spin with the rest by an amount set by its
vertex degree: E = (1 - |cos(phi)|**degree) / 2. The package computes that
measure three mutually cross-checking ways (closed form, exact state-vector
simulation, finite-shot sampling with an optional readout-error model) and
synthesizes the preparing gate circuits.

Importing the package does not import numpy. The names below that need it
(the state-vector kernels, the shots route and the self-check suites) and
their modules (``statevector``, ``sampling``, ``validation``) are module
attributes resolved on first access (PEP 562); ``__all__`` and ``dir()``
list them with the rest.
"""

from .calibration import CalibrationData, load_calibration, parse_calibration, valencia_calibration
from .circuits import Gate, apply_circuit, choose_orientation, circuit_text, gate_text, measurement_prelude
from .circuits import synthesize_edge, synthesize_graph_circuit
from .entanglement import BlochVector, EntanglementEstimate, analytic_entanglement, analytic_estimate
from .entanglement import bloch_vector, entanglement_from_bloch, exact_entanglement
from .errors import DEFAULT_MAX_QUBITS, DEFAULT_SHOTS, ConsistencyError, GraphentError, ResourceCapError
from .errors import ValidationError, _numpy_module
from .graphs import FORMATS, Graph, complete, parse_graph, path, preset, ring, valencia

__version__ = "0.1.0"

# the numpy-backed exports, each with the module __getattr__ imports it from
_LAZY = {
    name: module
    for module, names in (
        ("statevector", "StateVector apply_gate evolve_edges init_zero overlap_magnitude"),
        ("sampling", "derive_seed estimate_entanglement_shots"),
        ("validation", "random_graph run_validation"),
    )
    for name in names.split()
}
__all__ = [
    "CalibrationData", "load_calibration", "parse_calibration", "valencia_calibration",
    "Gate", "apply_circuit", "choose_orientation", "circuit_text", "gate_text",
    "measurement_prelude", "synthesize_edge", "synthesize_graph_circuit",
    "BlochVector", "EntanglementEstimate", "analytic_entanglement", "analytic_estimate",
    "bloch_vector", "entanglement_from_bloch", "exact_entanglement",
    "DEFAULT_MAX_QUBITS", "DEFAULT_SHOTS", "ConsistencyError", "GraphentError",
    "ResourceCapError", "ValidationError",
    "FORMATS", "Graph", "complete", "parse_graph", "path", "preset", "ring", "valencia",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY.values():  # importing a submodule sets it on the package
        return _numpy_module(name)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_numpy_module(_LAZY[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY.values()))

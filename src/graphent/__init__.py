"""Graph states from pairwise x-x spin couplings.

Evolving |00...0> under commuting exp(-i*(phi/2)*XX) edge terms of an
interaction graph entangles each spin with the rest by an amount set by its
vertex degree: E = (1 - |cos(phi)|**degree) / 2. The package computes that
measure three mutually cross-checking ways (closed form, exact state-vector
simulation, finite-shot sampling with an optional readout-error model) and
synthesizes the preparing gate circuits.

``import graphent`` imports no submodule. Each exported name, and each
submodule, is a module attribute resolved from its module on first access
(PEP 562), so a name pulls in only what it needs: numpy loads with the first
numpy-backed one. The kernels and helpers the routes use stay importable from
their modules (``graphent.statevector.init_zero``).
"""

import importlib

__version__ = "0.1.0"

# every export, by the module that defines it, in the README's table order
_EXPORTS = {
    name: module
    for module, names in (
        ("entanglement", "analytic_entanglement analytic_estimate exact_entanglement"),
        ("sampling", "estimate_entanglement_shots derive_seed"),
        ("circuits", "synthesize_graph_circuit circuit_text"),
        ("validation", "run_validation"),
        ("graphs", "Graph parse_graph preset valencia complete path ring FORMATS"),
        ("calibration", "CalibrationData load_calibration parse_calibration valencia_calibration"),
        ("entanglement", "EntanglementEstimate BlochVector"),
        ("circuits", "Gate"),
        ("errors", "GraphentError ValidationError ResourceCapError ConsistencyError DEFAULT_MAX_QUBITS DEFAULT_SHOTS"),
    )
    for name in names.split()
}
_SUBMODULES = ("calibration", "circuits", "cli", "entanglement", "errors", "graphs", "sampling", "statevector", "validation")
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule also sets it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_EXPORTS[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))

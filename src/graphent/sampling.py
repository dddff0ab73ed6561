"""Finite-shot emulation of the measurement pipeline.

A :class:`ShotResult` holds one basis-state integer per shot, in the package
bit convention: bit ``l`` of an outcome is the measured bit of qubit ``l``.
``ShotResult.counts`` renders them as bitstrings with qubit 0 first
(character ``l`` is qubit ``l``), formatted only when asked for.

Determinism: every sampling entry point takes a non-negative integer seed and
is bit-reproducible for a fixed seed and numpy version. Derived substreams
come from ``numpy.random.SeedSequence`` spawning in a documented order; for
``estimate_entanglement_shots`` that order is (z, x, y), one substream per
axis, which draws the axis's error patterns and then its counts.

Gate/CX noise, when enabled (``estimate_entanglement_shots(..., gate_noise=True)``),
is a trajectory approximation: after each gate, with the calibrated
probability, a uniformly random non-identity Pauli hits the gate's qubit(s).
Each distinct error pattern is the circuit with those Pauli gates inserted,
simulated once for all the shots that share it; with every error rate zero
this is noiseless sampling. It is off by default and makes no claim to
reproduce hardware data quantitatively.

``estimate_entanglement_shots`` samples the star of spin ``l`` only: its
``degree(l)`` edge blocks on ``degree(l) + 1`` qubits, with the calibration
remapped onto them. An inserted Pauli pushed through the rest of its block
leaves that block an XX rotation at -phi/2 or +phi/2 times a Pauli on the
edge; pushed to the end of the circuit it can only flip the signs of the XX
rotations it passes, and spin ``l``'s marginal of commuting XX rotations does
not depend on their signs. So only the blocks at ``l``, the prelude and the
errors drawn on their gates reach ``l``'s statistics, noise included.

The route keeps only the count of shots that read ``l`` as 1. Readout error
is a symmetric per-shot flip of that bit with probability ``r``, so each shot
of an error pattern whose state gives ``l`` the z probability ``p1`` reads 1
with probability ``r + (1 - 2r) p1``, independently: the pattern's ``k`` shots
add one binomial draw to the count. The full-register :func:`sample_circuit`,
which draws every shot's outcome, is the oracle the route is tested against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationData
from .circuits import Circuit, apply_circuit, measurement_prelude, synthesize_star_circuit
from .entanglement import BlochVector, EntanglementEstimate, entanglement_from_bloch
from .errors import ValidationError
from .graphs import Graph
from .statevector import DEFAULT_MAX_QUBITS, Gate, StateVector, _finite_angle, init_zero

DEFAULT_SHOTS = 8192
# Shots per draw of the trajectory hit matrix, which bounds it to TRAJECTORY_CHUNK x gates.
TRAJECTORY_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class ShotResult:
    """Measured z-basis outcomes, one basis-state integer per shot."""

    n_qubits: int
    outcomes: np.ndarray

    def __post_init__(self):
        if len(self.outcomes) == 0:
            raise ValidationError("outcomes may not be empty")
        if self.outcomes.min() < 0 or self.outcomes.max() >= 1 << self.n_qubits:
            raise ValidationError(f"outcome out of range for {self.n_qubits} qubits")

    @property
    def shots(self) -> int:
        return len(self.outcomes)

    @property
    def counts(self) -> dict[str, int]:
        """Shots per outcome bitstring, qubit 0 first, in ascending outcome order."""
        values, counts = np.unique(self.outcomes, return_counts=True)
        width = f"0{self.n_qubits}b"
        return {format(int(v), width)[::-1]: int(c) for v, c in zip(values, counts)}


def _checked_seed(seed: int) -> int:
    """``seed``, if numpy accepts it; numpy's own error for a negative seed is unclassified."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def _checked_shots(shots: int) -> None:
    """Raise unless ``shots`` is a positive count that numpy's int64 draws can hold."""
    if shots < 1:
        raise ValidationError(f"shot count must be positive, got {shots}")
    if shots >= 1 << 63:
        raise ValidationError(f"shot count must be below 2**63, got {shots}")


def _draw_outcomes(state: StateVector, shots: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(state.probabilities())
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    return np.minimum(idx, len(cdf) - 1)


def _z_mean(ones: int, shots: int) -> tuple[float, float]:
    """(mean, std_error) of ``ones`` 1-reads in ``shots``: (n0 - n1)/shots, sqrt((1 - mean^2)/shots)."""
    mean = (shots - 2 * ones) / shots
    return mean, math.sqrt(max(0.0, 1.0 - mean * mean) / shots)


def estimate_mean_z(result: ShotResult, l: int) -> tuple[float, float]:
    """(mean, std_error) of the qubit-``l`` z outcome, as :func:`_z_mean` counts them."""
    if not 0 <= l < result.n_qubits:
        raise ValidationError(f"qubit {l} out of range for {result.n_qubits}-bit outcomes")
    return _z_mean(int(np.count_nonzero((result.outcomes >> l) & 1)), result.shots)


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent substream seeds spawned from a root seed."""
    children = np.random.SeedSequence(_checked_seed(seed)).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _propagated_std_error(b: BlochVector, errors: tuple[float, float, float]) -> float:
    """First-order delta method through E = (1 - |m|)/2.

    At |m| = 0 the gradient direction is undefined; the dominant-axis bound
    max(errors)/2 is used instead.
    """
    norm = b.norm()
    if norm == 0.0:
        return max(errors) / 2.0
    return 0.5 * math.sqrt(sum((m * s) ** 2 for m, s in zip(b.as_tuple(), errors))) / norm


def _star_calibration(cal: CalibrationData, star: tuple[int, ...], circuit: Circuit) -> CalibrationData:
    """``cal`` on star qubits: row ``s`` is vertex ``star[s]``'s, with the
    cx entries of the circuit's directed pairs."""
    pairs = {(g.control, g.target) for g in circuit.gates if g.kind == "cx"}
    return CalibrationData(
        readout_error=tuple(cal.readout_error[v] for v in star),
        gate_error=tuple(cal.gate_error[v] for v in star),
        cx_error={(c, t): cal.cx_error_for(star[c], star[t]) for c, t in pairs},
    )


def estimate_entanglement_shots(
    g: Graph,
    phi: float,
    l: int,
    shots: int,
    cal: CalibrationData | None = None,
    seed: int = 0,
    *,
    gate_noise: bool = False,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> EntanglementEstimate:
    """Three-experiment shot estimate of spin ``l``'s entanglement.

    One circuit execution per axis (z, x, y) on the star of ``l`` (see
    :func:`synthesize_star_circuit`): ``l``'s edge blocks and the measurement
    prelude, then one binomial count of the shots that read ``l`` as 1, with
    ``l``'s readout error composed into its probability when calibration is
    given. ``gate_noise=True`` also draws gate/CX error trajectories over the
    star's gates from the calibration (required then), one count per
    trajectory. ``max_qubits`` caps the star, ``degree(l) + 1`` qubits.
    """
    g.degree(l)  # spin-range check
    phi = _finite_angle(phi)
    _checked_shots(shots)
    if gate_noise and cal is None:
        raise ValidationError("gate_noise requires calibration data")
    if cal is not None and cal.n_qubits < g.n_vertices:
        raise ValidationError(f"calibration covers {cal.n_qubits} qubits, graph has {g.n_vertices}")
    base, star = synthesize_star_circuit(g, l, phi, cal)
    star_cal = _star_calibration(cal, star, base) if gate_noise else None
    r = 0.0 if cal is None else cal.readout_error[l]
    means: dict[str, float] = {}
    errors: dict[str, float] = {}
    for axis, axis_seed in zip(("z", "x", "y"), derive_seeds(seed, 3)):
        circuit = Circuit(base.n_qubits, base.gates + measurement_prelude(axis, 0))
        rng = np.random.default_rng(axis_seed)
        ones = 0
        for trajectory, k in _trajectories(circuit, shots, star_cal, rng):
            probs = apply_circuit(init_zero(circuit.n_qubits, max_qubits), trajectory).probabilities()
            p1 = probs[1::2].sum() / probs.sum()  # spin l is the star's qubit 0
            ones += int(rng.binomial(k, r + (1 - 2 * r) * p1))
        means[axis], errors[axis] = _z_mean(ones, shots)
    bloch = BlochVector(means["x"], means["y"], means["z"])
    err3 = (errors["x"], errors["y"], errors["z"])
    return EntanglementEstimate(
        spin=l,
        value=entanglement_from_bloch(bloch, norm_tol=None),
        bloch=bloch,
        method="shots",
        std_error=_propagated_std_error(bloch, err3),
        shots=shots,
    )


def _site_error(gate, cal: CalibrationData) -> float:
    if gate.kind == "cx":
        return cal.cx_error_for(gate.control, gate.target)
    if gate.target >= cal.n_qubits:
        raise ValidationError(
            f"no gate error entry for qubit {gate.target} (calibration has {cal.n_qubits})"
        )
    return cal.gate_error[gate.target]


def _with_errors(circuit: Circuit, pattern: tuple[tuple[int, int], ...]) -> Circuit:
    """``circuit`` with Pauli gates after the faulty gates of an error pattern.

    A pattern is a tuple of (gate index, code) events. A single-qubit code
    1/2/3 is x/y/z on the target; a cx code packs the control's Pauli in its
    high two bits and the target's in its low two, 0 meaning identity.
    """
    errors = dict(pattern)
    gates: list[Gate] = []
    for idx, gate in enumerate(circuit.gates):
        gates.append(gate)
        code = errors.get(idx)
        if code is None:
            continue
        if gate.kind == "cx":
            hits = ((code >> 2, gate.control), (code & 3, gate.target))
        else:
            hits = ((code, gate.target),)
        gates.extend(Gate("_xyz"[c], q) for c, q in hits if c)
    return Circuit(circuit.n_qubits, tuple(gates))


def _trajectories(
    circuit: Circuit, shots: int, cal: CalibrationData | None, rng: np.random.Generator
) -> list[tuple[Circuit, int]]:
    """(circuit with an error pattern's Pauli gates inserted, shots) per drawn pattern.

    Without calibration, or with every gate/CX error zero, the circuit takes
    every shot and ``rng`` is not drawn from. Otherwise each shot draws its
    errors (see the module docstring), TRAJECTORY_CHUNK shots at a time.
    """
    probs = np.array([] if cal is None else [_site_error(g, cal) for g in circuit.gates])
    if not probs.any():
        return [(circuit, shots)]
    row_chunks, col_chunks = [], []
    for start in range(0, shots, TRAJECTORY_CHUNK):
        hits = rng.random((min(TRAJECTORY_CHUNK, shots - start), len(probs))) < probs
        chunk_rows, chunk_cols = np.nonzero(hits)
        row_chunks.append(chunk_rows + start)
        col_chunks.append(chunk_cols)
    rows = np.concatenate(row_chunks).tolist()
    cols = np.concatenate(col_chunks).tolist()
    codes = [int(rng.integers(1, 16 if circuit.gates[c].kind == "cx" else 4)) for c in cols]
    shot_events: dict[int, list[tuple[int, int]]] = {}
    for row, col, code in zip(rows, cols, codes):
        shot_events.setdefault(row, []).append((col, code))
    groups = [((), shots - len(shot_events))]
    groups += Counter(tuple(events) for events in shot_events.values()).items()
    return [(_with_errors(circuit, pattern), k) for pattern, k in groups if k]


def sample_circuit(
    circuit: Circuit,
    shots: int,
    seed: int,
    cal: CalibrationData | None = None,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> ShotResult:
    """Run ``circuit`` from |0...0> and draw ``shots`` z-basis outcomes.

    The shots of each error pattern (:func:`_trajectories`) share one
    simulation and draw their outcomes from it, which is identical in
    distribution to simulating every shot separately.
    """
    _checked_shots(shots)
    rng = np.random.default_rng(_checked_seed(seed))
    n = circuit.n_qubits
    pieces = [
        _draw_outcomes(apply_circuit(init_zero(n, max_qubits), trajectory), k, rng)
        for trajectory, k in _trajectories(circuit, shots, cal, rng)
    ]
    return ShotResult(n, np.concatenate(pieces))

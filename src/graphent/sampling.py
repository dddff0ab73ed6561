"""Finite-shot emulation of the measurement pipeline.

Outcome bitstrings follow the package bit convention: character ``i`` of a
counts key is the measured bit of qubit ``i`` (qubit 0 first).

Determinism: every sampling entry point takes an integer seed and is
bit-reproducible for a fixed seed and numpy version. Derived substreams come
from ``numpy.random.SeedSequence`` spawning in a documented order; for
``estimate_entanglement_shots`` that order is (z sample, z readout, x sample,
x readout, y sample, y readout).

Readout error is a symmetric per-qubit bit flip. Gate/CX noise, when enabled
(``estimate_entanglement_shots(..., gate_noise=True)``), is executed by
:class:`DepolarizingSampler`, a trajectory approximation: after each gate,
with the calibrated probability, a uniformly random non-identity Pauli hits
the gate's qubit(s). It is off by default and makes no claim to reproduce
hardware data quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibrationData
from .circuits import Circuit, apply_circuit, measurement_prelude, synthesize_graph_circuit
from .entanglement import BlochVector, EntanglementEstimate, entanglement_from_bloch
from .errors import ResourceCapError, ValidationError
from .graphs import Graph
from .statevector import DEFAULT_MAX_QUBITS, StateVector, apply_gate, apply_pauli, init_zero

DEFAULT_SHOTS = 8192

_PAULI_AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ShotResult:
    """Measured z-basis outcomes: counts per bitstring plus the seed that produced them."""

    shots: int
    counts: dict[str, int]
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValidationError(f"shot count must be positive, got {self.shots}")
        if not self.counts:
            raise ValidationError("counts may not be empty")
        width = len(next(iter(self.counts)))
        total = 0
        for key, c in self.counts.items():
            if len(key) != width or set(key) - {"0", "1"}:
                raise ValidationError(f"malformed outcome key {key!r}")
            if c < 0:
                raise ValidationError(f"negative count for {key!r}")
            total += c
        if total != self.shots:
            raise ValidationError(f"counts sum to {total}, expected {self.shots}")

    @property
    def n_qubits(self) -> int:
        return len(next(iter(self.counts)))


def _int_to_key(value: int, n: int) -> str:
    return format(value, f"0{n}b")[::-1]


def _key_to_int(key: str) -> int:
    return int(key[::-1], 2)


def _draw_outcomes(amps: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    probs = amps.real**2 + amps.imag**2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    return np.minimum(idx, len(cdf) - 1)


def _tally(ints: np.ndarray, n: int) -> dict[str, int]:
    values, counts = np.unique(ints, return_counts=True)
    return {_int_to_key(int(v), n): int(c) for v, c in zip(values, counts)}


def _expand(result: ShotResult) -> np.ndarray:
    """Per-shot outcome integers, expanded in sorted-key order."""
    keys = sorted(result.counts)
    values = np.array([_key_to_int(k) for k in keys], dtype=np.int64)
    reps = np.array([result.counts[k] for k in keys])
    return np.repeat(values, reps)


def sample_z(state: StateVector, shots: int, seed: int) -> ShotResult:
    """Draw ``shots`` i.i.d. z-basis outcomes from |amplitude|^2."""
    if shots < 1:
        raise ValidationError(f"shot count must be positive, got {shots}")
    rng = np.random.default_rng(seed)
    ints = _draw_outcomes(state.amps, shots, rng)
    return ShotResult(shots, _tally(ints, state.n_qubits), seed)


def corrupt_readout(result: ShotResult, cal: CalibrationData, seed: int) -> ShotResult:
    """Flip each bit of each shot independently with its qubit's readout error.

    Flips are drawn qubit by qubit in ascending order over the sorted-key
    expansion of the counts, so the operation is seed-deterministic.
    """
    n = result.n_qubits
    if cal.n_qubits < n:
        raise ValidationError(
            f"calibration covers {cal.n_qubits} qubits, result has {n}"
        )
    rng = np.random.default_rng(seed)
    ints = _expand(result)
    for l in range(n):
        flips = rng.random(result.shots) < cal.readout_error[l]
        ints[flips] ^= 1 << l
    return ShotResult(result.shots, _tally(ints, n), seed)


def estimate_mean_z(result: ShotResult, l: int) -> tuple[float, float]:
    """(mean, std_error) of the qubit-``l`` z outcome: (n0 - n1)/shots, sqrt((1 - mean^2)/shots)."""
    if not 0 <= l < result.n_qubits:
        raise ValidationError(f"qubit {l} out of range for {result.n_qubits}-bit outcomes")
    n1 = sum(c for key, c in result.counts.items() if key[l] == "1")
    mean = (result.shots - 2 * n1) / result.shots
    std_error = math.sqrt(max(0.0, 1.0 - mean * mean) / result.shots)
    return mean, std_error


def derive_seeds(seed: int, count: int) -> list[int]:
    """Independent substream seeds spawned from a root seed."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _propagated_std_error(b: BlochVector, errors: tuple[float, float, float]) -> float:
    """First-order delta method through E = (1 - |m|)/2.

    At |m| = 0 the gradient direction is undefined; the dominant-axis bound
    max(errors)/2 is used instead.
    """
    norm = b.norm()
    if norm == 0.0:
        return max(errors) / 2.0
    return 0.5 * math.sqrt(
        sum((m * s) ** 2 for m, s in zip(b.as_tuple(), errors))
    ) / norm


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

    One circuit execution per axis (z, x, y): graph circuit, measurement
    prelude, z sampling, then readout corruption when calibration is given.
    ``gate_noise=True`` additionally routes sampling through the depolarizing
    trajectory model (requires calibration). ``max_qubits`` caps the whole
    register on both paths.
    """
    if not 0 <= l < g.n_vertices:
        raise ValidationError(f"spin {l} out of range for {g.n_vertices} vertices")
    if not math.isfinite(phi):
        raise ValidationError(f"angle must be finite, got {phi!r}")
    if shots < 1:
        raise ValidationError(f"shot count must be positive, got {shots}")
    if gate_noise and cal is None:
        raise ValidationError("gate_noise requires calibration data")
    if g.n_vertices > max_qubits:
        raise ResourceCapError(f"{g.n_vertices} qubits exceeds the cap of {max_qubits}")
    base = synthesize_graph_circuit(g, phi, cal)
    subseeds = derive_seeds(seed, 6)
    means: dict[str, float] = {}
    errors: dict[str, float] = {}
    for k, axis in enumerate(("z", "x", "y")):
        circuit = base.extended(measurement_prelude(axis, l))
        sample_seed, readout_seed = subseeds[2 * k], subseeds[2 * k + 1]
        if gate_noise:
            result = DepolarizingSampler(circuit, cal, sample_seed)(shots)
        else:
            state = init_zero(g.n_vertices, max_qubits)
            apply_circuit(state, circuit)
            result = sample_z(state, shots, sample_seed)
        if cal is not None:
            result = corrupt_readout(result, cal, readout_seed)
        means[axis], errors[axis] = estimate_mean_z(result, l)
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


_AXIS_OF_CODE = {1: "x", 2: "y", 3: "z"}


@dataclass
class DepolarizingSampler:
    """Stochastic executor: per-shot Pauli-error trajectories, grouped by pattern.

    A trajectory's error pattern is a tuple of (gate index, pauli code)
    events. Shots sharing a pattern share one state-vector simulation and
    draw their outcomes from its distribution, which is identical in
    distribution to simulating every shot separately. With all error rates
    zero the sampler reduces bit-exactly to noiseless ``sample_z``.
    """

    circuit: Circuit
    cal: CalibrationData
    seed: int
    site_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.site_probs = np.array(
            [_site_error(g, self.cal) for g in self.circuit.gates], dtype=float
        )

    def _final_state(self, pattern: tuple[tuple[int, int], ...]) -> StateVector:
        errors = dict(pattern)
        state = init_zero(self.circuit.n_qubits)
        for idx, gate in enumerate(self.circuit.gates):
            apply_gate(state, gate)
            code = errors.get(idx)
            if code is None:
                continue
            if gate.kind == "cx":
                hi, lo = code >> 2, code & 3
                if hi:
                    apply_pauli(state, _AXIS_OF_CODE[hi], gate.control)
                if lo:
                    apply_pauli(state, _AXIS_OF_CODE[lo], gate.target)
            else:
                apply_pauli(state, _AXIS_OF_CODE[code], gate.target)
        return state

    def __call__(self, shots: int) -> ShotResult:
        if shots < 1:
            raise ValidationError(f"shot count must be positive, got {shots}")
        n = self.circuit.n_qubits
        rng = np.random.default_rng(self.seed)
        if len(self.site_probs) == 0 or self.site_probs.max() == 0.0:
            ints = _draw_outcomes(self._final_state(()).amps, shots, rng)
            return ShotResult(shots, _tally(ints, n), self.seed)
        hits = rng.random((shots, len(self.site_probs))) < self.site_probs[None, :]
        rows, cols = np.nonzero(hits)
        codes = [
            int(rng.integers(1, 16 if self.circuit.gates[c].kind == "cx" else 4))
            for c in cols
        ]
        patterns: dict[tuple[tuple[int, int], ...], int] = {(): 0}
        shot_events: dict[int, list[tuple[int, int]]] = {}
        for row, col, code in zip(rows, cols, codes):
            shot_events.setdefault(int(row), []).append((int(col), code))
        patterns[()] = shots - len(shot_events)
        for events in shot_events.values():
            key = tuple(events)
            patterns[key] = patterns.get(key, 0) + 1
        pieces = []
        for pattern, group_shots in patterns.items():
            if group_shots == 0:
                continue
            state = self._final_state(pattern)
            pieces.append(_draw_outcomes(state.amps, group_shots, rng))
        return ShotResult(shots, _tally(np.concatenate(pieces), n), self.seed)

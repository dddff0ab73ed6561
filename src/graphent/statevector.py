"""Dense state-vector kernel for few-qubit spin systems.

Conventions, fixed across the package:

* basis index ``b`` encodes qubit ``l`` as bit ``(b >> l) & 1``, i.e. qubit 0
  is the least significant bit;
* bit value 0 is ``|0>``, identified with spin up;
* operations mutate the passed :class:`StateVector` in place and return it;
* norm drift is checked, never silently renormalized: any operation leaving
  ``|sum |amp|^2 - 1| > 1e-9``, or a NaN norm, raises :class:`ConsistencyError`.

Single- and two-qubit gates are applied through stride-paired views over the
amplitude array, one specialized kernel per gate kind. ``evolve_edge_exact``
deliberately goes through a generic dense 4x4 product instead, so the two
routes stay independent and can cross-check each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ResourceCapError, ValidationError

DEFAULT_MAX_QUBITS = 24
NORM_DRIFT_LIMIT = 1e-9

GATE_KINDS = ("h", "p", "rx", "ry", "cx")
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """One gate of the tiny circuit IR: h, p, rx, ry, or cx."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValidationError(f"negative qubit index in {self}")
        if self.kind == "cx":
            if self.control is None:
                raise ValidationError("cx requires a control qubit")
            if self.control == self.target:
                raise ValidationError(f"cx control and target coincide at {self.target}")
            if self.angle is not None:
                raise ValidationError("cx takes no angle")
        else:
            if self.control is not None:
                raise ValidationError(f"{self.kind} takes no control qubit")
            if self.kind == "h" and self.angle is not None:
                raise ValidationError("h takes no angle")
            if self.kind in ("p", "rx", "ry") and self.angle is None:
                raise ValidationError(f"{self.kind} requires an angle")

    @staticmethod
    def h(target: int) -> "Gate":
        return Gate("h", target)

    @staticmethod
    def p(target: int, angle: float) -> "Gate":
        return Gate("p", target, angle=float(angle))

    @staticmethod
    def rx(target: int, angle: float) -> "Gate":
        return Gate("rx", target, angle=float(angle))

    @staticmethod
    def ry(target: int, angle: float) -> "Gate":
        return Gate("ry", target, angle=float(angle))

    @staticmethod
    def cx(control: int, target: int) -> "Gate":
        return Gate("cx", target, control=control)


class StateVector:
    """2**n complex amplitudes; owns its buffer, mutated in place by the kernels."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        if amps.shape != (1 << n_qubits,):
            raise ValidationError(
                f"amplitude array of shape {amps.shape} does not match {n_qubits} qubits"
            )
        self.n_qubits = n_qubits
        self.amps = amps

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def probabilities(self) -> np.ndarray:
        return self.amps.real**2 + self.amps.imag**2

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def init_zero(n: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """All-spins-up initial state |00...0> on ``n`` qubits."""
    if n < 1:
        raise ValidationError(f"qubit count must be positive, got {n}")
    if n > max_qubits:
        raise ResourceCapError(f"{n} qubits exceeds the cap of {max_qubits}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def _check_qubit(state: StateVector, q: int):
    if not 0 <= q < state.n_qubits:
        raise ValidationError(f"qubit {q} out of range for {state.n_qubits}-qubit state")


def _check_norm(amps: np.ndarray):
    drift = abs(float(np.vdot(amps, amps).real) - 1.0)
    if not drift <= NORM_DRIFT_LIMIT:
        raise ConsistencyError(f"state norm drifted by {drift:.3e}")


def _paired_views(amps: np.ndarray, n: int, q: int):
    """Views (a0, a1) over the qubit-q = 0/1 halves of the amplitude array."""
    v = np.moveaxis(amps.reshape((2,) * n), n - 1 - q, 0)
    return v[0, ...], v[1, ...]


def _apply_h(amps, n, q):
    a0, a1 = _paired_views(amps, n, q)
    old0 = a0.copy()
    a0[...] = (old0 + a1) * _INV_SQRT2
    a1[...] = (old0 - a1) * _INV_SQRT2


def _apply_p(amps, n, q, angle):
    _, a1 = _paired_views(amps, n, q)
    a1 *= cmath.exp(1j * angle)


def _apply_rx(amps, n, q, angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    a0, a1 = _paired_views(amps, n, q)
    old0 = a0.copy()
    a0[...] = c * old0 - 1j * s * a1
    a1[...] = -1j * s * old0 + c * a1


def _apply_ry(amps, n, q, angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    a0, a1 = _paired_views(amps, n, q)
    old0 = a0.copy()
    a0[...] = c * old0 - s * a1
    a1[...] = s * old0 + c * a1


def _apply_cx(amps, n, control, target):
    v = amps.reshape((2,) * n)
    sub = np.moveaxis(v, n - 1 - control, 0)[1]
    t_ax = n - 1 - target
    if n - 1 - control < t_ax:
        t_ax -= 1
    tv = np.moveaxis(sub, t_ax, 0)
    tmp = tv[0].copy()
    tv[0] = tv[1]
    tv[1] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one IR gate in place; returns the same state."""
    _check_qubit(state, gate.target)
    amps, n = state.amps, state.n_qubits
    if gate.kind == "h":
        _apply_h(amps, n, gate.target)
    elif gate.kind == "p":
        _apply_p(amps, n, gate.target, gate.angle)
    elif gate.kind == "rx":
        _apply_rx(amps, n, gate.target, gate.angle)
    elif gate.kind == "ry":
        _apply_ry(amps, n, gate.target, gate.angle)
    else:
        _check_qubit(state, gate.control)
        _apply_cx(amps, n, gate.control, gate.target)
    _check_norm(amps)
    return state


def apply_pauli(state: StateVector, axis: str, q: int) -> StateVector:
    """Apply a bare Pauli x/y/z on qubit ``q`` (used by noise trajectories)."""
    _check_qubit(state, q)
    a0, a1 = _paired_views(state.amps, state.n_qubits, q)
    if axis == "x":
        tmp = a0.copy()
        a0[...] = a1
        a1[...] = tmp
    elif axis == "y":
        tmp = a0.copy()
        a0[...] = -1j * a1
        a1[...] = 1j * tmp
    elif axis == "z":
        a1 *= -1.0
    else:
        raise ValidationError(f"unknown Pauli axis {axis!r}")
    _check_norm(state.amps)
    return state


def _apply_two_qubit_dense(amps: np.ndarray, n: int, qa: int, qb: int, u: np.ndarray):
    """Apply a dense 4x4 unitary; basis index m = bit(qa) + 2*bit(qb)."""
    v = amps.reshape((2,) * n)
    blocks = np.moveaxis(v, (n - 1 - qb, n - 1 - qa), (0, 1))
    quads = [blocks[0, 0, ...], blocks[0, 1, ...], blocks[1, 0, ...], blocks[1, 1, ...]]
    out = u @ np.stack(quads).reshape(4, -1)
    for quad, row in zip(quads, out):
        quad[...] = row.reshape(quad.shape)


def evolve_edge_exact(state: StateVector, i: int, j: int, phi: float) -> StateVector:
    """Apply exp(-i*(phi/2)*XiXj) as one dense two-qubit unitary.

    Expands to cos(phi/2)*I - i*sin(phi/2)*XiXj; this is the oracle route the
    synthesized circuits are checked against.
    """
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise ValidationError(f"edge endpoints coincide at {i}")
    c = math.cos(phi / 2.0)
    s = -1j * math.sin(phi / 2.0)
    u = np.array(
        [
            [c, 0.0, 0.0, s],
            [0.0, c, s, 0.0],
            [0.0, s, c, 0.0],
            [s, 0.0, 0.0, c],
        ],
        dtype=np.complex128,
    )
    _apply_two_qubit_dense(state.amps, state.n_qubits, i, j, u)
    _check_norm(state.amps)
    return state


def evolve_graph_exact(state: StateVector, g, phi: float) -> StateVector:
    """One edge unitary per graph edge; edge order is irrelevant (all commute)."""
    if state.n_qubits < g.n_vertices:
        raise ValidationError(
            f"state has {state.n_qubits} qubits but graph has {g.n_vertices} vertices"
        )
    for i, j in g.edges:
        evolve_edge_exact(state, i, j, phi)
    return state


def expectation_pauli(state: StateVector, axis: str, l: int) -> float:
    """Exact <sigma_l^axis>; raises ConsistencyError on a nonreal quadratic form."""
    _check_qubit(state, l)
    a0, a1 = _paired_views(state.amps, state.n_qubits, l)
    if axis == "z":
        p0 = float(np.vdot(a0, a0).real)
        p1 = float(np.vdot(a1, a1).real)
        return p0 - p1
    if axis not in ("x", "y"):
        raise ValidationError(f"unknown Pauli axis {axis!r}")
    s01 = complex(np.vdot(a0, a1))
    s10 = complex(np.vdot(a1, a0))
    val = (s01 + s10) if axis == "x" else 1j * (s10 - s01)
    if abs(val.imag) > 1e-12:
        raise ConsistencyError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def marginal_z_probs(state: StateVector, l: int) -> tuple[float, float]:
    """(p0, p1) marginal z-basis outcome probabilities for qubit ``l``."""
    _check_qubit(state, l)
    a0, a1 = _paired_views(state.amps, state.n_qubits, l)
    return float(np.vdot(a0, a0).real), float(np.vdot(a1, a1).real)


def overlap_magnitude(a: StateVector, b: StateVector) -> float:
    """|<a|b>|; equals 1 iff the states agree up to a global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValidationError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )
    return min(1.0, abs(complex(np.vdot(a.amps, b.amps))))

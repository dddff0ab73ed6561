"""Dense state-vector kernel for few-qubit spin systems.

Conventions, fixed across the package:

* basis index ``b`` encodes qubit ``l`` as bit ``(b >> l) & 1``, i.e. qubit 0
  is the least significant bit;
* bit value 0 is ``|0>``, identified with spin up;
* operations mutate the passed :class:`StateVector` in place and return it;
* norm drift is checked, never silently renormalized: any operation leaving
  ``|sum |amp|^2 - 1| > 1e-9``, or a NaN norm, raises :class:`ConsistencyError`.

Both gate kernels address qubits through reshape views of the amplitude
array and update it in place. Every single-qubit gate (h, p, rx, ry) goes
through ``_apply_1q``, which multiplies the qubit-0/1 halves of the
``(-1, 2, 2**q)`` view by the gate's 2x2 matrix; ``_apply_cx`` views the
array with one axis per bit of the qubit pair and swaps the target halves of
the control-1 block. ``evolve_edge_exact`` deliberately multiplies a
transposed view of the pair's four quarters by a generic dense 4x4 instead,
sharing nothing with the stride kernels, so the gate route and the edge
route stay independent and can cross-check each other.

The exact route's read kernel, ``pauli_means``, takes a qubit's three Pauli
means from the same half views: two squared norms and one cross inner
product.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ResourceCapError, ValidationError

DEFAULT_MAX_QUBITS = 24
NORM_DRIFT_LIMIT = 1e-9

GATE_KINDS = ("h", "p", "rx", "ry", "cx")
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _finite_angle(angle) -> float:
    """``angle`` as a float; compared before converting, so an int beyond float range cannot overflow."""
    if not abs(angle) <= sys.float_info.max:
        raise ValidationError("non-finite angle: NaN, infinite or beyond float range")
    return float(angle)


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
            if self.kind == "h":
                if self.angle is not None:
                    raise ValidationError("h takes no angle")
            elif self.angle is None:
                raise ValidationError(f"{self.kind} requires an angle")
            else:
                object.__setattr__(self, "angle", _finite_angle(self.angle))

    @staticmethod
    def h(target: int) -> "Gate":
        return Gate("h", target)

    @staticmethod
    def p(target: int, angle: float) -> "Gate":
        return Gate("p", target, angle=angle)

    @staticmethod
    def rx(target: int, angle: float) -> "Gate":
        return Gate("rx", target, angle=angle)

    @staticmethod
    def ry(target: int, angle: float) -> "Gate":
        return Gate("ry", target, angle=angle)

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

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

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


def _check_norm_value(norm_sq: float):
    """Raise unless the squared norm is within the drift limit of 1; NaN fails."""
    drift = abs(norm_sq - 1.0)
    if not drift <= NORM_DRIFT_LIMIT:
        raise ConsistencyError(f"state norm drifted by {drift:.3e}")


def _check_norm(amps: np.ndarray):
    _check_norm_value(float(np.vdot(amps, amps).real))


def _paired_views(amps: np.ndarray, q: int):
    """Views (a0, a1) over the qubit-q = 0/1 halves of the amplitude array."""
    v = amps.reshape(-1, 2, 1 << q)
    return v[:, 0, :], v[:, 1, :]


def _apply_1q(amps: np.ndarray, q: int, u: np.ndarray):
    """Apply the 2x2 matrix ``u`` to qubit ``q``: (a0, a1) <- u @ (a0, a1).

    Works on the half views in place, so at most two half-size temporaries
    exist at once; a diagonal ``u`` (p) only scales the halves.
    """
    a0, a1 = _paired_views(amps, q)
    (u00, u01), (u10, u11) = u
    if u01 == 0 and u10 == 0:
        if u00 != 1:
            a0 *= u00
        a1 *= u11
    else:
        t = u00 * a0
        t += u01 * a1
        a1 *= u11
        a1 += u10 * a0
        a0[...] = t


def _p_matrix(angle: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * angle)]], dtype=np.complex128)


def _rx_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _ry_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


_H = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128)
_ANGLE_GATES = {"p": _p_matrix, "rx": _rx_matrix, "ry": _ry_matrix}


def _apply_cx(amps: np.ndarray, control: int, target: int):
    """Swap the target-0/1 halves of the control-1 block in place.

    The view has one axis for each bit of the pair: ``v[:, b_hi, :, b_lo, :]``
    holds the amplitudes whose higher and lower paired qubits read b_hi, b_lo.
    """
    lo, hi = sorted((control, target))
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        t0, t1 = v[:, 1, :, 0, :], v[:, 1, :, 1, :]
    else:
        t0, t1 = v[:, 0, :, 1, :], v[:, 1, :, 1, :]
    tmp = t0.copy()
    t0[...] = t1
    t1[...] = tmp


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one IR gate in place; returns the same state."""
    _check_qubit(state, gate.target)
    if gate.kind == "cx":
        _check_qubit(state, gate.control)
        _apply_cx(state.amps, gate.control, gate.target)
    else:
        u = _H if gate.kind == "h" else _ANGLE_GATES[gate.kind](gate.angle)
        _apply_1q(state.amps, gate.target, u)
    _check_norm(state.amps)
    return state


def _apply_two_qubit_dense(amps: np.ndarray, qa: int, qb: int, u: np.ndarray):
    """Apply a dense 4x4 unitary to the pair's quarters, transposed to m = bit(qa) + 2*bit(qb)."""
    lo, hi = sorted((qa, qb))
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    quads = v.transpose((1, 3, 0, 2, 4) if qb == hi else (3, 1, 0, 2, 4))
    quads[...] = (u @ quads.reshape(4, -1)).reshape(quads.shape)


def evolve_edge_exact(state: StateVector, i: int, j: int, phi: float) -> StateVector:
    """Apply exp(-i*(phi/2)*XiXj) as one dense two-qubit unitary.

    Expands to cos(phi/2)*I - i*sin(phi/2)*XiXj; this is the oracle route the
    synthesized circuits are checked against.
    """
    _check_qubit(state, i)
    _check_qubit(state, j)
    if i == j:
        raise ValidationError(f"edge endpoints coincide at {i}")
    phi = _finite_angle(phi)
    c, s = math.cos(phi / 2.0), -1j * math.sin(phi / 2.0)
    u = np.array([[c, 0.0, 0.0, s], [0.0, c, s, 0.0], [0.0, s, c, 0.0], [s, 0.0, 0.0, c]], dtype=np.complex128)
    _apply_two_qubit_dense(state.amps, i, j, u)
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


def pauli_means(state: StateVector, l: int) -> tuple[float, float, float]:
    """Exact (<X_l>, <Y_l>, <Z_l>) = (2 Re s, 2 Im s, p0 - p1) over the qubit-l halves.

    s = <a0|a1>, p0 = <a0|a0>, p1 = <a1|a1>; p0 + p1 is the norm, checked as after a gate.
    """
    _check_qubit(state, l)
    a0, a1 = _paired_views(state.amps, l)
    p0 = float(np.vdot(a0, a0).real)
    p1 = float(np.vdot(a1, a1).real)
    _check_norm_value(p0 + p1)
    s = complex(np.vdot(a0, a1))
    return 2.0 * s.real, 2.0 * s.imag, p0 - p1


def overlap_magnitude(a: StateVector, b: StateVector) -> float:
    """|<a|b>|; equals 1 iff the states agree up to a global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValidationError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )
    return min(1.0, abs(complex(np.vdot(a.amps, b.amps))))

"""The gate-circuit IR, gate synthesis for coupling graphs, and measurement-basis preludes.

A circuit is a plain ``tuple[Gate, ...]`` of h, p, rx, ry and cx gates
(:class:`Gate`); the register is the state it runs on. This module builds
and lists circuits without numpy; :func:`apply_circuit` runs one through
:func:`graphent.statevector.apply_gate`.

Each graph edge compiles to the five-gate block

    cx(r, p)  h(r)  p(r, phi)  h(r)  cx(r, p)

which equals exp(-i*(phi/2)*XrXp) up to a global phase. The rotation qubit
``r`` is the endpoint with the smaller single-qubit gate error when
calibration data is supplied, otherwise the smaller index. A 1-D
``phi`` gives each ``p`` gate one angle per row, so one circuit runs a batch
of rows at their own angles; such a circuit has no text form.

Measurement preludes rotate a target axis onto z so that z-basis statistics
estimate the requested Pauli mean, sign included: with ry(theta) =
exp(-i*theta*Y/2), conjugation by ry(+pi/2) maps z to -x, so the x prelude
uses ry(-pi/2); the y prelude uses rx(+pi/2).
"""

from __future__ import annotations

import math

from .calibration import CalibrationData, _check_calibration
from .errors import ValidationError, _checked_choice, _checked_count, _checked_pair, _finite_angle, _numpy_module, _shown, _Value

TYPE_CHECKING = False  # typing's constant, without importing typing
if TYPE_CHECKING:
    from .graphs import Graph
    from .statevector import StateVector

GATE_KINDS = ("h", "p", "rx", "ry", "cx")


def _ndim(angle) -> int:
    """``numpy.ndim`` of an angle: a number, a nested tuple or list (read along its first entries), or an array."""
    if isinstance(angle, (tuple, list)):
        return 1 + (_ndim(angle[0]) if angle else 0)
    return getattr(angle, "ndim", 0)


class Gate(_Value):
    """One gate of the tiny circuit IR: h, p, rx, ry, or cx.

    A ``p`` gate may carry a 1-D sequence of angles, one per row of the batch
    it runs on, stored as a tuple of floats.
    """

    __slots__ = ("kind", "target", "control", "angle")

    def __init__(
        self, kind: str, target: int, control: int | None = None, angle: float | tuple[float, ...] | None = None
    ):
        # stored as given first, so a message can show the gate; the angle is then replaced by its floats
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "angle", angle)
        _checked_choice(kind, GATE_KINDS, "gate kind")
        if (self.control is None) == (self.kind == "cx"):
            raise ValidationError("cx requires a control qubit" if self.kind == "cx" else f"{self.kind} takes no control qubit")
        for name in ("target", "control") if self.kind == "cx" else ("target",):
            # a numpy integer is stored as its int, so the gate hashes
            object.__setattr__(self, name, _checked_count(getattr(self, name), "qubit index"))
        if self.control == self.target:
            raise ValidationError(f"cx control and target coincide at {_shown(self.target)}")
        if self.kind in ("h", "cx"):
            if self.angle is not None:
                raise ValidationError(f"{self.kind} takes no angle")
        elif self.angle is None:
            raise ValidationError(f"{self.kind} requires an angle")
        elif type(self.angle) is not float and (ndim := _ndim(self.angle)) > 0:
            if self.kind != "p":
                raise ValidationError(f"{self.kind} takes one angle, not one per row")
            if ndim > 1:
                raise ValidationError(f"p takes an angle or one per row, not a {ndim}-D array")
            # one angle per row of a batch; apply_gate checks their count
            object.__setattr__(self, "angle", tuple(_finite_angle(a) for a in self.angle))
        else:
            object.__setattr__(self, "angle", _finite_angle(self.angle))

    @staticmethod
    def h(target: int) -> "Gate":
        return Gate("h", target)

    @staticmethod
    def p(target: int, angle) -> "Gate":
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


def choose_orientation(edge: tuple[int, int], cal: CalibrationData | None = None) -> tuple[int, int]:
    """(rotation, partner): lower gate error rotates, ties and no calibration go to the smaller index."""
    _check_calibration(cal)
    i, j = _checked_pair(edge, "edge", "vertices", "edge endpoint")
    if i == j:
        raise ValidationError(f"edge endpoints coincide at {_shown(i)}")
    if i < 0 or j < 0:
        raise ValidationError(f"negative vertex in edge ({_shown(i)}, {_shown(j)})")
    if cal is None:
        rotation = min(i, j)
    else:
        if max(i, j) >= cal.n_qubits:
            raise ValidationError(f"calibration covers {cal.n_qubits} qubits, edge ({_shown(i)}, {_shown(j)}) is outside")
        ei, ej = cal.gate_error[i], cal.gate_error[j]
        rotation = i if ei < ej else j if ej < ei else min(i, j)
    partner = j if rotation == i else i
    return rotation, partner


def synthesize_edge(r: int, p: int, phi) -> tuple[Gate, ...]:
    """Five-gate block equal to exp(-i*(phi/2)*XrXp), up to global phase, rotating on ``r``.

    ``phi`` is one angle, or a 1-D sequence of one angle per row of a batch.
    """
    return (
        Gate.cx(r, p),
        Gate.h(r),
        Gate.p(r, phi),
        Gate.h(r),
        Gate.cx(r, p),
    )


def synthesize_graph_circuit(
    g: "Graph", phi, cal: CalibrationData | None = None
) -> tuple[Gate, ...]:
    """Concatenate one edge block per graph edge, edges in canonical sorted order; ``phi`` as in :func:`synthesize_edge`."""
    return tuple(gate for edge in g.edges for gate in synthesize_edge(*choose_orientation(edge, cal), phi))


def measurement_prelude(axis: str, l: int) -> tuple[Gate, ...]:
    """Gates to run before a z-basis measurement of qubit ``l`` so that the
    z outcome statistics equal the ``axis`` expectation of the original state."""
    l = _checked_count(l, "qubit index")
    _checked_choice(axis, ("x", "y", "z"), "measurement axis")
    if axis == "z":
        return ()
    if axis == "y":
        return (Gate.rx(l, math.pi / 2.0),)
    return (Gate.ry(l, -math.pi / 2.0),)


def apply_circuit(state: "StateVector", gates: tuple[Gate, ...]) -> "StateVector":
    """Run ``gates`` on ``state`` in place, in order.

    :func:`~graphent.statevector.apply_gate` range-checks each gate, so a gate
    outside the register raises ``ValidationError`` after the gates before it
    have run.
    """
    apply_gate = _numpy_module("statevector").apply_gate
    for gate in gates:
        apply_gate(state, gate)
    return state


def gate_text(gate: Gate) -> str:
    if type(gate.angle) is tuple:
        raise ValidationError(f"{gate.kind} gate with one angle per row has no text form")
    if gate.kind == "cx":
        return f"cx q[{gate.control}], q[{gate.target}]"
    if gate.angle is None:
        return f"{gate.kind} q[{gate.target}]"
    return f"{gate.kind}({gate.angle!r}) q[{gate.target}]"


def circuit_text(gates: tuple[Gate, ...]) -> str:
    """One gate per line; empty circuits give an empty listing."""
    return "".join(gate_text(g) + "\n" for g in gates)

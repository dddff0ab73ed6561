"""Gate synthesis for coupling graphs, and measurement-basis preludes.

Each graph edge compiles to the five-gate block

    cx(r, p)  h(r)  p(r, phi)  h(r)  cx(r, p)

which equals exp(-i*(phi/2)*XrXp) up to a global phase. The rotation qubit
``r`` is the endpoint with the smaller single-qubit gate error when
calibration data is supplied, otherwise the smaller index. A circuit is a
plain ``tuple[Gate, ...]``; the register is the state it runs on. A 1-D
``phi`` gives each ``p`` gate one angle per row, so one circuit runs a batch
of rows at their own angles; such a circuit has no text form.

Measurement preludes rotate a target axis onto z so that z-basis statistics
estimate the requested Pauli mean, sign included: with ry(theta) =
exp(-i*theta*Y/2), conjugation by ry(+pi/2) maps z to -x, so the x prelude
uses ry(-pi/2); the y prelude uses rx(+pi/2).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ValidationError
from .statevector import Gate, StateVector, _checked_integer, apply_gate

if TYPE_CHECKING:
    from .calibration import CalibrationData
    from .graphs import Graph


def choose_orientation(edge: tuple[int, int], cal: "CalibrationData | None" = None) -> tuple[int, int]:
    """(rotation, partner): lower gate error rotates, ties and no calibration go to the smaller index."""
    i, j = _checked_integer(edge[0], "edge endpoint"), _checked_integer(edge[1], "edge endpoint")
    if i == j:
        raise ValidationError(f"edge endpoints coincide at {i}")
    if i < 0 or j < 0:
        raise ValidationError(f"negative vertex in edge ({i}, {j})")
    if cal is None:
        rotation = min(i, j)
    else:
        if max(i, j) >= cal.n_qubits:
            raise ValidationError(
                f"calibration covers {cal.n_qubits} qubits, edge ({i}, {j}) is outside"
            )
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
    g: "Graph", phi, cal: "CalibrationData | None" = None
) -> tuple[Gate, ...]:
    """Concatenate one edge block per graph edge, edges in canonical sorted order; ``phi`` as in :func:`synthesize_edge`."""
    return tuple(gate for edge in g.edges for gate in synthesize_edge(*choose_orientation(edge, cal), phi))


def measurement_prelude(axis: str, l: int) -> tuple[Gate, ...]:
    """Gates to run before a z-basis measurement of qubit ``l`` so that the
    z outcome statistics equal the ``axis`` expectation of the original state."""
    l = _checked_integer(l, "qubit index")
    if l < 0:
        raise ValidationError(f"negative qubit index {l}")
    if axis == "z":
        return ()
    if axis == "y":
        return (Gate.rx(l, math.pi / 2.0),)
    if axis == "x":
        return (Gate.ry(l, -math.pi / 2.0),)
    raise ValidationError(f"unknown measurement axis {axis!r}")


def apply_circuit(state: StateVector, gates: tuple[Gate, ...]) -> StateVector:
    """Run ``gates`` on ``state`` in place, in order.

    :func:`apply_gate` range-checks each gate, so a gate outside the register
    raises ``ValidationError`` after the gates before it have run.
    """
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

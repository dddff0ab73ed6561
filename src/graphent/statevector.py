"""Dense state-vector kernel for few-qubit spin systems.

This module and those that simulate with it (``sampling``, ``validation``)
import numpy; the rest of the package does not, and loads them on first
use. The gates ``apply_gate`` runs are :class:`graphent.circuits.Gate`.

Conventions, fixed across the package:

* basis index ``b`` encodes qubit ``l`` as bit ``(b >> l) & 1``, i.e. qubit 0
  is the least significant bit;
* bit value 0 is ``|0>``, identified with spin up;
* operations mutate the passed :class:`StateVector` in place and return it;
* norm drift is checked, never silently renormalized: any operation leaving
  ``|sum |amp|^2 - 1| > 1e-9``, or a NaN norm, raises :class:`ConsistencyError`.

A state may hold a batch of independent rows: ``amps`` of shape ``(rows,
2**n)``, allocated by ``init_zero(n, max_qubits, rows=...)``, and a batch
holds at most ``2**max_qubits`` amplitudes in all. ``apply_gate`` applies one
gate to every row; a ``p`` gate may instead carry one angle per row
(``Gate.p(q, phis)``), which only a batch of as many rows accepts.
``evolve_edges`` takes one angle per row, and ``pauli_means`` returns one
array of means per axis. The norm rule holds for each row: the worst drift
over the rows is checked, and a NaN in any row fails. Every row has exactly
the bits its single-state run has. A single state is the case with no rows:
the same kernels, which pick only their views by the row count. Every inner
product goes through ``_inner``, which takes a single state's with ``np.vdot``
and each row's of a batch with a stacked ``(1,K) @ (K,1)`` product that sums
in ``np.vdot``'s order. ``bloch_vector`` and ``overlap_magnitude`` take single
states alone.

Both gate kernels address qubits through reshape views of the amplitude
array and update it in place; on a batch the row index becomes extra high
bits. Every single-qubit gate (h, p, rx, ry) goes through ``_apply_1q``,
which multiplies the qubit-0/1 halves of the ``(-1, 2, 2**q)`` view by the
gate's 2x2 matrix, held as a tuple of rows of Python ``complex``: numpy
multiplies such a scalar into an array exactly as a complex128 one, and on
a few amplitudes building and unpacking a numpy 2x2 would cost more than
the arithmetic. A ``p`` with one angle per row scales the qubit-1 halves
of the ``(rows, -1, 2, 2**q)`` view by a column of phases, the same inner
loop a single state's ``p`` runs. ``_apply_cx`` views the array with one
axis per bit of the qubit pair and swaps the target halves of the control-1
block. The edge route, ``evolve_edges``, which the validation suites and
the exact estimate's star call, deliberately multiplies a transposed view of
the pair's four quarters by a stack of generic dense 4x4s instead, one per
row and a stack of one for a single state, which numpy multiplies one gemm
per row. It shares nothing with the stride kernels, so the gate route and
the edge route stay independent and can cross-check each other. It builds
that unitary once per call, from its angles, and applies it to every edge in
turn, checking the norm after each.

The exact route's read kernel, ``pauli_means``, takes a qubit's three Pauli
means from the same half views: two squared norms and one cross inner
product.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DEFAULT_MAX_QUBITS, ConsistencyError, ResourceCapError, ValidationError, _checked_count, _checked_edges, _checked_index, _checked_integer, _finite_angle, _shown

TYPE_CHECKING = False  # typing's constant, without importing typing
if TYPE_CHECKING:
    from .circuits import Gate

NORM_DRIFT_LIMIT = 1e-9
# numpy refuses an array of 2**63 bytes or more, 2**59 complex128 amplitudes
_MAX_ARRAY_QUBITS = 58
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class StateVector:
    """2**n complex amplitudes, or a batch of rows of them; owns its buffer, mutated in place by the kernels."""

    __slots__ = ("n_qubits", "amps", "rows")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        if not isinstance(amps, np.ndarray) or amps.dtype != np.complex128:  # the kernels write complex amplitudes in place
            got = f"{amps.dtype} array" if isinstance(amps, np.ndarray) else type(amps).__name__
            raise ValidationError(f"amplitudes must be a complex128 numpy array, got {got}")
        n_qubits = _checked_count(n_qubits, "qubit count")
        width = 1 << min(n_qubits, 63)  # no array axis reaches 2**63, and a huge shift would overflow
        if amps.shape == (width,):
            self.rows = None
        elif amps.ndim == 2 and amps.shape[1] == width and len(amps):
            if not amps.flags.c_contiguous:
                # the kernels write through reshape views, and merging a strided
                # batch's row axis into its amplitudes would copy
                raise ValidationError("batch amplitude array is not C-contiguous")
            self.rows = len(amps)
        else:
            raise ValidationError(
                f"amplitude array of shape {amps.shape} does not match {_shown(n_qubits)} qubits"
            )
        self.n_qubits = n_qubits
        self.amps = amps

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def init_zero(n: int, max_qubits: int = DEFAULT_MAX_QUBITS, rows: int | None = None) -> StateVector:
    """All-spins-up initial state |00...0> on ``n`` qubits, or ``rows`` copies of it as one batch.

    A batch may hold at most ``2**max_qubits`` amplitudes, the size of the
    largest single state the cap allows. Under a cap raised past numpy's
    largest array, ``2**58`` amplitudes, a larger state or batch raises
    ResourceCapError before anything is allocated.
    """
    n = _checked_count(n, "qubit count", 1)
    if rows is not None:
        rows = _checked_count(rows, "row count", 1)
    if type(max_qubits) is not int:  # plain ints, the common case, skip the call
        max_qubits = _checked_integer(max_qubits, "qubit cap")
    if n > max_qubits:
        raise ResourceCapError(f"{_shown(n)} qubits exceeds the cap of {_shown(max_qubits)}")
    bits = n if rows is None else n + (rows - 1).bit_length()  # log2 of the amplitude count, rounded up
    if bits > max_qubits:  # rows << n > 2**max_qubits
        raise ResourceCapError(f"{_shown(rows)} rows of {_shown(n)} qubits exceed the cap of 2**{_shown(max_qubits)} amplitudes")
    if bits > _MAX_ARRAY_QUBITS:  # a cap raised past what numpy can allocate
        shape = f"{_shown(n)} qubits" if rows is None else f"{_shown(rows)} rows of {_shown(n)} qubits"
        raise ResourceCapError(f"{shape} exceed the 2**{_MAX_ARRAY_QUBITS} amplitudes of the largest numpy array")
    amps = np.zeros(1 << n if rows is None else (rows, 1 << n), dtype=np.complex128)
    amps[..., 0] = 1.0
    return StateVector(n, amps)


def _check_norm(norm_sq):
    """Raise unless the squared norm, or every row's, is within the drift limit of 1; NaN fails."""
    drift = abs(norm_sq - 1.0)
    if not isinstance(drift, float):
        drift = float(drift.max())  # the worst row; max keeps a NaN
    if not drift <= NORM_DRIFT_LIMIT:
        raise ConsistencyError(f"state norm drifted by {drift:.3e}")


def _inner(a: np.ndarray, b: np.ndarray, rows: int | None):
    """<a|b>: a complex for a single state (``rows`` None), an array for ``rows`` equal C-order parts.

    A row's stacked (1,K) @ (K,1) product sums in np.vdot's order (einsum and
    sum() do not); a single state keeps np.vdot, faster on one long row.
    """
    if rows is None:
        return complex(np.vdot(a, b))
    return (a.conj().reshape(rows, 1, -1) @ b.reshape(rows, -1, 1))[:, 0, 0]


def _shape_text(state: StateVector) -> str:
    return "a single state" if state.rows is None else f"a batch of {state.rows} rows"


def _paired_views(amps: np.ndarray, q: int):
    """Views (a0, a1) over the qubit-q = 0/1 halves of the amplitude array; a batch's rows come one after another."""
    v = amps.reshape(-1, 2, 1 << q)
    return v[:, 0, :], v[:, 1, :]


Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]


def _apply_1q(amps: np.ndarray, q: int, u: Matrix2):
    """Apply the 2x2 ``u``, rows of Python complex, to qubit ``q``: (a0, a1) <- u @ (a0, a1).

    Works on the half views in place, so at most two half-size temporaries
    exist at once. A diagonal ``u`` only scales the qubit-1 half: every one
    the gates build (p, and rx or ry at angle 0) has ``u00 = 1``.
    """
    a0, a1 = _paired_views(amps, q)
    (u00, u01), (u10, u11) = u
    if u01 == 0 and u10 == 0:
        if amps.ndim == 2 and amps.shape[1] == 2:
            # numpy scales a one-amplitude array with its plain loop but longer
            # runs with a fused multiply-add loop, so one-qubit rows are scaled
            # one by one, as single states
            for row in amps:
                _apply_1q(row, q, u)
            return
        a1 *= u11
    else:
        t = u00 * a0
        t += u01 * a1
        a1 *= u11
        a1 += u10 * a0
        a0[...] = t


def _p_matrix(angle: float) -> Matrix2:
    return (1 + 0j, 0j), (0j, cmath.exp(1j * angle))


def _rx_matrix(angle: float) -> Matrix2:
    c, s = complex(math.cos(angle / 2.0)), math.sin(angle / 2.0)
    return (c, -1j * s), (-1j * s, c)


def _ry_matrix(angle: float) -> Matrix2:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return (complex(c), complex(-s)), (complex(s), complex(c))


_H: Matrix2 = (complex(_INV_SQRT2), complex(_INV_SQRT2)), (complex(_INV_SQRT2), complex(-_INV_SQRT2))
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


def _apply_row_phases(state: StateVector, q: int, angles: tuple[float, ...]):
    """A ``p`` gate with one angle per row: row r's qubit-q = 1 half is scaled by e^{i angles[r]}.

    The broadcast multiply runs the same inner loop, over the same run of
    amplitudes with the same scalar, as a single state's ``p``.
    """
    rows = state.rows
    if rows is None or len(angles) != rows:  # the gate holds finite angles in a tuple
        raise ValidationError(f"{len(angles)} angles for {_shape_text(state)}")
    amps = state.amps
    if amps.shape[1] == 2:  # one-amplitude halves, scaled row by row as in _apply_1q
        for row, angle in zip(amps, angles):
            _apply_1q(row, q, _p_matrix(angle))
        return
    a1 = amps.reshape(rows, -1, 2, 1 << q)[:, :, 1, :]
    a1 *= np.array([cmath.exp(1j * a) for a in angles])[:, None, None]


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one IR gate in place; returns the same state."""
    _checked_index(gate.target, state.n_qubits, "qubit index")
    if gate.kind == "cx":
        _checked_index(gate.control, state.n_qubits, "qubit index")
        _apply_cx(state.amps, gate.control, gate.target)
    elif type(gate.angle) is tuple:
        _apply_row_phases(state, gate.target, gate.angle)
    else:
        u = _H if gate.kind == "h" else _ANGLE_GATES[gate.kind](gate.angle)
        _apply_1q(state.amps, gate.target, u)
    _check_norm(_inner(state.amps, state.amps, state.rows).real)
    return state


def _apply_two_qubit_dense(amps: np.ndarray, qa: int, qb: int, u: np.ndarray):
    """Apply a stack of dense 4x4 unitaries, one per row, to the pair's quarters, transposed to m = bit(qa) + 2*bit(qb).

    Row r's quarters meet only ``u[r]``; a single state is a stack of one.
    """
    lo, hi = sorted((qa, qb))
    v = amps.reshape(len(u), -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    quads = v.transpose((0, 2, 4, 1, 3, 5) if qb == hi else (0, 4, 2, 1, 3, 5))
    quads[...] = (u @ quads.reshape(len(u), 4, -1)).reshape(quads.shape)


def evolve_edges(state: StateVector, edges, phi) -> StateVector:
    """Apply exp(-i*(phi/2)*XiXj) to each ``(i, j)`` of ``edges`` in the given order; a batch takes one angle per row.

    This dense route is the oracle the synthesized circuits are checked against.
    ``edges`` is read once, so it may be an iterator, and every edge is checked
    before any is applied. The dense unitary
    cos(phi/2)*I - i*sin(phi/2)*XX is built once, as a stack of 4x4s with one per
    row (one in all for a single state) and each entry computed as for one angle,
    so a row has its single state's bits; the norm is checked after every edge.
    """
    edges = _checked_edges(edges, "qubit index")
    for i, j in edges:
        _checked_index(i, state.n_qubits, "qubit index")
        _checked_index(j, state.n_qubits, "qubit index")
        if i == j:
            raise ValidationError(f"edge endpoints coincide at {i}")
    rows = state.rows
    if rows is None:
        angles = [_finite_angle(phi)]
    else:
        try:
            wrong_shape = np.shape(phi) != (rows,)
        except ValueError:  # a ragged nesting of sequences, which has no shape
            raise ValidationError(f"angles for a batch of {rows} rows are not one number per row: {_shown(phi)}") from None
        if wrong_shape:
            raise ValidationError(f"{np.size(phi)} angles for a batch of {rows} rows")
        angles = [_finite_angle(p) for p in phi]
    u = np.zeros((len(angles), 16), dtype=np.complex128)  # one flattened 4x4 per row
    u[:, ::5] = np.array([math.cos(p / 2.0) for p in angles])[:, None]  # the diagonal
    u[:, 3:13:3] = np.array([-1j * math.sin(p / 2.0) for p in angles])[:, None]  # the anti-diagonal
    u = u.reshape(-1, 4, 4)
    for i, j in edges:
        _apply_two_qubit_dense(state.amps, i, j, u)
        _check_norm(_inner(state.amps, state.amps, rows).real)
    return state


def pauli_means(state: StateVector, l: int):
    """Exact (<X_l>, <Y_l>, <Z_l>) = (2 Re s, 2 Im s, p0 - p1) over the qubit-l halves.

    s = <a0|a1>, p0 = <a0|a0>, p1 = <a1|a1>; p0 + p1 is the norm, checked as after a gate.
    Three floats for a single state, three arrays of one mean per row for a batch.
    """
    _checked_index(l, state.n_qubits, "qubit index")
    rows = state.rows
    a0, a1 = _paired_views(state.amps, l)
    p0, p1 = _inner(a0, a0, rows).real, _inner(a1, a1, rows).real
    s = _inner(a0, a1, rows)
    _check_norm(p0 + p1)
    return 2.0 * s.real, 2.0 * s.imag, p0 - p1


def overlap_magnitude(a: StateVector, b: StateVector) -> float:
    """|<a|b>| of two single states of one size, at most 1; equals 1 iff they agree up to a global phase.

    The clamp keeps a NaN inner product NaN, so it cannot read as a perfect overlap.
    """
    if a.rows is not None or a.amps.shape != b.amps.shape:
        raise ValidationError(
            f"overlap takes two single states of one size, got {_shape_text(a)} of {a.n_qubits} qubits"
            f" vs {_shape_text(b)} of {b.n_qubits}"
        )
    return min(abs(_inner(a.amps, b.amps, None)), 1.0)

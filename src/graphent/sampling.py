"""Finite-shot emulation of spin ``l``'s measurement pipeline.

``estimate_entanglement_shots`` measures spin ``l`` along z, x and y, one
experiment per axis, and keeps only the count of shots that read ``l`` as 1.

Determinism: every sampling entry point takes a non-negative integer seed and
is bit-reproducible for a fixed seed and numpy version.
``estimate_entanglement_shots`` makes one ``numpy.random.default_rng(seed)``
and draws the z, x and y counts from it, one binomial each, in that order.
Substream ``i`` of a root seed is the ``i``-th child that
``numpy.random.SeedSequence(seed).spawn`` makes (:func:`derive_seed`); a sweep
hands data row ``i`` substream ``i`` as its estimate's seed.

Spin ``l``'s marginal needs only its own ``degree(l)`` edge blocks: the
others commute with them and act on other qubits. Neighbour ``m`` starts in
``|0>`` and meets only its block with ``l``, so it is traced out right after
that block, ``rho <- Tr_m[U_b (rho (x) |0><0|_m) U_b^dagger]``, on ``l``'s 2x2
density matrix ``rho`` (:func:`_spin_state`). ``U_b`` enters as its isometry
``V``, its columns at ``m = 0`` (:func:`_isometry`), and each axis applies its
measurement prelude's isometry to ``rho`` the same way before reading the
probability ``p1`` that ``l`` reads 1; the z axis reads ``rho`` itself.

Every isometry comes from the compiled gates run through the gate kernels on
3 qubits, each gate norm-checked, when the module is imported: the x and y
preludes' (``_PRELUDE_ISOMETRIES``) and, per block orientation (rotating on
``l`` or on ``m``), the whole five-gate block's at phi = 0 and at phi = pi
(``_BLOCK_ENDPOINTS``). The block's one angle gate is
``p(phi) = diag(1, z) = ((1 + z) p(0) + (1 - z) p(pi)) / 2`` with
``z = e^{i phi}``, and its other gates are linear and take no angle, so its
isometry at phi is the same mix of the two endpoint isometries
(:func:`_block_isometry`): within 2**-51 of the whole block's kernel run per
entry, and bit-equal to it at phi = +-0. The tables are immutable tuples of
Python ``complex`` rows, and the trace-outs and ``p1`` run on them in plain
Python arithmetic, so an estimate applies no gate and builds no state, whatever
the degree; the route has no qubit cap. It shares no code with the closed form
or with the dense edge kernel, so the three routes still check each other.

Only the gates that build the tables are norm-checked, so each axis checks the
trace of the ``rho`` it reads instead: one more than ``NORM_DRIFT_LIMIT`` from
1, or NaN, raises :class:`ConsistencyError`, as does a read-1 probability
outside [0, 1], before numpy's binomial draw would reject it unclassified.

Readout error is a symmetric flip of ``l``'s measured bit with probability
``r``, so every shot reads 1 with probability ``r + (1 - 2r) p1``,
independently: the axis count is one binomial draw, whose cost does not
depend on the shot count. Readout is the one noise model: a calibration's
gate rates only orient the blocks, its CX rates are read by no route, and the
model makes no claim to reproduce hardware data quantitatively.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .calibration import CalibrationData, _check_calibration
from .circuits import Gate, apply_circuit, choose_orientation, measurement_prelude, synthesize_edge
from .entanglement import BlochVector, EntanglementEstimate, entanglement_from_bloch
from .errors import ConsistencyError, _checked_count, _checked_shots, _finite_angle
from .graphs import Graph, _check_graph
from .statevector import NORM_DRIFT_LIMIT, Matrix2, StateVector


def _z_mean(ones: int, shots: int) -> tuple[float, float]:
    """(mean, std_error) of ``ones`` 1-reads in ``shots``: (n0 - n1)/shots, sqrt((1 - mean^2)/shots)."""
    mean = (shots - 2 * ones) / shots
    return mean, math.sqrt(max(0.0, 1.0 - mean * mean) / shots)


def derive_seed(seed: int, index: int) -> int:
    """Seed of substream ``index``: the ``index``-th child that ``SeedSequence(seed).spawn`` makes."""
    index = _checked_count(index, "substream index")
    child = np.random.SeedSequence(_checked_count(seed, "seed"), spawn_key=(index,))
    return int(child.generate_state(1, np.uint64)[0])


def _propagated_std_error(b: BlochVector, errors: tuple[float, float, float]) -> float:
    """First-order delta method through E = (1 - |m|)/2.

    At |m| = 0 the gradient direction is undefined; the dominant-axis bound
    max(errors)/2 is used instead.
    """
    norm = b.norm()
    if norm == 0.0:
        return max(errors) / 2.0
    return 0.5 * math.sqrt(sum((m * s) ** 2 for m, s in zip(b.as_tuple(), errors))) / norm


def _reference_state() -> StateVector:
    """``l`` = qubit 0 maximally entangled with a reference qubit 2, and ``m`` = qubit 1 in ``|0>``."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000] = amps[0b101] = math.sqrt(0.5)
    return StateVector(3, amps)


def _isometry(gates: tuple[Gate, ...]) -> np.ndarray:
    """``U |0>_m / sqrt(2)`` as a 4x2 matrix ``V``: ``V[2j + i, a] = <i|_l <j|_m U |a>_l |0>_m / sqrt(2)``.

    ``gates`` act on ``l`` = qubit 0 and ``m`` = qubit 1. They run once on
    those two and :func:`_reference_state`'s qubit 2, so the 8 amplitudes of
    the result are ``U``'s columns at ``m = 0``.
    """
    return apply_circuit(_reference_state(), gates).amps.reshape(2, 4).T


# an isometry as its 4 rows of 2 Python complex numbers
Rows = tuple[tuple[complex, complex], ...]


def _rows(v: np.ndarray) -> Rows:
    return tuple(map(tuple, v.tolist()))


_PRELUDE_ISOMETRIES = {axis: _rows(_isometry(measurement_prelude(axis, 0))) for axis in ("x", "y")}
# per block orientation, rotating on l = qubit 0 (True) or on m = qubit 1 (False):
# the whole five-gate block's isometry at phi = 0 and at phi = pi
_BLOCK_ENDPOINTS = {
    on_l: tuple(_rows(_isometry(synthesize_edge(r, p, angle))) for angle in (0.0, math.pi))
    for on_l, (r, p) in ((True, (0, 1)), (False, (1, 0)))
}


def _block_isometry(on_l: bool, phi: float) -> Rows:
    """:func:`_isometry` of ``synthesize_edge(0, 1, phi)`` (or of ``(1, 0, phi)``), to within 2**-51 per entry.

    ``((1 + z) V(0) + (1 - z) V(pi)) / 2`` with ``z = e^{i phi}``, of the
    ``_BLOCK_ENDPOINTS`` pair ``V``: the mix the block's ``p(phi)`` is of
    ``p(0)`` and ``p(pi)``. At phi = +-0 it is ``V(0)`` bit for bit.
    """
    z = cmath.exp(1j * phi)
    c0, c1 = (1 + z) / 2, (1 - z) / 2
    v0, vpi = _BLOCK_ENDPOINTS[on_l]
    return tuple((c0 * a + c1 * b, c0 * c + c1 * d) for (a, c), (b, d) in zip(v0, vpi))


def _trace_out(rho: Matrix2, v: Rows) -> Matrix2:
    """``Tr_m[U (rho (x) |0><0|_m) U^dagger]`` from ``v`` of :func:`_isometry`; the factor 2 is exact.

    The sum over ``m`` of ``l``'s 2x2 blocks of ``v rho v^dagger``, each
    entry written out in Python complex arithmetic.
    """
    (r00, r01), (r10, r11) = rho
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = v
    # rows of v @ rho
    x0, y0 = a0 * r00 + b0 * r10, a0 * r01 + b0 * r11
    x1, y1 = a1 * r00 + b1 * r10, a1 * r01 + b1 * r11
    x2, y2 = a2 * r00 + b2 * r10, a2 * r01 + b2 * r11
    x3, y3 = a3 * r00 + b3 * r10, a3 * r01 + b3 * r11
    a0, b0, a1, b1 = a0.conjugate(), b0.conjugate(), a1.conjugate(), b1.conjugate()
    a2, b2, a3, b3 = a2.conjugate(), b2.conjugate(), a3.conjugate(), b3.conjugate()
    return (
        (2 * (x0 * a0 + y0 * b0 + x2 * a2 + y2 * b2), 2 * (x0 * a1 + y0 * b1 + x2 * a3 + y2 * b3)),
        (2 * (x1 * a0 + y1 * b0 + x3 * a2 + y3 * b2), 2 * (x1 * a1 + y1 * b1 + x3 * a3 + y3 * b3)),
    )


def _spin_state(blocks: list[tuple[int, int]], l: int, phi: float) -> Matrix2:
    """Spin ``l``'s 2x2 density matrix after its edge blocks, oriented as ``blocks``.

    Neighbour ``m`` starts in ``|0>`` and meets only its own block, so it is
    traced out right after it. A block has two orientations, rotating on
    ``l`` or on ``m``, so at most two isometries are built.
    """
    isometries: dict[bool, Rows] = {}
    rho = (1 + 0j, 0j), (0j, 0j)
    for r, _ in blocks:
        on_l = r == l
        if on_l not in isometries:
            isometries[on_l] = _block_isometry(on_l, phi)
        rho = _trace_out(rho, isometries[on_l])
    return rho


def _read_one(rho: Matrix2) -> float:
    """``p1 = rho11 / tr(rho)``, the chance that ``rho`` reads 1, once its trace is within ``NORM_DRIFT_LIMIT`` of 1.

    The trace is the squared norm of the state the isometries purify, so it
    is held to the gate kernels' norm rule: a drift past the limit, or a NaN,
    raises :class:`ConsistencyError`.
    """
    trace = rho[0][0].real + rho[1][1].real
    drift = abs(trace - 1.0)
    if not drift <= NORM_DRIFT_LIMIT:
        raise ConsistencyError(f"spin state trace drifted by {drift:.3e}")
    return rho[1][1].real / trace


def _read_one_probabilities(g: Graph, phi: float, l: int, cal: CalibrationData | None) -> list[float]:
    """Chances that one shot of the z, x and y experiments reads spin ``l`` as 1.

    Each is ``r + (1 - 2r) p1`` of the module docstring, and one outside
    [0, 1] raises :class:`ConsistencyError` rather than reach a binomial draw.
    The blocks are oriented on the physical pairs with the physical
    calibration, so ties break on physical indices.
    """
    blocks = [choose_orientation((l, m), cal) for m in g.neighbours(l)]
    rho = _spin_state(blocks, l, phi)
    r = 0.0 if cal is None else cal.readout_error[l]
    probabilities = []
    for axis in ("z", "x", "y"):
        p1 = _read_one(rho if axis == "z" else _trace_out(rho, _PRELUDE_ISOMETRIES[axis]))
        p = r + (1 - 2 * r) * p1
        if not 0.0 <= p <= 1.0:
            raise ConsistencyError(f"{axis} read-1 probability {p!r} outside [0, 1]")
        probabilities.append(p)
    return probabilities


def estimate_entanglement_shots(
    g: Graph,
    phi: float,
    l: int,
    shots: int,
    cal: CalibrationData | None = None,
    seed: int = 0,
) -> EntanglementEstimate:
    """Three-experiment shot estimate of spin ``l``'s entanglement.

    Spin ``l``'s density matrix after its edge blocks, then per axis (z, x,
    y) the measurement prelude on it and one binomial count of the shots that
    read ``l`` as 1, with ``l``'s readout error composed into its probability
    when calibration is given.
    """
    _check_graph(g)
    g.degree(l)  # spin-range check
    phi = _finite_angle(phi)
    shots = _checked_shots(shots)
    _check_calibration(cal, g.n_vertices)
    probabilities = _read_one_probabilities(g, phi, l, cal)
    rng = np.random.default_rng(_checked_count(seed, "seed"))
    (mz, ez), (mx, ex), (my, ey) = (_z_mean(int(rng.binomial(shots, p)), shots) for p in probabilities)
    bloch = BlochVector(mx, my, mz)
    return EntanglementEstimate(
        spin=l,
        value=entanglement_from_bloch(bloch, norm_tol=None),
        bloch=bloch,
        method="shots",
        std_error=_propagated_std_error(bloch, (ex, ey, ez)),
        shots=shots,
    )

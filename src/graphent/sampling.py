"""Finite-shot emulation of spin ``l``'s measurement pipeline.

``estimate_entanglement_shots`` measures spin ``l`` along z, x and y, one
experiment per axis, and keeps only the count of shots that read ``l`` as 1.

Determinism: every sampling entry point takes a non-negative integer seed and
is bit-reproducible for a fixed seed and numpy version. Substream ``i`` of a
root seed is the ``i``-th child that ``numpy.random.SeedSequence(seed).spawn``
makes (:func:`derive_seed`); ``estimate_entanglement_shots`` gives the z, x
and y axes substreams 0, 1 and 2, each making its axis's single binomial draw.

One preparation per estimate simulates the star of spin ``l`` only, without
noise: its ``degree(l)`` edge blocks on ``degree(l) + 1`` qubits
(:func:`synthesize_star_circuit`). Each axis runs its measurement prelude on a
copy of that state for the probability ``p1`` that ``l`` reads 1. The other
blocks commute with ``l``'s and act on other qubits, so they leave ``l``'s
marginal alone.

Gate/CX noise, when enabled (``estimate_entanglement_shots(..., gate_noise=True)``),
puts after each gate, with the calibrated probability, a uniformly random
non-identity Pauli on the gate's qubit(s): one of 3, or of 15 after a cx.
Pushed to the end of the circuit, an error Pauli stays a Pauli through the
Clifford gates (cx, h and the preludes' ry(-pi/2) and rx(pi/2)); past a
p(phi) it keeps its form and flips the sign of its block's XX rotation.
Spin ``l``'s marginal of commuting XX rotations does not depend on their
signs, so an error flips ``l``'s measured bit exactly when its image has an
x bit on ``l``, whatever phi is: a Pauli frame (Knill, Nature 434, 39
(2005); Gidney, Quantum 5, 497 (2021)). Errors outside ``l``'s blocks end
as Paulis on their own edge and never flip it, so the star holds under
noise too. Site ``s`` with error ``p_s`` flips the bit with probability
``p_s a_s / N_s``, where ``a_s`` of its ``N_s`` Paulis do, and independent
flips add mod 2: gate noise flips the bit with probability
``q = (1 - prod_s (1 - 2 p_s a_s / N_s)) / 2``. The model makes no claim to
reproduce hardware data quantitatively.

Readout error is one more symmetric flip, with probability ``r``, so
``f = r + q - 2rq`` and every shot reads 1 with probability
``f + (1 - 2f) p1``, independently: the axis count is one binomial draw,
whose cost does not depend on the shot count. Without gate noise, or with
every gate and CX rate zero, ``q`` is 0 and ``f`` is ``r`` exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .calibration import CalibrationData
from .circuits import apply_circuit, measurement_prelude, synthesize_star_circuit
from .entanglement import BlochVector, EntanglementEstimate, entanglement_from_bloch
from .errors import ValidationError
from .graphs import Graph
from .statevector import DEFAULT_MAX_QUBITS, Gate, StateVector, _finite_angle, init_zero

DEFAULT_SHOTS = 8192


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


def _z_mean(ones: int, shots: int) -> tuple[float, float]:
    """(mean, std_error) of ``ones`` 1-reads in ``shots``: (n0 - n1)/shots, sqrt((1 - mean^2)/shots)."""
    mean = (shots - 2 * ones) / shots
    return mean, math.sqrt(max(0.0, 1.0 - mean * mean) / shots)


def derive_seed(seed: int, index: int) -> int:
    """Seed of substream ``index``: the ``index``-th child that ``SeedSequence(seed).spawn`` makes."""
    child = np.random.SeedSequence(_checked_seed(seed), spawn_key=(index,))
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


def _gate_flip_probability(gates: tuple[Gate, ...], star: tuple[int, ...], cal: CalibrationData) -> float:
    """``q``, the chance that gate/CX errors flip star qubit 0's measured bit.

    An error's image has an x bit on qubit 0 exactly when the error
    anticommutes with Z_0 pulled back to it, since conjugation keeps
    commutation. One backward pass holds that pullback as x/z bitmasks,
    signs dropped; the maps of cx, h and the preludes' quarter-turn rx and
    ry are their own inverses, and p keeps the frame. Where the pullback
    acts on a site, 2 of its 3 (or 8 of its 15) Paulis anticommute with it.
    Rates are looked up in circuit order first, so the first missing cx
    entry is the one that raises.
    """
    rates = [
        cal.cx_error_for(star[g.control], star[g.target])
        if g.kind == "cx"
        else cal.gate_error[star[g.target]]
        for g in gates
    ]
    x, z = 0, 1
    keep = 1.0
    for gate, p in zip(reversed(gates), reversed(rates)):
        t = 1 << gate.target
        c = 1 << gate.control if gate.kind == "cx" else 0
        if (x | z) & (c | t):
            keep *= 1.0 - 2.0 * p * (8 / 15 if c else 2 / 3)
        if gate.kind == "cx":
            if x & c:
                x ^= t
            if z & t:
                z ^= c
        elif gate.kind in ("h", "ry") and bool(x & t) != bool(z & t):
            x, z = x ^ t, z ^ t
        elif gate.kind == "rx" and z & t:
            x ^= t
    return (1.0 - keep) / 2.0


def _read_one_probability(
    prepared: StateVector,
    base: tuple[Gate, ...],
    star: tuple[int, ...],
    axis: str,
    cal: CalibrationData | None,
    gate_noise: bool,
) -> float:
    """Chance that one shot of the ``axis`` experiment on a star reads its qubit 0 as 1.

    ``base`` and ``star`` are :func:`synthesize_star_circuit`'s and
    ``prepared`` is ``base`` run from ``|0...0>``, left unchanged; the result
    is ``f + (1 - 2f) p1`` of the module docstring.
    """
    prelude = measurement_prelude(axis, 0)
    probs = apply_circuit(prepared.copy(), prelude).probabilities()
    p1 = probs[1::2].sum() / probs.sum()
    q = _gate_flip_probability(base + prelude, star, cal) if gate_noise else 0.0
    r = 0.0 if cal is None else cal.readout_error[star[0]]
    f = r + q - 2 * r * q
    return f + (1 - 2 * f) * p1


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

    One preparation of the star of ``l`` (``l``'s edge blocks, see
    :func:`synthesize_star_circuit`), then per axis (z, x, y) the measurement
    prelude on a copy of it and one binomial count of the shots that read
    ``l`` as 1, with ``l``'s readout error composed into its probability when
    calibration is given. ``gate_noise=True`` also composes the flip that the
    star's gate/CX errors cause, from the calibration (required then).
    ``max_qubits`` caps the star, ``degree(l) + 1`` qubits.
    """
    g.degree(l)  # spin-range check
    phi = _finite_angle(phi)
    _checked_shots(shots)
    if gate_noise and cal is None:
        raise ValidationError("gate_noise requires calibration data")
    if cal is not None and cal.n_qubits < g.n_vertices:
        raise ValidationError(f"calibration covers {cal.n_qubits} qubits, graph has {g.n_vertices}")
    base, star = synthesize_star_circuit(g, l, phi, cal)
    prepared = apply_circuit(init_zero(len(star), max_qubits), base)
    means: dict[str, float] = {}
    errors: dict[str, float] = {}
    for index, axis in enumerate(("z", "x", "y")):
        p = _read_one_probability(prepared, base, star, axis, cal, gate_noise)
        ones = int(np.random.default_rng(derive_seed(seed, index)).binomial(shots, p))
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

"""Randomized self-check suites with worst-case deviation reporting.

Each property pits one computation route against an independent one (closed
form vs state evolution, stride kernels vs dense edge unitaries, preludes vs
direct expectations) over seeded random graphs and angles.

Every random draw is made first, in a fixed order: the graphs, 25
closed-form angles per graph, then for each of the first 30 graphs its 5
overlap angles and, if it has edges, one shuffled edge order per overlap
angle, the 100 prelude states, and 3 symmetry angles per graph of the first
30. Then each graph is evolved once on the dense route, as one batch of
state rows (see :mod:`graphent.statevector`): its 25 closed-form angles, and
for the first 30 graphs also the 5 overlap angles and the 3 symmetry angles
with their 3 partners each, 42 rows. The closed-form, transverse and
symmetry properties read every spin's means from that batch as ``(rows,
spins)`` arrays. The overlap and distance properties run the 5 overlap
angles through one synthesized circuit whose ``p`` gates carry one angle per
row, compared row by row with their rows of the dense batch
(``overlap_magnitude`` and the distance of each pair of amplitude rows); the
edge-order property evolves one state per overlap angle in its own edge order
against the same rows. The prelude round trip runs its 100 one-qubit states
as one batch. A batch that would exceed ``2**max_qubits`` amplitudes is split
into chunks that fit. Rows have their single-state bits, so neither the
batching nor the chunking moves a reported value.
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import apply_circuit, measurement_prelude, synthesize_graph_circuit
from .entanglement import _check_components, _entanglement_of_means, analytic_entanglement
from .errors import DEFAULT_MAX_QUBITS, ResourceCapError, _checked_count, _checked_integer, _shown, _Value
from .graphs import Graph
from .statevector import (
    StateVector,
    _inner,
    evolve_edges,
    init_zero,
    overlap_magnitude,
    pauli_means,
)


class PropertyResult(_Value):
    __slots__ = ("name", "worst", "threshold")

    def __init__(self, name: str, worst: float, threshold: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "threshold", threshold)

    @property
    def passed(self) -> bool:
        return self.worst <= self.threshold

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name}: worst={self.worst:.3e}  threshold={self.threshold:.0e}"


def random_graph(rng: np.random.Generator, n_min: int = 2, n_max: int = 6) -> Graph:
    """Uniform vertex count in [n_min, n_max], each possible edge kept with p = 1/2."""
    n = int(rng.integers(n_min, n_max + 1))
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    )
    return Graph(n, edges)


def _chunks(angles, n: int, max_qubits: int) -> list:
    """Consecutive slices of ``angles`` (or of states), each few enough that its rows of ``n`` qubits fit the cap."""
    size = 1 << min(max_qubits - n, len(angles).bit_length())
    return [angles[k : k + size] for k in range(0, len(angles), size)]


def _entanglement_rows(state: StateVector) -> tuple[np.ndarray, np.ndarray]:
    """Each row's per-spin transverse mean max(|<X>|, |<Y>|) and exact entanglement, as (rows, spins) arrays.

    Every mean is held to ``BlochVector``'s component bound and every norm to
    ``entanglement_from_bloch``'s, with their messages.
    """
    means = np.array([pauli_means(state, l) for l in range(state.n_qubits)]).transpose(2, 0, 1)
    _check_components(means)
    e = np.array([[_entanglement_of_means(*b) for b in spins] for spins in means.tolist()])
    return np.abs(means[..., :2]).max(axis=-1), e


def _shuffled(rng: np.random.Generator, edges) -> list:
    order = list(edges)
    rng.shuffle(order)
    return order


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - e^{i theta} b||`` of two amplitude rows, with ``e^{i theta} = <b|a> / |<b|a>|``, 1 if that is 0: linear in an amplitude error."""
    s = _inner(b, a, None)
    return float(np.linalg.norm(a - (s / abs(s) if s else 1.0) * b))


def run_validation(
    max_n: int = 6,
    trials: int = 200,
    seed: int = 7,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> tuple[PropertyResult, ...]:
    """Run every property suite; ``trials`` is the number of random graphs, and every argument an integer."""
    trials, max_n = _checked_count(trials, "trials", 1), _checked_count(max_n, "max_n", 2)
    max_qubits = _checked_integer(max_qubits, "max_qubits")
    if max_n > max_qubits:
        raise ResourceCapError(f"max_n {_shown(max_n)} exceeds the qubit cap {_shown(max_qubits)}")
    rng = np.random.default_rng(_checked_count(seed, "seed"))
    graphs = [random_graph(rng, 2, max_n) for _ in range(trials)]
    phis_per_graph = [rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 25) for _ in graphs]
    sub = graphs[:30]
    overlap_phis, orders = [], []
    for g in sub:
        overlap_phis.append(rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 5))
        # each overlap angle draws its own edge order
        orders.append([_shuffled(rng, g.edges) for _ in range(5)] if g.edges else [])
    # 100 random one-qubit states, drawn as the real then the imaginary parts
    # of one state after another
    z = rng.standard_normal((100, 2, 2))
    symmetry_angles = [
        [a for phi in rng.uniform(0.0, 2.0 * math.pi, 3) for a in (phi, -phi, phi + math.pi, math.pi - phi)]
        for _ in sub
    ]

    worst_closed_form = 0.0
    worst_transverse = 0.0
    overlap_deficits, distances, order_deficits = [], [], []
    worst_symmetry = 0.0
    for k, (g, phis) in enumerate(zip(graphs, phis_per_graph)):
        # rows 0-24 closed form; on a sub graph 25-29 overlap, 30-41 symmetry
        angles = np.concatenate((phis, overlap_phis[k], symmetry_angles[k])) if k < len(sub) else phis
        n = g.n_vertices
        transverse, e = [], []
        start = 0
        for chunk in _chunks(angles, n, max_qubits):
            state = evolve_edges(init_zero(n, max_qubits, rows=len(chunk)), g.edges, chunk)
            t, ec = _entanglement_rows(state)
            transverse.append(t)
            e.append(ec)
            lo, hi = max(start, 25), min(start + len(chunk), 30)
            if lo < hi:  # overlap rows in this chunk
                reference = state.amps[lo - start : hi - start]
                circ = apply_circuit(init_zero(n, max_qubits, rows=hi - lo), synthesize_graph_circuit(g, angles[lo:hi]))
                for a, b in zip(circ.amps, reference):
                    overlap_deficits.append(1.0 - overlap_magnitude(StateVector(n, a), StateVector(n, b)))
                    distances.append(_phase_aligned_distance(a, b))
                for phi, order, row in zip(angles[lo:hi], orders[k][lo - 25 : hi - 25], reference):
                    other = evolve_edges(init_zero(n, max_qubits), order, phi)
                    order_deficits.append(1.0 - overlap_magnitude(other, StateVector(n, row)))
            start += len(chunk)
        transverse, e = np.concatenate(transverse), np.concatenate(e)

        degrees = [g.degree(l) for l in range(n)]
        analytic = {d: [analytic_entanglement(d, phi) for phi in phis.tolist()] for d in set(degrees)}
        closed_form = np.array([analytic[d] for d in degrees]).T
        worst_closed_form = max(worst_closed_form, float(np.abs(e[:25] - closed_form).max()))
        worst_transverse = max(worst_transverse, float(transverse[:25].max()))
        if k < len(sub):
            # each symmetry angle's row against its 3 partners' rows
            quads = e[30:].reshape(3, 4, n)
            worst_symmetry = max(worst_symmetry, float(np.abs(quads[:, 1:] - quads[:, :1]).max()))

    worst_prelude = 0.0
    for amps in _chunks(z[:, 0] + 1j * z[:, 1], 1, max_qubits):
        amps /= np.sqrt(_inner(amps, amps, len(amps)).real)[:, None]
        base = StateVector(1, amps)
        for axis, target in zip(("x", "y", "z"), pauli_means(base, 0)):
            rotated = apply_circuit(base.copy(), measurement_prelude(axis, 0))
            deviation = np.abs(pauli_means(rotated, 0)[2] - target)
            worst_prelude = max(worst_prelude, float(np.max(deviation)))

    # np.max, unlike max(), keeps a NaN, which then fails; a run whose graphs
    # have no edges has no edge-order rows
    worst_overlap, worst_distance, worst_order = (
        float(np.max(v, initial=0.0)) for v in (overlap_deficits, distances, order_deficits)
    )
    return (
        PropertyResult("closed form vs exact entanglement", worst_closed_form, 1e-10),
        PropertyResult("transverse means vanish", worst_transverse, 1e-12),
        PropertyResult("circuit vs dense evolution overlap deficit", worst_overlap, 1e-12),
        PropertyResult("circuit vs dense evolution distance", worst_distance, 1e-12),
        PropertyResult("edge order independence overlap deficit", worst_order, 1e-12),
        PropertyResult("measurement prelude round trip", worst_prelude, 1e-12),
        PropertyResult("angle symmetry of exact entanglement", worst_symmetry, 1e-10),
    )

"""Randomized self-check suites with worst-case deviation reporting.

Each property pits one computation route against an independent one (closed
form vs state evolution, stride kernels vs dense edge unitaries, preludes vs
direct expectations) over seeded random graphs and angles.

Where a property evolves one graph at many angles, the angles run as one
batch of state rows (see :mod:`graphent.statevector`): the closed-form and
transverse properties take a graph's 25 angles, the symmetry property its
3 angles with their 3 partners each, and the prelude round trip its 100
one-qubit states. The overlap and distance properties run a graph's 5 angles
as two batches, the dense reference and one synthesized circuit whose ``p``
gates carry one angle per row, compared row by row (``overlap_magnitude``
of the two batches, the distance of each pair of amplitude rows). A batch
that would exceed ``2**max_qubits`` amplitudes is split into chunks that
fit. Rows have their single-state bits, so neither the batching nor the
chunking moves a reported value. The edge-order property draws its own
shuffled edge order for each angle, so it runs one state at a time against
the reference's row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import apply_circuit, measurement_prelude, synthesize_graph_circuit
from .entanglement import BlochVector, analytic_entanglement, entanglement_from_bloch
from .errors import ResourceCapError, ValidationError
from .graphs import Graph
from .sampling import _checked_seed
from .statevector import (
    DEFAULT_MAX_QUBITS,
    StateVector,
    _checked_integer,
    _inner,
    evolve_edge_exact,
    evolve_graph_exact,
    init_zero,
    overlap_magnitude,
    pauli_means,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    worst: float
    threshold: float

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


def _entanglement_rows(g: Graph, angles, max_qubits: int) -> list[list[tuple[BlochVector, float]]]:
    """For each angle, each spin's exact Bloch vector and entanglement, from batches of rows."""
    out = []
    for chunk in _chunks(angles, g.n_vertices, max_qubits):
        state = evolve_graph_exact(init_zero(g.n_vertices, max_qubits, rows=len(chunk)), g, chunk)
        means = [[m.tolist() for m in pauli_means(state, l)] for l in range(g.n_vertices)]
        for row in range(len(chunk)):
            blochs = [BlochVector(mx[row], my[row], mz[row]) for mx, my, mz in means]
            out.append([(b, entanglement_from_bloch(b)) for b in blochs])
    return out


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``||a - e^{i theta} b||`` of two amplitude rows, with ``e^{i theta} = <b|a> / |<b|a>|``, 1 if that is 0: linear in an amplitude error."""
    s = complex(np.vdot(b, a))
    return float(np.linalg.norm(a - (s / abs(s) if s else 1.0) * b))


def run_validation(
    max_n: int = 6,
    trials: int = 200,
    seed: int = 7,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> tuple[PropertyResult, ...]:
    """Run every property suite; ``trials`` is the number of random graphs, and every argument an integer."""
    trials, max_n, max_qubits = map(_checked_integer, (trials, max_n, max_qubits), ("trials", "max_n", "max_qubits"))
    if trials < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    if max_n < 2:
        raise ValidationError(f"max_n must be at least 2, got {max_n}")
    if max_n > max_qubits:
        raise ResourceCapError(f"max_n {max_n} exceeds the qubit cap {max_qubits}")
    rng = np.random.default_rng(_checked_seed(seed))
    graphs = [random_graph(rng, 2, max_n) for _ in range(trials)]
    phis_per_graph = [rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 25) for _ in graphs]

    worst_closed_form = 0.0
    worst_transverse = 0.0
    for g, phis in zip(graphs, phis_per_graph):
        for phi, spins in zip(phis, _entanglement_rows(g, phis, max_qubits)):
            for l, (b, exact) in enumerate(spins):
                analytic = analytic_entanglement(g.degree(l), phi)
                worst_closed_form = max(worst_closed_form, abs(exact - analytic))
                worst_transverse = max(worst_transverse, abs(b.mx), abs(b.my))

    sub = graphs[:30]
    worst_overlap = 0.0
    distances = []
    worst_order = 0.0
    for g in sub:
        n = g.n_vertices
        phis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 5)
        for chunk in _chunks(phis, n, max_qubits):
            reference = evolve_graph_exact(init_zero(n, max_qubits, rows=len(chunk)), g, chunk)
            circ = apply_circuit(init_zero(n, max_qubits, rows=len(chunk)), synthesize_graph_circuit(g, chunk))
            worst_overlap = max(worst_overlap, 1.0 - min(overlap_magnitude(circ, reference)))
            distances.extend(map(_phase_aligned_distance, circ.amps, reference.amps))
            if g.edges:
                # each angle draws its own edge order, so these run one state at a time
                for phi, ref_row in zip(chunk, reference.amps):
                    shuffled = list(g.edges)
                    rng.shuffle(shuffled)
                    other = init_zero(n, max_qubits)
                    for i, j in shuffled:
                        evolve_edge_exact(other, int(i), int(j), phi)
                    worst_order = max(worst_order, 1.0 - overlap_magnitude(other, StateVector(n, ref_row)))

    # 100 random one-qubit states, drawn as the real then the imaginary parts
    # of one state after another
    z = rng.standard_normal((100, 2, 2))
    worst_prelude = 0.0
    for amps in _chunks(z[:, 0] + 1j * z[:, 1], 1, max_qubits):
        amps /= np.sqrt(_inner(amps, amps, len(amps)).real)[:, None]
        base = StateVector(1, amps)
        for axis, target in zip(("x", "y", "z"), pauli_means(base, 0)):
            rotated = apply_circuit(base.copy(), measurement_prelude(axis, 0))
            deviation = np.abs(pauli_means(rotated, 0)[2] - target)
            worst_prelude = max(worst_prelude, float(np.max(deviation)))

    worst_symmetry = 0.0
    for g in sub:
        angles = [
            a for phi in rng.uniform(0.0, 2.0 * math.pi, 3) for a in (phi, -phi, phi + math.pi, math.pi - phi)
        ]
        rows = _entanglement_rows(g, angles, max_qubits)
        for k in range(0, len(rows), 4):
            base_e = [e for _, e in rows[k]]
            for other in rows[k + 1 : k + 4]:
                for e1, (_, e2) in zip(base_e, other):
                    worst_symmetry = max(worst_symmetry, abs(e1 - e2))

    return (
        PropertyResult("closed form vs exact entanglement", worst_closed_form, 1e-10),
        PropertyResult("transverse means vanish", worst_transverse, 1e-12),
        PropertyResult("circuit vs dense evolution overlap deficit", worst_overlap, 1e-12),
        # np.max, unlike max(), keeps a NaN distance, which then fails
        PropertyResult("circuit vs dense evolution distance", float(np.max(distances)), 1e-12),
        PropertyResult("edge order independence overlap deficit", worst_order, 1e-12),
        PropertyResult("measurement prelude round trip", worst_prelude, 1e-12),
        PropertyResult("angle symmetry of exact entanglement", worst_symmetry, 1e-10),
    )

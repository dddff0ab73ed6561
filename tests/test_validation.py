import math

import numpy as np
import pytest

from graphent import ResourceCapError, ValidationError, statevector, validation
from graphent.entanglement import bloch_vector, entanglement_from_bloch
from graphent.statevector import evolve_edges, init_zero
from graphent.validation import random_graph, run_validation


def test_random_graph_respects_bounds(rng):
    for _ in range(50):
        g = random_graph(rng, 2, 6)
        assert 2 <= g.n_vertices <= 6
        assert all(i < j < g.n_vertices for i, j in g.edges)


def test_report_passes_and_lists_every_property():
    results = run_validation(max_n=4, trials=8, seed=0)
    assert all(r.passed for r in results)
    assert len(results) == 7
    assert all(r.line().startswith("pass") for r in results)


def test_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        run_validation(trials=0)
    with pytest.raises(ValidationError):
        run_validation(max_n=1)
    # numpy's own errors for these are unclassified ValueError and TypeError
    with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
        run_validation(trials=1, seed=-1)
    for name, value in [("seed", 1.5), ("trials", 2.5), ("max_n", 4.0), ("max_qubits", 6.5)]:
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            run_validation(**{"trials": 1, name: value})


def test_max_n_above_the_cap_is_rejected_before_any_trial():
    with pytest.raises(ResourceCapError, match="max_n 5 exceeds the qubit cap 4"):
        run_validation(max_n=5, trials=1, seed=1, max_qubits=4)


def test_perturbed_edge_kernel_fails_the_overlap_property(monkeypatch):
    dense = statevector._apply_two_qubit_dense

    def perturbed(amps, qa, qb, u):
        dense(amps, qa, qb, u)
        amps += 1e-6
        # per row, so the norm check passes on a batch too and the overlap must catch it
        amps /= np.linalg.norm(amps, axis=-1, keepdims=True)

    monkeypatch.setattr(statevector, "_apply_two_qubit_dense", perturbed)
    results = {r.name: r for r in run_validation(max_n=4, trials=8, seed=0)}
    overlap = results["circuit vs dense evolution overlap deficit"]
    assert not overlap.passed
    assert overlap.line().startswith("FAIL")


def test_phase_error_in_edge_kernel_fails_the_distance_property(monkeypatch):
    # a 1e-6 phase on one quarter moves the overlap deficit only quadratically,
    # about 1e-13, while the phase-aligned distance moves linearly
    dense = statevector._apply_two_qubit_dense
    phase = np.diag([1, 1, 1, np.exp(1e-6j)])

    def perturbed(amps, qa, qb, u):
        dense(amps, qa, qb, phase @ u)

    monkeypatch.setattr(statevector, "_apply_two_qubit_dense", perturbed)
    results = {r.name: r for r in run_validation(max_n=4, trials=8, seed=0)}
    assert results["circuit vs dense evolution overlap deficit"].passed
    assert not results["circuit vs dense evolution distance"].passed


def test_nan_distance_fails_the_distance_property(monkeypatch):
    # max() would drop a NaN met after a finite value
    distance = validation._phase_aligned_distance
    calls = []

    def nan_second(a, b):
        calls.append(None)
        return math.nan if len(calls) == 2 else distance(a, b)

    monkeypatch.setattr(validation, "_phase_aligned_distance", nan_second)
    results = {r.name: r for r in run_validation(max_n=4, trials=8, seed=0)}
    assert math.isnan(results["circuit vs dense evolution distance"].worst)
    assert not results["circuit vs dense evolution distance"].passed


@pytest.mark.parametrize(
    "name", ["circuit vs dense evolution overlap deficit", "edge order independence overlap deficit"]
)
def test_nan_overlap_fails_its_deficit_property(monkeypatch, name):
    # max(0.0, nan) returns 0.0, so a NaN overlap met after a finite one would read as a pass
    evolve, overlap = validation.evolve_edges, validation.overlap_magnitude
    reordered, calls = [], []  # the edge-order states themselves: `in` compares states by identity

    def recording_evolve(state, edges, phi):
        reordered.append(state)
        return evolve(state, edges, phi)

    def nan_second(a, b):
        if (a in reordered) == name.startswith("edge order"):
            calls.append(None)
            if len(calls) == 2:
                return math.nan
        return overlap(a, b)

    monkeypatch.setattr(validation, "evolve_edges", recording_evolve)
    monkeypatch.setattr(validation, "overlap_magnitude", nan_second)
    results = {r.name: r for r in run_validation(max_n=4, trials=8, seed=0)}
    assert len(calls) > 2
    assert math.isnan(results[name].worst)
    assert results[name].line().startswith("FAIL")
    others = [r for r in results.values() if r.name != name]
    assert all(r.passed for r in others)


def _record_batches(monkeypatch):
    """Every ``init_zero`` allocation as (n, rows), and every dense batch's amplitude shape."""
    allocations, dense = [], []
    init_zero, evolve = validation.init_zero, validation.evolve_edges

    def recording_init(n, max_qubits, rows=None):
        allocations.append((n, rows))
        return init_zero(n, max_qubits, rows)

    def recording_evolve(state, edges, phi):
        if state.rows is not None:  # the edge-order property's single states are no dense batch
            dense.append(state.amps.shape)
        return evolve(state, edges, phi)

    monkeypatch.setattr(validation, "init_zero", recording_init)
    monkeypatch.setattr(validation, "evolve_edges", recording_evolve)
    return allocations, dense


def test_small_cap_splits_batches_without_moving_a_result(monkeypatch):
    # each of the first 30 graphs evolves once: 25 closed-form, 5 overlap and
    # 12 symmetry rows; later graphs evolve their 25 closed-form rows. Under a
    # cap of 4 qubits the 4-vertex graphs run one row per batch.
    allocations, dense = _record_batches(monkeypatch)
    rng = np.random.default_rng(0)
    sizes = [random_graph(rng, 2, 4).n_vertices for _ in range(32)]  # run_validation's draw for seed 0
    capped = run_validation(max_n=4, trials=32, seed=0, max_qubits=4)
    batches = [(n, rows) for n, rows in allocations if rows is not None]
    assert all(rows << n <= 1 << 4 for n, rows in batches)
    assert (4, 1) in batches and (4, 42) not in batches
    assert sum(rows for rows, _ in dense) == 42 * 30 + 25 * 2
    allocations.clear()
    dense.clear()
    assert run_validation(max_n=4, trials=32, seed=0) == capped
    assert dense == [(42 if k < 30 else 25, 1 << n) for k, n in enumerate(sizes)]
    assert sizes.count(4) and (4, 42) in allocations


def test_circuit_and_reference_run_one_batch_per_graph(monkeypatch):
    # each graph's 5 overlap angles run as one circuit batch against their rows
    # of the graph's dense batch; the edge-order property draws an order per
    # angle and keeps one state per angle
    allocations, dense = _record_batches(monkeypatch)
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, 2, 4) for _ in range(8)]  # run_validation's draw for seed 0
    sizes = [g.n_vertices for g in graphs]
    singles = [(g.n_vertices, None) for g in graphs if g.edges for _ in range(5)]
    assert sizes.count(4) and singles

    default = run_validation(max_n=4, trials=8, seed=0)
    assert [a for a in allocations if a[1] is not None] == [a for n in sizes for a in ((n, 42), (n, 5))]
    assert dense == [(42, 1 << n) for n in sizes]
    assert [a for a in allocations if a[1] is None] == singles

    allocations.clear()
    assert run_validation(max_n=4, trials=8, seed=0, max_qubits=4) == default
    assert (4, 5) not in allocations
    # 42 dense rows (25 closed-form, 5 overlap, 12 symmetry) and 5 circuit rows per 4-vertex graph
    assert allocations.count((4, 1)) == (42 + 5) * sizes.count(4)
    assert [a for a in allocations if a[1] is None] == singles


@pytest.mark.parametrize("value, text", [(1.0 + 1e-6, "1.000001"), (math.nan, "nan")])
def test_pauli_mean_out_of_bounds_raises_the_bloch_component_error(monkeypatch, value, text):
    means = validation.pauli_means

    def corrupted(state, l):
        mx, my, mz = means(state, l)
        mx = np.array(mx, dtype=float)  # a copy, also of a single state's float
        mx.flat[0] = value
        return mx, my, mz

    monkeypatch.setattr(validation, "pauli_means", corrupted)
    with pytest.raises(ValidationError, match=rf"^Bloch component mx={text} outside \[-1, 1\]$"):
        run_validation(max_n=4, trials=2, seed=0)


def test_entanglement_rows_equal_the_per_spin_route(rng):
    # the (rows, spins) arrays keep the bits of a BlochVector and
    # entanglement_from_bloch per single state and spin
    for _ in range(10):
        g = random_graph(rng, 2, 6)
        n = g.n_vertices
        phis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 7)
        transverse, e = validation._entanglement_rows(evolve_edges(init_zero(n, rows=7), g.edges, phis))
        assert transverse.shape == e.shape == (7, n)
        for row, phi in enumerate(phis):
            blochs = [bloch_vector(evolve_edges(init_zero(n), g.edges, phi), l) for l in range(n)]
            assert e[row].tolist() == [entanglement_from_bloch(b) for b in blochs]
            assert transverse[row].tolist() == [max(abs(b.mx), abs(b.my)) for b in blochs]


def test_chunks_fit_the_cap_and_keep_the_order():
    angles = list(range(25))
    for n, cap, size in [(6, 24, 25), (6, 10, 16), (6, 6, 1), (3, 5, 4)]:
        chunks = validation._chunks(angles, n, cap)
        assert [a for c in chunks for a in c] == angles
        assert max(len(c) for c in chunks) == size

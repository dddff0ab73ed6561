import math

import numpy as np
import pytest

from graphent import ResourceCapError, ValidationError, statevector, validation
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


def test_small_cap_splits_batches_without_moving_a_result(monkeypatch):
    # under a cap of 4 qubits the 4-vertex graphs run one angle per batch
    allocations = []
    init_zero = validation.init_zero

    def recording(n, max_qubits, rows=None):
        allocations.append((n, rows))
        return init_zero(n, max_qubits, rows)

    monkeypatch.setattr(validation, "init_zero", recording)
    capped = run_validation(max_n=4, trials=8, seed=0, max_qubits=4)
    batches = [(n, rows) for n, rows in allocations if rows is not None]
    assert all(rows << n <= 1 << 4 for n, rows in batches)
    assert (4, 1) in batches
    allocations.clear()
    assert run_validation(max_n=4, trials=8, seed=0) == capped
    assert (4, 25) in allocations and (4, 12) in allocations


def test_circuit_and_reference_run_one_batch_per_graph(monkeypatch):
    # each graph's 5 overlap angles run as a circuit batch and a reference batch;
    # the edge-order property draws an order per angle and keeps one state per angle
    allocations = []
    init_zero = validation.init_zero

    def recording(n, max_qubits, rows=None):
        allocations.append((n, rows))
        return init_zero(n, max_qubits, rows)

    monkeypatch.setattr(validation, "init_zero", recording)
    rng = np.random.default_rng(0)
    graphs = [random_graph(rng, 2, 4) for _ in range(8)]  # run_validation's draw for seed 0
    sizes = [g.n_vertices for g in graphs]
    singles = [(g.n_vertices, None) for g in graphs if g.edges for _ in range(5)]
    assert sizes.count(4) and singles

    default = run_validation(max_n=4, trials=8, seed=0)
    assert sorted(a for a in allocations if a[1] == 5) == sorted((n, 5) for n in sizes for _ in range(2))
    assert (4, 5) in allocations
    assert [a for a in allocations if a[1] is None] == singles

    allocations.clear()
    assert run_validation(max_n=4, trials=8, seed=0, max_qubits=4) == default
    assert (4, 5) not in allocations
    # 25 closed-form, 12 symmetry, 5 circuit and 5 reference rows per 4-vertex graph
    assert allocations.count((4, 1)) == (25 + 12 + 2 * 5) * sizes.count(4)
    assert [a for a in allocations if a[1] is None] == singles


def test_chunks_fit_the_cap_and_keep_the_order():
    angles = list(range(25))
    for n, cap, size in [(6, 24, 25), (6, 10, 16), (6, 6, 1), (3, 5, 4)]:
        chunks = validation._chunks(angles, n, cap)
        assert [a for c in chunks for a in c] == angles
        assert max(len(c) for c in chunks) == size

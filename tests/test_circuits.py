import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphent import (
    Gate,
    ValidationError,
    circuit_text,
    complete,
    synthesize_graph_circuit,
    valencia,
    valencia_calibration,
)
from graphent.circuits import apply_circuit, choose_orientation, gate_text, measurement_prelude, synthesize_edge
from graphent.statevector import apply_gate, evolve_edges, init_zero, overlap_magnitude, pauli_means
from graphent.validation import random_graph

from conftest import NON_FINITE_ANGLES, random_state


def run_fragment(state, gates):
    for g in gates:
        apply_gate(state, g)
    return state


class TestCircuitType:
    """A circuit is a tuple of gates; each gate checks its own form, and
    ``apply_gate`` checks it against the register it runs on."""

    @pytest.mark.parametrize("angle", NON_FINITE_ANGLES)
    @pytest.mark.parametrize("gate", [Gate.p, Gate.rx, Gate.ry])
    def test_non_finite_angle_rejected(self, gate, angle):
        with pytest.raises(ValidationError, match="non-finite angle"):
            gate(0, angle)

    @pytest.mark.parametrize(
        "kind,control,message", [("cx", None, "cx requires a control qubit"), ("h", 1, "h takes no control qubit")]
    )
    def test_control_exactly_for_cx(self, kind, control, message):
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            Gate(kind, 0, control=control)

    @pytest.mark.parametrize(
        "build", [lambda: Gate.h(-1), lambda: Gate.p(-1, 0.3), lambda: Gate.cx(-1, 0), lambda: Gate.cx(0, -1)]
    )
    def test_negative_qubit_index_message(self, build):
        # the count kind's message, which measurement_prelude gives too
        with pytest.raises(ValidationError, match="^qubit index must be non-negative, got -1$"):
            build()

    @pytest.mark.parametrize("q", [np.array(1), np.int64(1), np.int8(1)], ids=["0d-array", "int64", "int8"])
    def test_numpy_qubit_is_stored_as_its_int(self, q):
        # a 0-d array was stored as given, so the gate did not hash
        for gate, plain in ((Gate.h(q), Gate.h(1)), (Gate.cx(q, 0), Gate.cx(1, 0)), (Gate.cx(0, q), Gate.cx(0, 1))):
            assert gate == plain
            assert hash(gate) == hash(plain)
            assert repr(gate) == repr(plain)


class TestOrientation:
    def test_table_prefers_lower_gate_error(self):
        cal = valencia_calibration()
        assert choose_orientation((0, 1), cal) == (1, 0)
        assert choose_orientation((3, 4), cal) == (3, 4)

    def test_without_calibration_smaller_index(self):
        assert choose_orientation((2, 4)) == (2, 4)

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(ValidationError, match="^vertex must be an integer, got 1.5$"):
            choose_orientation((0, 1.5))

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, None])
    def test_edge_not_a_pair_rejected(self, edge):
        with pytest.raises(ValidationError, match=rf"^edge {re.escape(repr(edge))} is not a pair of vertices$"):
            choose_orientation(edge)

    def test_numpy_integer_endpoints_accepted(self):
        assert choose_orientation((np.int64(4), np.int32(2))) == (2, 4)

    def test_order_of_endpoints_irrelevant(self):
        cal = valencia_calibration()
        assert choose_orientation((1, 0), cal) == choose_orientation((0, 1), cal)

    def test_missing_calibration_endpoint(self):
        cal = valencia_calibration()
        with pytest.raises(ValidationError, match=r"^edge \(0, 7\) out of range for 5 vertices$"):
            choose_orientation((0, 7), cal)

    @pytest.mark.parametrize(
        "edge,message", [((1, 1), "self-loop at vertex 1"), ((-1, 2), r"negative vertex in edge \(-1, 2\)")]
    )
    def test_edge_that_is_no_coupling_rejected(self, edge, message):
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            choose_orientation(edge)

    def test_coincident_pair_rejected(self):
        with pytest.raises(ValidationError, match="cx control and target coincide"):
            synthesize_edge(1, 1, 0.7)


class TestEdgeSynthesis:
    def test_block_structure(self):
        gates = synthesize_edge(1, 0, 0.9)
        assert [g.kind for g in gates] == ["cx", "h", "p", "h", "cx"]
        assert gates[0] == Gate.cx(1, 0)
        assert gates[2] == Gate.p(1, 0.9)
        assert gates[4] == Gate.cx(1, 0)

    def test_phi_zero_acts_as_identity(self):
        s = random_state(2, seed=3)
        before = s.copy()
        run_fragment(s, synthesize_edge(0, 1, 0.0))
        assert overlap_magnitude(s, before) > 1 - 1e-12

    @pytest.mark.parametrize("phi", [1.3, -0.4, 2 * math.pi / 3])
    @pytest.mark.parametrize("rotation", [0, 1])
    def test_fragment_equals_dense_edge_unitary(self, phi, rotation):
        for seed in range(5):
            s = random_state(2, seed=seed)
            reference = s.copy()
            run_fragment(s, synthesize_edge(rotation, 1 - rotation, phi))
            evolve_edges(reference, [(0, 1)], phi)
            assert overlap_magnitude(s, reference) > 1 - 1e-12

    def test_fragment_on_zero_state_at_1_3(self):
        s = run_fragment(init_zero(2), synthesize_edge(0, 1, 1.3))
        reference = evolve_edges(init_zero(2), [(0, 1)], 1.3)
        assert overlap_magnitude(s, reference) > 1 - 1e-12

    def test_both_orientations_agree_up_to_phase(self, rng):
        for trial in range(10):
            phi = rng.uniform(0, 2 * math.pi)
            a = random_state(3, seed=trial)
            b = a.copy()
            run_fragment(a, synthesize_edge(0, 2, phi))
            run_fragment(b, synthesize_edge(2, 0, phi))
            assert overlap_magnitude(a, b) > 1 - 1e-12

    def test_random_edges_in_four_qubit_systems(self, rng):
        for trial in range(20):
            i, j = rng.choice(4, size=2, replace=False)
            phi = rng.uniform(0, 2 * math.pi)
            s = random_state(4, seed=300 + trial)
            reference = s.copy()
            run_fragment(s, synthesize_edge(int(i), int(j), phi))
            evolve_edges(reference, [(int(i), int(j))], phi)
            assert overlap_magnitude(s, reference) > 1 - 1e-12


class TestGraphSynthesis:
    def test_valencia_block_count(self):
        c = synthesize_graph_circuit(valencia(), 0.4)
        assert len(c) == 20

    def test_complete_5_block_count(self):
        c = synthesize_graph_circuit(complete(5), 0.4)
        assert len(c) == 50
        assert sum(g.kind == "p" for g in c) == 10

    def test_empty_graph_empty_circuit(self):
        from graphent import Graph

        assert synthesize_graph_circuit(Graph(3, ()), 0.4) == ()

    @pytest.mark.parametrize("graph", [valencia(), complete(5)])
    def test_matches_dense_evolution(self, graph):
        for phi in np.linspace(0, 2 * math.pi, 9):
            circuit_state = apply_circuit(
                init_zero(graph.n_vertices), synthesize_graph_circuit(graph, phi)
            )
            dense_state = evolve_edges(init_zero(graph.n_vertices), graph.edges, phi)
            assert overlap_magnitude(circuit_state, dense_state) > 1 - 1e-12

    def test_calibrated_valencia_first_block(self):
        c = synthesize_graph_circuit(valencia(), 0.5, valencia_calibration())
        assert c[0] == Gate.cx(1, 0)
        assert c[1] == Gate.h(1)
        assert c[2] == Gate.p(1, 0.5)


class TestRowAngleCircuits:
    def test_batched_circuit_rows_equal_single_circuits(self, rng):
        # one circuit whose p gates carry one angle per row, against one circuit per angle
        for _ in range(60):
            g = random_graph(rng, 2, 6)
            phis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 5)
            batch = apply_circuit(init_zero(g.n_vertices, rows=5), synthesize_graph_circuit(g, phis))
            singles = [apply_circuit(init_zero(g.n_vertices), synthesize_graph_circuit(g, phi)) for phi in phis]
            assert batch.amps.tobytes() == np.stack([s.amps for s in singles]).tobytes()


class TestPreludes:
    def test_z_is_empty(self):
        assert measurement_prelude("z", 3) == ()

    def test_y_prelude_on_plus_i(self):
        s = apply_gate(init_zero(1), Gate.rx(0, -math.pi / 2))
        run_fragment(s, measurement_prelude("y", 0))
        assert abs(pauli_means(s, 0)[2] - 1.0) < 1e-12

    def test_x_prelude_on_plus(self):
        s = apply_gate(init_zero(1), Gate.h(0))
        run_fragment(s, measurement_prelude("x", 0))
        assert abs(pauli_means(s, 0)[2] - 1.0) < 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_random_states_sign_included(self, axis):
        for seed in range(100):
            s = random_state(1, seed=seed)
            target = pauli_means(s, 0)["xyz".index(axis)]
            run_fragment(s, measurement_prelude(axis, 0))
            assert abs(pauli_means(s, 0)[2] - target) < 1e-12

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            measurement_prelude("w", 0)

    @pytest.mark.parametrize("l", ["a", 1.0, None])
    def test_non_integer_qubit_rejected(self, l):
        with pytest.raises(ValidationError, match="qubit index must be an integer"):
            measurement_prelude("x", l)


class TestTextExport:
    def test_gate_lines(self):
        c = (
            Gate.h(0),
            Gate.p(1, math.pi / 4),
            Gate.rx(0, 0.5),
            Gate.ry(1, -0.5),
            Gate.cx(1, 0),
        )
        assert circuit_text(c).splitlines() == [
            "h q[0]",
            "p(0.7853981633974483) q[1]",
            "rx(0.5) q[0]",
            "ry(-0.5) q[1]",
            "cx q[1], q[0]",
        ]

    def test_empty(self):
        assert circuit_text(()) == ""

    def test_row_angles_have_no_text_form(self):
        with pytest.raises(ValidationError, match="one angle per row has no text form"):
            gate_text(Gate.p(0, [0.1, 0.2]))
        with pytest.raises(ValidationError, match="one angle per row has no text form"):
            circuit_text(synthesize_graph_circuit(valencia(), np.array([0.1, 0.2])))

    def test_calibrated_valencia_listing_head(self):
        c = synthesize_graph_circuit(valencia(), math.pi / 4, valencia_calibration())
        lines = circuit_text(c).splitlines()
        assert lines[:5] == [
            "cx q[1], q[0]",
            "h q[1]",
            "p(0.7853981633974483) q[1]",
            "h q[1]",
            "cx q[1], q[0]",
        ]


class TestApplyCircuit:
    def test_too_small_state(self):
        # the gates before the out-of-range one have run
        s = init_zero(2)
        with pytest.raises(ValidationError):
            apply_circuit(s, (Gate.h(0), Gate.h(2)))
        assert_allclose(np.abs(s.amps) ** 2, [0.5, 0.5, 0, 0], atol=1e-12)

    def test_runs_in_order(self):
        s = apply_circuit(init_zero(2), (Gate.h(0), Gate.cx(0, 1)))
        assert_allclose(np.abs(s.amps) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

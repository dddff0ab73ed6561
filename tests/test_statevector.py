import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from graphent import ConsistencyError, Gate, ResourceCapError, ValidationError, statevector, valencia
from graphent.circuits import GATE_KINDS
from graphent.entanglement import bloch_vector
from graphent.statevector import StateVector, _apply_two_qubit_dense, apply_gate, evolve_edges, init_zero, overlap_magnitude, pauli_means
from graphent.validation import random_graph

from conftest import (
    NON_FINITE_ANGLES,
    edge_unitary_oracle,
    floats_at_drift_limit,
    graph_unitary_oracle,
    kron_chain,
    pauli_on,
    random_state,
)


class TestInitZero:
    @pytest.mark.parametrize("n,expected", [(1, [1, 0]), (2, [1, 0, 0, 0])])
    def test_small(self, n, expected):
        assert_allclose(init_zero(n).amps, expected)

    def test_five_qubits(self):
        s = init_zero(5)
        assert len(s.amps) == 32
        assert s.amps[0] == 1.0
        assert np.count_nonzero(s.amps) == 1

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            init_zero(7, max_qubits=6)
        init_zero(6, max_qubits=6)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValidationError):
            init_zero(0)

    def test_non_integer_sizes_rejected(self):
        with pytest.raises(ValidationError, match="qubit count must be an integer, got 2.0"):
            init_zero(2.0)
        with pytest.raises(ValidationError, match="row count must be an integer, got 2.0"):
            init_zero(2, rows=2.0)
        assert init_zero(np.int64(2), rows=np.int64(3)).amps.shape == (3, 4)

    def test_rows_of_zero_states(self):
        s = init_zero(3, rows=4)
        assert s.rows == 4 and init_zero(3).rows is None
        expected = np.zeros((4, 8))
        expected[:, 0] = 1.0
        assert np.array_equal(s.amps, expected)

    def test_batch_holds_at_most_the_cap_in_amplitudes(self):
        # 5 rows of 16 amplitudes exceed 2**6, 4 rows fill it
        with pytest.raises(ResourceCapError, match="5 rows of 4 qubits exceed the cap of 2\\*\\*6 amplitudes"):
            init_zero(4, 6, rows=5)
        assert init_zero(4, 6, rows=4).amps.shape == (4, 16)
        with pytest.raises(ResourceCapError, match="7 qubits exceeds the cap of 6"):
            init_zero(7, 6, rows=1)

    def test_cap_check_needs_no_power_of_the_cap(self):
        # a cap far above any allocation is compared by bit length, not by 2**cap
        assert init_zero(2, 10**12, rows=3).amps.shape == (3, 4)

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: init_zero(2, 10**30, rows=10**20), ResourceCapError,
             "a 67-bit integer rows of 2 qubits exceed the 2**58 amplitudes of the largest numpy array"),
            (lambda: init_zero(2, 10**5000, rows=10**5000), ResourceCapError,
             "a 16610-bit integer rows of 2 qubits exceed the 2**58 amplitudes of the largest numpy array"),
            (lambda: init_zero(59, 100), ResourceCapError, "59 qubits exceed the 2**58 amplitudes of the largest numpy array"),
            (lambda: StateVector(10**5000, np.ones(4, dtype=complex)), ValidationError,
             "amplitude array of shape (4,) does not match a 16610-bit integer qubits"),
        ],
        ids=["rows-past-int64", "rows-past-digit-limit", "qubits-past-numpy", "state-past-digit-limit"],
    )
    def test_size_past_a_raised_cap_is_refused_before_allocating(self, monkeypatch, call, error, message):
        # once the cap is raised, np.zeros refused these with a bare ValueError,
        # and 1 << n with an OverflowError
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(statevector.np, "zeros", no_allocation)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("rows", [0, -2])
    def test_non_positive_rows_rejected(self, rows):
        with pytest.raises(ValidationError, match="row count must be positive"):
            init_zero(2, rows=rows)


class TestStateVectorShape:
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 4), (0, 4), ()])
    def test_shape_must_match_the_qubit_count(self, shape):
        with pytest.raises(ValidationError, match="does not match"):
            StateVector(2, np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize(
        "amps,got",
        [([1, 0, 0, 0], "list"), (np.array([1, 0, 0, 0]), "int64 array"), (np.eye(1, 4, dtype=np.complex64)[0], "complex64 array")],
        ids=["list", "int64", "complex64"],
    )
    def test_amplitudes_must_be_a_complex128_array(self, amps, got):
        # the kernels write complex amplitudes in place: an int64 array failed
        # inside apply_gate with numpy's casting error, a list on its shape
        with pytest.raises(ValidationError, match=rf"^amplitudes must be a complex128 numpy array, got {got}$"):
            StateVector(2, amps)

    @pytest.mark.parametrize(
        "n,message",
        [(2.0, "must be an integer, got 2.0"), ("2", "must be an integer, got '2'"), (-1, "must be non-negative, got -1")],
    )
    def test_qubit_count_must_be_a_count(self, n, message):
        # 1 << n raised a bare TypeError or ValueError
        with pytest.raises(ValidationError, match=rf"^qubit count {message}$"):
            StateVector(n, np.zeros(4, dtype=complex))

    def test_strided_batch_rejected(self):
        # the kernels merge a batch's rows into reshape views, a copy for a strided array
        with pytest.raises(ValidationError, match="batch amplitude array is not C-contiguous"):
            StateVector(2, np.zeros((4, 3), dtype=complex).T)


class TestGateType:
    def test_cx_needs_distinct_qubits(self):
        with pytest.raises(ValidationError):
            Gate.cx(1, 1)

    def test_parametric_needs_angle(self):
        with pytest.raises(ValidationError):
            Gate("rx", 0)

    def test_h_takes_no_angle(self):
        with pytest.raises(ValidationError):
            Gate("h", 0, angle=0.3)

    def test_unknown_kind(self):
        for kind in ("t", "x", "y", "z"):
            with pytest.raises(ValidationError, match="unknown gate kind"):
                Gate(kind, 0)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_pauli_takes_no_angle_or_control(self, axis):
        # x/y/z are no gate kinds: the kind check comes first, whatever else is given
        with pytest.raises(ValidationError, match="unknown gate kind"):
            Gate(axis, 0, angle=0.3)
        with pytest.raises(ValidationError, match="unknown gate kind"):
            Gate(axis, 0, control=1)

    @pytest.mark.parametrize(
        "build",
        [lambda: Gate.h(1.5), lambda: Gate.h(None), lambda: Gate.p(2.0, 0.3), lambda: Gate.cx(0, 1.0), lambda: Gate.cx("0", 1)],
    )
    def test_non_integer_qubit_index_rejected(self, build):
        # an input error (exit 2) when the gate is built, not a TypeError when it runs
        with pytest.raises(ValidationError, match="qubit index must be an integer"):
            build()

    def test_numpy_integer_qubit_index_accepted(self):
        s = apply_gate(init_zero(2), Gate.cx(np.int64(0), np.int64(1)))
        assert np.array_equal(s.amps, init_zero(2).amps)

    @pytest.mark.parametrize("angle", [[[0.1]], np.zeros((2, 2)), ((0.1, 0.2),)])
    def test_angle_array_of_two_or_more_dimensions_rejected(self, angle):
        with pytest.raises(ValidationError, match="p takes an angle or one per row, not a 2-D array"):
            Gate.p(0, angle)

    @pytest.mark.parametrize("angle", NON_FINITE_ANGLES)
    @pytest.mark.parametrize("kind", ["p", "rx", "ry"])
    def test_non_finite_angle_rejected(self, kind, angle):
        # an input error (exit 2), not a math domain error or a drifted norm
        with pytest.raises(ValidationError, match="non-finite angle"):
            getattr(Gate, kind)(0, angle)
        with pytest.raises(ValidationError, match="non-finite angle"):
            Gate(kind, 0, angle=angle)


class TestApplyGate:
    def test_h_on_zero(self):
        s = apply_gate(init_zero(1), Gate.h(0))
        assert_allclose(s.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_p_phase_on_one(self):
        s = init_zero(1)
        s.amps[:] = [0.0, 1.0]
        apply_gate(s, Gate.p(0, 0.7))
        assert_allclose(s.amps, [0.0, np.exp(0.7j)], atol=1e-15)

    def test_p_leaves_zero_alone(self):
        s = apply_gate(init_zero(1), Gate.p(0, 2.1))
        assert_allclose(s.amps, [1.0, 0.0])

    def test_cx_flips_target_when_control_set(self):
        # |01> in ket order q1q0: qubit0=1, qubit1=0 is basis index 1
        s = init_zero(2)
        s.amps[:] = [0, 1, 0, 0]
        apply_gate(s, Gate.cx(0, 1))
        assert_allclose(s.amps, [0, 0, 0, 1])

    def test_cx_identity_when_control_clear(self):
        s = apply_gate(init_zero(2), Gate.cx(0, 1))
        assert_allclose(s.amps, [1, 0, 0, 0])

    @pytest.mark.parametrize("kind,angle", [("rx", 0.9), ("ry", -1.3), ("p", 2.2), ("h", None)])
    @pytest.mark.parametrize("n,q", [(1, 0), (3, 1), (4, 3)])
    def test_single_qubit_gates_match_matrix_oracle(self, kind, angle, n, q):
        matrices = {
            "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
            "p": np.array([[1, 0], [0, np.exp(1j * (angle or 0))]]),
            "rx": np.array(
                [
                    [np.cos((angle or 0) / 2), -1j * np.sin((angle or 0) / 2)],
                    [-1j * np.sin((angle or 0) / 2), np.cos((angle or 0) / 2)],
                ]
            ),
            "ry": np.array(
                [
                    [np.cos((angle or 0) / 2), -np.sin((angle or 0) / 2)],
                    [np.sin((angle or 0) / 2), np.cos((angle or 0) / 2)],
                ]
            ),
        }
        ops = [np.eye(2)] * n
        ops[q] = matrices[kind]
        full = kron_chain(ops)
        s = random_state(n, seed=71)
        expected = full @ s.amps
        gate = Gate(kind, q) if angle is None else Gate(kind, q, angle=angle)
        apply_gate(s, gate)
        assert_allclose(s.amps, expected, atol=1e-14)

    def test_cx_matches_matrix_oracle(self):
        cx = np.zeros((4, 4))
        for b in range(4):
            out = b ^ 2 if b & 1 else b  # control q0, target q1
            cx[out, b] = 1.0
        s = random_state(2, seed=5)
        expected = cx @ s.amps
        apply_gate(s, Gate.cx(0, 1))
        assert_allclose(s.amps, expected, atol=1e-15)

    @pytest.mark.parametrize(
        "n,c,t", [(n, c, t) for n in range(2, 6) for c in range(n) for t in range(n) if c != t]
    )
    def test_cx_is_the_controlled_bit_flip_permutation(self, n, c, t):
        s = random_state(n, seed=100 * n + 10 * c + t)
        expected = np.empty_like(s.amps)
        for b in range(1 << n):
            expected[b ^ (1 << t) if (b >> c) & 1 else b] = s.amps[b]
        apply_gate(s, Gate.cx(c, t))
        assert np.array_equal(s.amps, expected)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            apply_gate(init_zero(2), Gate.h(2))
        with pytest.raises(ValidationError):
            apply_gate(init_zero(2), Gate.cx(2, 0))

    @pytest.mark.parametrize("gate", [Gate.h(2), Gate.cx(2, 0), Gate.cx(0, 2)], ids=["target", "control", "cx-target"])
    def test_index_out_of_range_message(self, gate):
        with pytest.raises(ValidationError, match=r"^qubit index 2 out of range \[0, 2\)$"):
            apply_gate(init_zero(2), gate)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5))
    def test_norm_preserved_by_random_sequences(self, seed, n):
        rng = np.random.default_rng(seed)
        s = init_zero(n)
        for _ in range(20):
            kind = rng.choice(["h", "p", "rx", "ry", "cx"])
            q = int(rng.integers(n))
            if kind == "cx" and n > 1:
                c = int(rng.integers(n - 1))
                c = c if c != q else n - 1
                apply_gate(s, Gate.cx(c, q))
            elif kind == "h":
                apply_gate(s, Gate.h(q))
            elif kind != "cx":
                apply_gate(s, Gate(kind, q, angle=float(rng.uniform(-6, 6))))
        assert abs(np.vdot(s.amps, s.amps).real - 1.0) < 1e-12

    def test_norm_drift_detected(self):
        s = init_zero(1)
        s.amps[:] = [2.0, 0.0]
        with pytest.raises(ConsistencyError):
            apply_gate(s, Gate.h(0))

    def test_nan_norm_detected(self):
        s = init_zero(2)
        s.amps[0] = complex(math.nan, 0.0)
        with pytest.raises(ConsistencyError):
            apply_gate(s, Gate.h(0))


    def test_drift_exactly_at_the_limit_passes(self, monkeypatch):
        # a limit that a float near 1 can drift by exactly, which 1e-9 is not
        monkeypatch.setattr(statevector, "NORM_DRIFT_LIMIT", 2.0**-30)
        for norm_sq, out in ((1 + 2.0**-30, 2.0), (1 - 2.0**-30, 0.0)):
            statevector._check_norm(norm_sq)
            with pytest.raises(ConsistencyError, match="^state norm drifted by "):
                statevector._check_norm(math.nextafter(norm_sq, out))

    def test_drift_either_side_of_the_limit(self):
        for within, past in floats_at_drift_limit(statevector.NORM_DRIFT_LIMIT):
            statevector._check_norm(within)
            with pytest.raises(ConsistencyError, match="^state norm drifted by "):
                statevector._check_norm(past)


class TestApplyPauli:
    """A Pauli is applied as a pi rotation: rx(pi) = -iX, ry(pi) = -iY, p(pi) = Z."""

    @pytest.mark.parametrize(
        "axis,gate,phase",
        [
            ("x", Gate.rx(1, math.pi), -1j),
            ("y", Gate.ry(1, math.pi), -1j),
            ("z", Gate.p(1, math.pi), 1.0),
        ],
        ids=["x", "y", "z"],
    )
    def test_matches_matrix_oracle(self, axis, gate, phase):
        s = random_state(3, seed=9)
        expected = phase * (pauli_on(3, 1, axis) @ s.amps)
        apply_gate(s, gate)
        assert_allclose(s.amps, expected, atol=1e-15)

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            Gate("w", 0)


class TestEvolveEdge:
    def test_two_qubit_expansion(self):
        phi = 1.3
        s = evolve_edges(init_zero(2), [(0, 1)], phi)
        expected = np.zeros(4, dtype=complex)
        expected[0] = math.cos(phi / 2)
        expected[3] = -1j * math.sin(phi / 2)
        assert_allclose(s.amps, expected, atol=1e-15)

    def test_phi_zero_is_identity(self):
        s = random_state(3, seed=2)
        before = s.amps.copy()
        evolve_edges(s, [(0, 2)], 0.0)
        assert_allclose(s.amps, before)

    def test_phi_pi_gives_minus_i_one_one(self):
        s = evolve_edges(init_zero(2), [(0, 1)], math.pi)
        assert_allclose(s.amps, [0, 0, 0, -1j], atol=1e-15)

    @pytest.mark.parametrize("n,i,j", [(2, 0, 1), (3, 2, 0), (4, 1, 3)])
    @pytest.mark.parametrize("phi", [0.4, -1.7, 2.9])
    def test_matches_expm_oracle(self, n, i, j, phi):
        s = random_state(n, seed=n * 100 + i)
        expected = edge_unitary_oracle(n, i, j, phi) @ s.amps
        evolve_edges(s, [(i, j)], phi)
        assert_allclose(s.amps, expected, atol=1e-13)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError):
            evolve_edges(init_zero(2), [(1, 1)], 0.5)

    def test_one_shot_iterable_of_edges(self):
        # the check loop once consumed an iterator, so no edge was applied
        from_iterator = evolve_edges(init_zero(3), iter([(0, 1), (1, 2)]), 0.9)
        from_list = evolve_edges(init_zero(3), [(0, 1), (1, 2)], 0.9)
        assert from_iterator.amps.tobytes() == from_list.amps.tobytes()
        assert bloch_vector(evolve_edges(init_zero(2), iter([(0, 1)]), 1.0), 0).mz == pytest.approx(math.cos(1.0))

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of vertices"),
            ([5], "edge 5 is not a pair of vertices"),
            ([(0, 1), (2,)], r"edge \(2,\) is not a pair of vertices"),
            (None, "edges None is not a collection of vertex pairs"),
            (5, "edges 5 is not a collection of vertex pairs"),
        ],
        ids=["triple", "int", "single", "none", "int-edges"],
    )
    def test_edges_that_are_not_pairs_rejected(self, edges, message):
        s = init_zero(3)
        with pytest.raises(ValidationError, match=rf"^{message}$"):
            evolve_edges(s, edges, 0.5)
        assert s.amps.tobytes() == init_zero(3).amps.tobytes()  # checked before any edge runs

    @pytest.mark.parametrize("phi", NON_FINITE_ANGLES)
    def test_unrepresentable_angle_rejected(self, phi):
        with pytest.raises(ValidationError, match="non-finite angle"):
            evolve_edges(init_zero(2), [(0, 1)], phi)

    def test_non_integer_qubit_rejected(self):
        with pytest.raises(ValidationError, match="^vertex must be an integer, got 0.5$"):
            evolve_edges(init_zero(2), [(0.5, 1)], 0.1)

    @pytest.mark.parametrize("edge, q", [((0, 2), 2), ((-1, 1), -1)])
    def test_qubit_out_of_range_message(self, edge, q):
        # the message names the pair that holds q, the qubit outside [0, 2)
        assert q in edge
        with pytest.raises(ValidationError, match=rf"^edge \({edge[0]}, {edge[1]}\) out of range for 2 vertices$"):
            evolve_edges(init_zero(2), [edge], 0.1)

    def test_edge_given_as_a_one_shot_iterator(self):
        # each edge was unpacked twice, and the second read of an iterator found it empty
        from_iterator = evolve_edges(init_zero(2), [iter((0, 1))], 1.0)
        assert from_iterator.amps.tobytes() == evolve_edges(init_zero(2), [(0, 1)], 1.0).amps.tobytes()

    def test_non_number_angle_on_a_single_state_rejected(self):
        with pytest.raises(ValidationError, match=r"angle must be a real number, got \[0.1\]"):
            evolve_edges(init_zero(2), [(0, 1)], [0.1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dense_kernel_bit_order_matches_kron(self, n):
        # basis index m = bit(qa) + 2*bit(qb); a u without swap symmetry tells qa from qb
        rng = np.random.default_rng(n)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert not np.allclose(swap @ u @ swap, u)
        units = np.eye(2)
        for qa in range(n):
            for qb in range(n):
                if qa == qb:
                    continue
                full = np.zeros((1 << n, 1 << n), dtype=complex)
                for m in range(4):
                    for k in range(4):
                        ops = [np.eye(2)] * n
                        ops[qa] = np.outer(units[m & 1], units[k & 1])
                        ops[qb] = np.outer(units[m >> 1], units[k >> 1])
                        full += u[m, k] * kron_chain(ops)
                s = random_state(n, seed=10 * qa + qb)
                expected = full @ s.amps
                _apply_two_qubit_dense(s.amps, qa, qb, u[None])  # a single state takes a stack of one
                assert_allclose(s.amps, expected, rtol=0, atol=1e-13, err_msg=f"qa={qa} qb={qb}")


class TestEvolveGraph:
    def test_empty_graph_unchanged(self):
        s = random_state(3, seed=4)
        before = s.amps.copy()
        evolve_edges(s, (), 1.0)
        assert_allclose(s.amps, before)

    def test_matches_expm_oracle_on_valencia(self):
        g = valencia()
        s = init_zero(5)
        evolve_edges(s, g.edges, 0.8)
        expected = graph_unitary_oracle(g, 0.8) @ init_zero(5).amps
        assert_allclose(s.amps, expected, atol=1e-13)

    def test_two_pi_is_global_phase(self):
        g = valencia()
        s = evolve_edges(init_zero(5), g.edges, 2 * math.pi)
        assert overlap_magnitude(s, init_zero(5)) > 1 - 1e-12
        assert_allclose(pauli_means(s, 1), pauli_means(init_zero(5), 1), atol=1e-12)

    def test_edge_order_independent(self, rng):
        for trial in range(10):
            g = random_graph(rng, 2, 5)
            phi = rng.uniform(-6, 6)
            reference = evolve_edges(init_zero(g.n_vertices), g.edges, phi)
            shuffled = list(g.edges)
            rng.shuffle(shuffled)
            other = init_zero(g.n_vertices)
            for i, j in shuffled:
                evolve_edges(other, [(int(i), int(j))], phi)
            assert overlap_magnitude(reference, other) > 1 - 1e-12

    @pytest.mark.parametrize("phi, rows", [(0.8, None), (np.linspace(-7.0, 7.0, 9), 9)])
    def test_bits_equal_one_edge_call_per_edge(self, phi, rows):
        # the graph call builds the unitary once; each edge still gets a single edge call's bits
        g = valencia()
        per_edge = init_zero(5, rows=rows)
        for i, j in g.edges:
            evolve_edges(per_edge, [(i, j)], phi)
        assert evolve_edges(init_zero(5, rows=rows), g.edges, phi).amps.tobytes() == per_edge.amps.tobytes()


class TestExpectations:
    def test_zero_state(self):
        mx, my, mz = pauli_means(init_zero(3), 1)
        assert mz == 1.0
        assert mx == 0.0
        assert my == 0.0

    def test_transverse_vanish_on_valencia(self):
        s = evolve_edges(init_zero(5), valencia().edges, 0.7)
        for l in range(5):
            mx, my, _ = pauli_means(s, l)
            assert abs(mx) <= 1e-12
            assert abs(my) <= 1e-12

    @pytest.mark.parametrize("phi", np.linspace(0.0, 2 * math.pi, 9))
    def test_valencia_hub_z_is_cos_cubed(self, phi):
        s = evolve_edges(init_zero(5), valencia().edges, phi)
        assert abs(pauli_means(s, 1)[2] - math.cos(phi) ** 3) < 1e-12

    def test_signed_longitudinal_closed_form_on_random_graphs(self, rng):
        for trial in range(20):
            g = random_graph(rng, 2, 6)
            for phi in rng.uniform(-2 * math.pi, 2 * math.pi, 5):
                s = evolve_edges(init_zero(g.n_vertices), g.edges, phi)
                for l in range(g.n_vertices):
                    expected = math.cos(phi) ** g.degree(l)
                    assert abs(pauli_means(s, l)[2] - expected) < 1e-10

    def test_plus_and_plus_i_states(self):
        s = apply_gate(init_zero(1), Gate.h(0))
        assert abs(pauli_means(s, 0)[0] - 1.0) < 1e-12
        s = apply_gate(init_zero(1), Gate.rx(0, -math.pi / 2))
        assert abs(pauli_means(s, 0)[1] - 1.0) < 1e-12

    def test_sign_of_coupling_irrelevant(self, rng):
        for trial in range(5):
            g = random_graph(rng, 2, 5)
            phi = rng.uniform(0, 6)
            plus = evolve_edges(init_zero(g.n_vertices), g.edges, phi)
            minus = evolve_edges(init_zero(g.n_vertices), g.edges, -phi)
            for l in range(g.n_vertices):
                for m_plus, m_minus in zip(pauli_means(plus, l), pauli_means(minus, l)):
                    assert abs(abs(m_plus) - abs(m_minus)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_kron_oracle_on_random_states(self, n):
        for seed in range(5):
            s = random_state(n, seed=100 * n + seed)
            for l in range(n):
                expected = [np.vdot(s.amps, pauli_on(n, l, a) @ s.amps).real for a in "xyz"]
                assert_allclose(pauli_means(s, l), expected, rtol=0, atol=1e-12)

    def test_drifted_norm_raises(self):
        s = init_zero(3)
        s.amps[0] = 1.0 + 1e-6
        with pytest.raises(ConsistencyError, match="norm drifted"):
            pauli_means(s, 1)

    def test_nan_amplitude_raises(self):
        s = random_state(3, seed=4)
        s.amps[5] = complex(math.nan, 0.0)
        with pytest.raises(ConsistencyError, match="norm drifted"):
            pauli_means(s, 0)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            pauli_means(init_zero(2), 2)

    def test_qubit_out_of_range_message(self):
        with pytest.raises(ValidationError, match=r"^qubit index 2 out of range \[0, 2\)$"):
            pauli_means(init_zero(2), 2)

    def test_non_integer_qubit_rejected(self):
        with pytest.raises(ValidationError, match="qubit index must be an integer, got 0.5"):
            pauli_means(init_zero(2), 0.5)


class TestOverlap:
    def test_identical(self):
        s = random_state(3, seed=8)
        assert overlap_magnitude(s, s) == 1.0

    def test_global_phase_invariant(self):
        s = random_state(3, seed=8)
        t = StateVector(3, s.amps * np.exp(0.73j))
        assert abs(overlap_magnitude(s, t) - 1.0) < 1e-12

    def test_orthogonal(self):
        a = init_zero(1)
        b = init_zero(1)
        b.amps[:] = [0.0, 1.0]
        assert overlap_magnitude(a, b) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            overlap_magnitude(init_zero(1), init_zero(2))

    def test_returns_a_float(self):
        assert type(overlap_magnitude(random_state(3, seed=8), random_state(3, seed=9))) is float

    @pytest.mark.parametrize("rows", [1, 3])
    def test_batches_rejected(self, rows):
        a, b = init_zero(2, rows=rows), init_zero(2, rows=rows)
        with pytest.raises(ValidationError, match="two single states of one size"):
            overlap_magnitude(a, b)

    def test_nan_inner_product_stays_nan(self):
        # min(1.0, nan) would return 1.0, a perfect overlap
        s = StateVector(2, np.array([math.nan, 0.0, 0.0, 0.0], dtype=complex))
        assert math.isnan(overlap_magnitude(init_zero(2), s))
        assert math.isnan(overlap_magnitude(s, init_zero(2)))

    @pytest.mark.parametrize(
        "a,b,message",
        [
            ((2, 3), (2, 2), "a batch of 3 rows of 2 qubits vs a batch of 2 rows of 2"),
            ((1, 2), (2, None), "a batch of 2 rows of 1 qubits vs a single state of 2"),
            ((3, 2), (2, 2), "a batch of 2 rows of 3 qubits vs a batch of 2 rows of 2"),
            ((2, None), (2, 1), "a single state of 2 qubits vs a batch of 1 rows of 2"),
        ],
    )
    def test_shape_mismatch_rejected(self, a, b, message):
        with pytest.raises(ValidationError, match=message):
            overlap_magnitude(init_zero(a[0], rows=a[1]), init_zero(b[0], rows=b[1]))


def _random_rows(rng, n, rows):
    amps = rng.standard_normal((rows, 1 << n)) + 1j * rng.standard_normal((rows, 1 << n))
    amps /= np.linalg.norm(amps, axis=-1, keepdims=True)
    return StateVector(n, amps)


def _row_states(batch):
    return [StateVector(batch.n_qubits, row.copy()) for row in batch.amps]


def _assert_rows_equal_singles(batch, singles):
    # bytes, not values: -0.0 and 0.0 differ, and NaNs compare equal
    assert batch.amps.tobytes() == np.stack([s.amps for s in singles]).tobytes()


class TestBatchedRows:
    """Each row of a batch ends with the exact bits of its own single-state run."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), rows=st.integers(1, 8))
    def test_edge_kernel_rows_equal_single_runs(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        batch = _random_rows(rng, n, rows)
        singles = _row_states(batch)
        qa, qb = sorted(int(q) for q in rng.choice(n, 2, replace=False))
        for i, j in ((qa, qb), (qb, qa)):  # both pair orders of the dense kernel
            phis = rng.uniform(-8.0, 8.0, rows)
            evolve_edges(batch, [(i, j)], phis)
            for s, phi in zip(singles, phis):
                evolve_edges(s, [(i, j)], phi)
            _assert_rows_equal_singles(batch, singles)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rows=st.integers(1, 8))
    def test_every_gate_kind_rows_equal_single_runs(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        batch = _random_rows(rng, n, rows)
        singles = _row_states(batch)
        q = int(rng.integers(n))
        gates = [Gate.h(q), Gate.p(q, rng.uniform(-7, 7)), Gate.rx(q, rng.uniform(-7, 7)), Gate.ry(q, rng.uniform(-7, 7))]
        if n > 1:
            c, t = (int(x) for x in rng.choice(n, 2, replace=False))
            gates.append(Gate.cx(c, t))
        assert {g.kind for g in gates} == set(GATE_KINDS) or n == 1
        for gate in gates:
            apply_gate(batch, gate)
            for s in singles:
                apply_gate(s, gate)
            _assert_rows_equal_singles(batch, singles)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rows=st.integers(1, 8))
    def test_pauli_means_rows_equal_single_runs(self, seed, n, rows):
        batch = _random_rows(np.random.default_rng(seed), n, rows)
        singles = _row_states(batch)
        for l in range(n):
            means = pauli_means(batch, l)
            expected = np.array([pauli_means(s, l) for s in singles]).T
            assert all(m.shape == (rows,) for m in means)
            assert np.array(means).tobytes() == expected.tobytes()

    def test_graph_rows_equal_single_runs(self):
        g = valencia()
        phis = np.linspace(-7.0, 7.0, 9)
        batch = evolve_edges(init_zero(5, rows=9), g.edges, phis)
        _assert_rows_equal_singles(batch, [evolve_edges(init_zero(5), g.edges, phi) for phi in phis])

    def test_drift_in_one_row_fails(self):
        s = _random_rows(np.random.default_rng(1), 3, 4)
        s.amps[2] *= 1.0 + 1e-6
        with pytest.raises(ConsistencyError, match="norm drifted by 2.000e-06"):
            apply_gate(s, Gate.h(0))
        with pytest.raises(ConsistencyError, match="norm drifted"):
            evolve_edges(s, [(0, 1)], np.zeros(4))
        with pytest.raises(ConsistencyError, match="norm drifted"):
            pauli_means(s, 1)

    def test_nan_in_one_row_fails(self):
        s = _random_rows(np.random.default_rng(2), 3, 4)
        s.amps[3, 5] = complex(math.nan, 0.0)
        with pytest.raises(ConsistencyError, match="norm drifted by nan"):
            apply_gate(s, Gate.cx(0, 2))
        with pytest.raises(ConsistencyError, match="norm drifted"):
            evolve_edges(s, [(0, 1)], np.zeros(4))
        with pytest.raises(ConsistencyError, match="norm drifted"):
            pauli_means(s, 0)

    @pytest.mark.parametrize("phi", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], 0.5, [[0.1, 0.2, 0.3]]])
    def test_angle_count_must_match_the_rows(self, phi):
        with pytest.raises(ValidationError, match="angles for a batch of 3 rows"):
            evolve_edges(init_zero(2, rows=3), [(0, 1)], phi)
        with pytest.raises(ValidationError, match="angles for a batch of 3 rows"):
            evolve_edges(init_zero(5, rows=3), valencia().edges, phi)

    @pytest.mark.parametrize("phi", [[[0.1], 0.2, 0.3], [0.1, (0.2, 0.3), 0.4]])
    def test_ragged_angles_rejected(self, phi):
        # numpy makes no array of a ragged nesting, and raises a bare ValueError
        with pytest.raises(ValidationError, match=r"^angles for a batch of 3 rows are not one number per row: "):
            evolve_edges(init_zero(2, rows=3), [(0, 1)], phi)

    @pytest.mark.parametrize("phi", NON_FINITE_ANGLES)
    def test_non_finite_angle_in_one_row_rejected(self, phi):
        s = init_zero(2, rows=3)
        with pytest.raises(ValidationError, match="non-finite angle"):
            evolve_edges(s, [(0, 1)], [0.1, phi, 0.3])
        assert np.array_equal(s.amps, init_zero(2, rows=3).amps)  # rejected before any row moved

    def test_single_state_readers_reject_a_batch(self):
        batch, single = init_zero(2, rows=2), init_zero(2)
        with pytest.raises(ValidationError, match="batch of 2 rows"):
            overlap_magnitude(batch, single)
        with pytest.raises(ValidationError, match="batch of 2 rows"):
            overlap_magnitude(single, batch)
        with pytest.raises(ValidationError, match="batch of 2 rows"):
            bloch_vector(batch, 0)

    def test_empty_graph_leaves_a_batch_unchanged(self):
        s = evolve_edges(init_zero(3, rows=2), (), [0.4, 0.5])
        assert np.array_equal(s.amps, init_zero(3, rows=2).amps)


class TestRowAngles:
    """A ``p`` gate with one angle per row runs a batch at its rows' own angles."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rows=st.integers(1, 8))
    def test_row_phases_equal_single_runs_at_every_target(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        batch = _random_rows(rng, n, rows)
        singles = _row_states(batch)
        for q in range(n):
            # an h and a cx first, so the phase meets mixed amplitudes on both halves
            gates = [Gate.h(q)] + ([Gate.cx(q, (q + 1) % n)] if n > 1 else [])
            for gate in gates:
                apply_gate(batch, gate)
                for s in singles:
                    apply_gate(s, gate)
            phis = rng.uniform(-7.0, 7.0, rows)
            apply_gate(batch, Gate.p(q, phis))
            for s, phi in zip(singles, phis):
                apply_gate(s, Gate.p(q, phi))
            _assert_rows_equal_singles(batch, singles)

    def test_angles_are_stored_as_a_tuple_of_floats(self):
        gate = Gate.p(1, np.array([0.5, -1.25]))
        assert gate.angle == (0.5, -1.25) and all(type(a) is float for a in gate.angle)
        assert gate == Gate.p(1, [0.5, -1.25])

    @pytest.mark.parametrize("phis", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4]])
    def test_angle_count_must_match_the_rows(self, phis):
        s = init_zero(2, rows=3)
        with pytest.raises(ValidationError, match=f"{len(phis)} angles for a batch of 3 rows"):
            apply_gate(s, Gate.p(0, phis))
        assert np.array_equal(s.amps, init_zero(2, rows=3).amps)

    def test_single_state_rejects_row_angles(self):
        with pytest.raises(ValidationError, match="1 angles for a single state"):
            apply_gate(init_zero(2), Gate.p(0, [0.3]))

    @pytest.mark.parametrize("phi", NON_FINITE_ANGLES)
    def test_non_finite_angle_in_one_row_rejected(self, phi):
        # an input error (exit 2) before any row moves, not a drifted norm
        s = init_zero(2, rows=3)
        with pytest.raises(ValidationError, match="non-finite angle"):
            apply_gate(s, Gate.p(0, [0.1, phi, 0.3]))
        assert np.array_equal(s.amps, init_zero(2, rows=3).amps)

    @pytest.mark.parametrize("kind", ["rx", "ry"])
    def test_only_p_takes_row_angles(self, kind):
        with pytest.raises(ValidationError, match=f"{kind} takes one angle, not one per row"):
            Gate(kind, 0, angle=(0.1, 0.2))

import math

import numpy as np
import pytest
from conftest import NON_FINITE_ANGLES, noisy_bloch_oracle
from hypothesis import given, settings, strategies as st

from graphent import (
    CalibrationData,
    Circuit,
    Gate,
    Graph,
    ResourceCapError,
    ShotResult,
    ValidationError,
    derive_seeds,
    estimate_entanglement_shots,
    estimate_mean_z,
    exact_entanglement,
    init_zero,
    parse_calibration,
    path,
    ring,
    sample_circuit,
    synthesize_graph_circuit,
    valencia,
    valencia_calibration,
)
from graphent import sampling
from graphent.circuits import apply_circuit, measurement_prelude, synthesize_star_circuit
from graphent.entanglement import bloch_vector
from graphent.sampling import DEFAULT_SHOTS, _with_errors
from graphent.statevector import pauli_means


class TestCalibration:
    def test_bundled_table_values(self):
        cal = valencia_calibration()
        assert cal.n_qubits == 5
        assert cal.readout_error == (0.0433, 0.0292, 0.0650, 0.0224, 0.0161)
        assert cal.gate_error == (4.35e-4, 3.14e-4, 10.98e-4, 6.17e-4, 9.90e-4)
        assert cal.cx_error_for(0, 1) == 7.70e-3
        assert cal.cx_error_for(1, 3) == 12.37e-3
        assert cal.cx_error_for(4, 3) == 23.68e-3
        assert len(cal.cx_error) == 8

    def test_parse_roundtrip(self):
        text = '{"readout_error": [0.1], "gate_error": [0.2], "cx_error": {}}'
        cal = parse_calibration(text)
        assert cal.readout_error == (0.1,)
        integers = '{"readout_error": [0, 1], "gate_error": [0, 0], "cx_error": {"0-1": 1}}'
        cal = parse_calibration(integers)
        assert cal.readout_error == (0.0, 1.0)
        assert cal.cx_error_for(0, 1) == 1.0

    @pytest.mark.parametrize(
        "text",
        [
            '{"readout_error": [0.1], "gate_error": []}',
            '{"readout_error": [1.5], "gate_error": [0.1], "cx_error": {}}',
            '{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {"0-0": 0.1}}',
            '{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {"0-5": 0.1}}',
            '{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {"ab": 0.1}}',
            "not json",
            '{"readout_error": ["x"], "gate_error": [0.1], "cx_error": {}}',
            '{"readout_error": [0.1], "gate_error": [null], "cx_error": {}}',
            '{"readout_error": [[0.1]], "gate_error": [0.1], "cx_error": {}}',
            '{"readout_error": [0.1, 0.1], "gate_error": [0.1, 0.1], "cx_error": {"0-1": null}}',
            '{"readout_error": ["0.1"], "gate_error": [0.1], "cx_error": {}}',
            '{"readout_error": [0.1], "gate_error": [true], "cx_error": {}}',
            '{"readout_error": [0.1, 0.1], "gate_error": [0.1, 0.1], "cx_error": {"\uff10-1": 0.1}}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            parse_calibration(text)

    def test_missing_cx_pair(self):
        cal = valencia_calibration()
        with pytest.raises(ValidationError):
            cal.cx_error_for(0, 4)

    def test_default_shots(self):
        assert DEFAULT_SHOTS == 8192


def _outcomes(*values):
    return np.array(values, dtype=np.int64)


class TestShotResult:
    def test_outcomes_may_not_be_empty(self):
        with pytest.raises(ValidationError):
            ShotResult(2, _outcomes())

    def test_negative_outcome_rejected(self):
        with pytest.raises(ValidationError):
            ShotResult(2, _outcomes(0, -1, 3))

    def test_outcome_beyond_register_rejected(self):
        with pytest.raises(ValidationError):
            ShotResult(2, _outcomes(0, 4, 3))

    def test_n_qubits(self):
        assert ShotResult(2, _outcomes(2, 3, 2)).n_qubits == 2

    def test_shots_and_counts_derived_from_outcomes(self):
        r = ShotResult(2, _outcomes(2, 3, 2))
        assert r.shots == 3
        assert r.counts == {"01": 2, "11": 1}

    @given(data=st.data(), n=st.integers(1, 6))
    def test_mean_z_matches_counts_marginal(self, data, n):
        values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=50))
        l = data.draw(st.integers(0, n - 1))
        r = ShotResult(n, _outcomes(*values))
        n1 = sum(c for key, c in r.counts.items() if key[l] == "1")
        assert estimate_mean_z(r, l)[0] == (len(values) - 2 * n1) / len(values)


class TestSampleZ:
    """z-basis outcomes as :func:`sample_circuit` draws them."""

    def test_deterministic_state_all_one_outcome(self):
        r = sample_circuit(Circuit(2), 500, seed=0)
        assert r.counts == {"00": 500}

    def test_h_state_frequency_band(self):
        r = sample_circuit(Circuit(1, (Gate.h(0),)), 100_000, seed=42)
        f = r.counts["0"] / r.shots
        assert abs(f - 0.5) <= 3 * math.sqrt(0.25 / 100_000)

    def test_seed_replay_identical(self):
        c = Circuit(3, (Gate.h(1),))
        first, again = (sample_circuit(c, 4096, seed=9).outcomes for _ in range(2))
        assert np.array_equal(first, again)

    def test_bit_convention_first_char_is_qubit_zero(self):
        r = sample_circuit(Circuit(2, (Gate("x", 0),)), 10, seed=0)  # qubit 0 set, qubit 1 clear
        assert r.counts == {"10": 10}

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError, match="shot count must be positive"):
            sample_circuit(Circuit(1), 0, seed=0)

    def test_count_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="shot count must be below 2\\*\\*63"):
            sample_circuit(Circuit(1), 2**63, seed=0)


class TestCorruptReadout:
    """Readout error as the shots route composes it into spin l's count of ones."""

    def test_zero_error_leaves_counts_unchanged(self):
        cal = CalibrationData((0.0,) * 5, (0.0,) * 5, {})
        assert estimate_entanglement_shots(valencia(), 0.7, 1, 2000, cal, seed=3) == (
            estimate_entanglement_shots(valencia(), 0.7, 1, 2000, seed=3)
        )

    def test_table_flip_rate_on_deterministic_input(self):
        # at phi = 0 spin 0 reads 0 on every shot before its readout flips
        eps = 0.0433
        cal = CalibrationData((eps, 0.0), (0.0, 0.0), {})
        est = estimate_entanglement_shots(path(2), 0.0, 0, 100_000, cal, seed=5)
        f = (1 - est.bloch.mz) / 2
        assert abs(f - eps) <= 3 * math.sqrt(eps * (1 - eps) / 100_000)

    def test_half_error_depolarizes_bit(self):
        cal = CalibrationData((0.5, 0.0), (0.0, 0.0), {})
        est = estimate_entanglement_shots(path(2), 0.6, 0, 40_000, cal, seed=7)
        for mean in est.bloch.as_tuple():
            assert abs(mean) <= 4 * math.sqrt(1 / 40_000)

    def test_calibration_size_mismatch(self):
        cal = CalibrationData((0.1,), (0.0,), {})
        with pytest.raises(ValidationError, match="calibration covers 1 qubits, graph has 2"):
            estimate_entanglement_shots(path(2), 0.6, 0, 10, cal)


class TestEstimateMeanZ:
    def test_all_zero_outcomes(self):
        r = ShotResult(2, np.zeros(50, dtype=np.int64))
        assert estimate_mean_z(r, 0) == (1.0, 0.0)

    def test_even_split(self):
        r = ShotResult(1, np.repeat(_outcomes(0, 1), 50))
        mean, se = estimate_mean_z(r, 0)
        assert mean == 0.0
        assert abs(se - 0.1) < 1e-15

    def test_three_to_one_split(self):
        r = ShotResult(1, np.repeat(_outcomes(0, 1), [300, 100]))
        mean, se = estimate_mean_z(r, 0)
        assert mean == 0.5
        assert abs(se - math.sqrt(0.75 / 400)) < 1e-15

    def test_marginal_over_selected_qubit(self):
        r = ShotResult(2, np.repeat(_outcomes(2, 3), [4, 6]))
        assert estimate_mean_z(r, 0)[0] == pytest.approx((4 - 6) / 10)
        assert estimate_mean_z(r, 1)[0] == -1.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            estimate_mean_z(ShotResult(1, _outcomes(0)), 1)

    def test_consistency_with_exact_expectation_over_seeds(self):
        circuit = synthesize_graph_circuit(path(2), 0.9)
        state = apply_circuit(init_zero(2), circuit)
        exact = pauli_means(state, 0)[2]
        hits = 0
        trials = 1000
        for seed in range(trials):
            mean, se = estimate_mean_z(sample_circuit(circuit, 1000, seed=seed), 0)
            if abs(mean - exact) <= 3 * se:
                hits += 1
        assert hits >= 990


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_seeds(123, 6)
        assert a == derive_seeds(123, 6)
        assert len(set(a)) == 6
        assert a != derive_seeds(124, 6)


class TestEstimateEntanglementShots:
    def test_phi_zero_noiseless_is_exactly_zero(self):
        est = estimate_entanglement_shots(valencia(), 0.0, 1, 2000, seed=0)
        assert est.bloch.mz == 1.0
        assert est.value == 0.0
        assert est.method == "shots"
        assert est.shots == 2000

    def test_valencia_hub_quarter_pi_within_three_sigma(self):
        target = 0.5 * (1 - 2 ** (-1.5))
        est = estimate_entanglement_shots(valencia(), math.pi / 4, 1, 100_000, seed=1)
        assert abs(est.value - target) <= 3 * est.std_error

    def test_readout_noise_bias_at_phi_zero(self):
        est = estimate_entanglement_shots(
            valencia(), 0.0, 1, 100_000, valencia_calibration(), seed=2
        )
        assert abs(est.value - 0.0292) <= 3 * est.std_error

    def test_seed_determinism(self):
        a = estimate_entanglement_shots(valencia(), 0.6, 3, 3000, seed=17)
        b = estimate_entanglement_shots(valencia(), 0.6, 3, 3000, seed=17)
        assert a == b
        c = estimate_entanglement_shots(valencia(), 0.6, 3, 3000, seed=18)
        assert a != c

    def test_never_far_below_exact(self):
        # |m| estimation is biased upward, so the shot estimate may sit above
        # the exact value but should not undershoot it by more than 3 sigma
        for phi, spin in [(0.4, 1), (1.1, 3), (2.0, 0)]:
            exact = exact_entanglement(valencia(), phi, spin).value
            est = estimate_entanglement_shots(valencia(), phi, spin, 20_000, seed=21)
            assert est.value >= exact - 3 * est.std_error

    def test_spin_out_of_range(self):
        with pytest.raises(ValidationError):
            estimate_entanglement_shots(valencia(), 0.1, 9, 10, seed=0)

    def test_gate_noise_requires_calibration(self):
        with pytest.raises(ValidationError):
            estimate_entanglement_shots(valencia(), 0.1, 1, 10, seed=0, gate_noise=True)

    @pytest.mark.parametrize("phi", NON_FINITE_ANGLES)
    def test_non_finite_angle_rejected(self, phi):
        with pytest.raises(ValidationError):
            estimate_entanglement_shots(valencia(), phi, 1, 100)

    @pytest.mark.parametrize("gate_noise", [False, True])
    def test_zero_shots_rejected(self, gate_noise):
        with pytest.raises(ValidationError, match="shot count must be positive"):
            estimate_entanglement_shots(
                valencia(), 0.5, 1, 0, valencia_calibration(), gate_noise=gate_noise
            )

    @pytest.mark.parametrize("gate_noise", [False, True])
    def test_qubit_cap_holds_on_both_paths(self, gate_noise):
        with pytest.raises(ResourceCapError):
            estimate_entanglement_shots(
                valencia(), 0.5, 1, 100, valencia_calibration(),
                gate_noise=gate_noise, max_qubits=3,
            )

    @pytest.mark.parametrize("gate_noise", [False, True])
    def test_qubit_cap_is_on_the_star(self, gate_noise):
        # spin 4 has degree 1: a 2-qubit star in a 5-qubit graph
        est = estimate_entanglement_shots(
            valencia(), 0.5, 4, 100, valencia_calibration(), gate_noise=gate_noise, max_qubits=2
        )
        assert est.spin == 4

    @pytest.mark.parametrize("gate_noise", [False, True])
    def test_graph_beyond_the_cap_is_sampled_on_the_star(self, gate_noise):
        n = 40
        cx = {pair: 0.01 for i in range(n) for pair in ((i, (i + 1) % n), ((i + 1) % n, i))}
        cal = CalibrationData((0.02,) * n, (1e-3,) * n, cx)
        est = estimate_entanglement_shots(ring(n), 1.0, 7, 2000, cal, seed=4, gate_noise=gate_noise)
        assert (est.spin, est.shots) == (7, 2000)

    def test_missing_star_cx_entry_rejected_with_physical_pair(self):
        cal = CalibrationData((0.0,) * 5, (0.0,) * 5, {})
        with pytest.raises(ValidationError, match="directed pair 1-3"):
            estimate_entanglement_shots(valencia(), 0.5, 3, 10, cal, gate_noise=True)

    def test_count_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="shot count must be below 2\\*\\*63"):
            estimate_entanglement_shots(valencia(), 0.5, 1, 2**63)

    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: sample_circuit(Circuit(1, (Gate.h(0),)), 10, seed),
            lambda seed: derive_seeds(seed, 3),
            lambda seed: estimate_entanglement_shots(valencia(), 0.5, 1, 10, seed=seed),
        ],
        ids=["sample_circuit", "derive_seeds", "estimate"],
    )
    def test_negative_seed_rejected(self, call):
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            call(-1)


def _uniform_cal(n, gate, cx):
    pairs = {(i, j): cx for i in range(n) for j in range(n) if i != j}
    return CalibrationData((0.0,) * n, (gate,) * n, pairs)


class TestDepolarizingNoise:
    def test_zero_rates_identical_to_noiseless_sampling(self):
        g = valencia()
        circuit = synthesize_graph_circuit(g, 0.8)
        cal = _uniform_cal(5, 0.0, 0.0)
        state = apply_circuit(init_zero(5), circuit)
        noiseless = sampling._draw_outcomes(state, 5000, np.random.default_rng(33))
        for c in (cal, None):
            assert np.array_equal(sample_circuit(circuit, 5000, 33, c).outcomes, noiseless)

    def test_rate_one_identity_circuit_depolarizes(self):
        circuit = Circuit(1, tuple(Gate.h(0) for _ in range(8)))
        cal = CalibrationData((0.0,), (1.0,), {})
        mean, se = estimate_mean_z(sample_circuit(circuit, 20_000, 3, cal), 0)
        assert abs(mean) <= 4 * se

    def test_rate_one_single_qubit_error_is_a_uniform_pauli(self):
        # p(0) leaves |0>; x and y flip it, z does not: P(1) = 2/3
        circuit = Circuit(1, (Gate.p(0, 0.0),))
        cal = CalibrationData((0.0,), (1.0,), {})
        mean, se = estimate_mean_z(sample_circuit(circuit, 30_000, 8, cal), 0)
        assert abs(mean - (-1.0 / 3.0)) <= 4 * se

    def test_rate_one_cx_error_is_a_uniform_two_qubit_pauli(self):
        # 15 non-identity Pauli pairs on |00>: a qubit flips under x or y
        circuit = Circuit(2, (Gate.cx(0, 1),))
        cal = _uniform_cal(2, 0.0, 1.0)
        shots = 30_000
        r = sample_circuit(circuit, shots, 9, cal)
        expected = {0: 3 / 15, 1: 4 / 15, 2: 4 / 15, 3: 4 / 15}
        for outcome, p in expected.items():
            f = np.count_nonzero(r.outcomes == outcome) / shots
            assert abs(f - p) <= 4 * math.sqrt(p * (1 - p) / shots)

    def test_seed_determinism(self):
        circuit = synthesize_graph_circuit(path(3), 0.5)
        cal = _uniform_cal(3, 0.05, 0.05)
        a = sample_circuit(circuit, 4000, 4, cal)
        b = sample_circuit(circuit, 4000, 4, cal)
        assert a.counts == b.counts
        assert np.array_equal(a.outcomes, b.outcomes)
        assert not np.array_equal(a.outcomes, sample_circuit(circuit, 4000, 5, cal).outcomes)

    def test_missing_cx_entry_rejected(self):
        circuit = synthesize_graph_circuit(path(2), 0.5)
        cal = CalibrationData((0.0, 0.0), (0.0, 0.0), {})
        with pytest.raises(ValidationError):
            sample_circuit(circuit, 10, 0, cal)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_zero_shots_rejected(self, noisy):
        circuit = synthesize_graph_circuit(path(3), 0.5)
        cal = _uniform_cal(3, 0.05, 0.05) if noisy else None
        with pytest.raises(ValidationError, match="shot count must be positive"):
            sample_circuit(circuit, 0, 0, cal)

    def test_trajectories_without_errors_draw_nothing(self):
        circuit = synthesize_graph_circuit(path(3), 0.5)
        rng = np.random.default_rng(1)
        for cal in (None, _uniform_cal(3, 0.0, 0.0)):
            assert sampling._trajectories(circuit, 10**15, cal, rng) == [(circuit, 10**15)]
        assert rng.random() == np.random.default_rng(1).random()

    def test_trajectories_split_the_shots_by_error_pattern(self):
        circuit = synthesize_graph_circuit(path(3), 0.5)
        cal = _uniform_cal(3, 0.02, 0.05)
        groups = sampling._trajectories(circuit, 5000, cal, np.random.default_rng(2))
        assert sum(k for _, k in groups) == 5000
        assert all(k > 0 for _, k in groups)
        assert groups[0][0].gates == circuit.gates  # the error-free pattern comes first
        patterns = [tuple(g for g in c.gates if g.kind in "xyz") for c, _ in groups[1:]]
        assert all(patterns) and len(set(c.gates for c, _ in groups)) == len(groups)

    def test_chunked_hit_draws_match_one_draw(self, monkeypatch):
        circuit = synthesize_graph_circuit(path(3), 0.5)
        cal = _uniform_cal(3, 0.02, 0.05)
        shots = sampling.TRAJECTORY_CHUNK + 904
        default = sample_circuit(circuit, shots, 12, cal)
        monkeypatch.setattr(sampling, "TRAJECTORY_CHUNK", 7)
        assert np.array_equal(sample_circuit(circuit, shots, 12, cal).outcomes, default.outcomes)

    @pytest.mark.parametrize(
        "i,bloch,value",
        [
            (1, (-0.031, 0.018, 0.782), 0.10858940995420163),
            (2, (-0.004, -0.017, 0.682), 0.15888821480341664),
            (3, (0.001, 0.014, 0.36), 0.31986324639319164),
        ],
    )
    def test_pinned_valencia_estimates(self, i, bloch, value):
        est = estimate_entanglement_shots(
            valencia(), 0.3 * i, i % 5, 2000, valencia_calibration(), seed=100 + i,
            gate_noise=True,
        )
        assert est.bloch.as_tuple() == bloch
        assert est.value == value

    def test_enabling_gate_noise_increases_entanglement_at_phi_zero(self):
        cal = valencia_calibration()
        noisy = estimate_entanglement_shots(
            valencia(), 0.0, 1, 100_000, cal, seed=5, gate_noise=True
        )
        readout_only = estimate_entanglement_shots(
            valencia(), 0.0, 1, 100_000, cal, seed=5
        )
        noiseless = estimate_entanglement_shots(valencia(), 0.0, 1, 100_000, seed=5)
        assert noiseless.value == 0.0
        assert readout_only.value > noiseless.value
        assert noisy.value > readout_only.value + 3 * noisy.std_error


def _relabel(gate, index):
    if gate.kind == "cx":
        return Gate.cx(index[gate.control], index[gate.target])
    return Gate(gate.kind, index[gate.target], angle=gate.angle)


ALL_PAIRS = [(i, j) for i in range(8) for j in range(i + 1, 8)]


@settings(max_examples=80)
@given(data=st.data())
def test_star_circuit_reduces_the_full_register_under_any_error_pattern(data):
    """Spin l's exact Bloch vector after an error pattern on the whole graph
    circuit equals the star's after the same pattern restricted to l's blocks."""
    n = data.draw(st.integers(2, 8), label="n")
    pairs = [(i, j) for i, j in ALL_PAIRS if j < n]
    g = Graph(n, tuple(data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")))
    l = data.draw(st.integers(0, n - 1), label="l")
    # few distinct rates, so that orientation ties are common
    rates = data.draw(st.lists(st.sampled_from([1e-3, 2e-3, 4e-3]), min_size=n, max_size=n))
    cal = CalibrationData((0.0,) * n, tuple(rates), {})
    phi = data.draw(st.floats(-2 * math.pi, 2 * math.pi), label="phi")
    full = synthesize_graph_circuit(g, phi, cal)
    star_circuit, star = synthesize_star_circuit(g, l, phi, cal)
    assert star == (l,) + tuple(sorted(m for e in g.edges if l in e for m in e if m != l))
    blocks = [e for e, edge in enumerate(g.edges) if l in edge]
    index = {v: s for s, v in enumerate(star)}
    for b, e in enumerate(blocks):
        assert [_relabel(gate, index) for gate in full.gates[5 * e : 5 * e + 5]] == list(
            star_circuit.gates[5 * b : 5 * b + 5]
        )
    events = data.draw(
        st.lists(
            st.tuples(st.integers(0, max(0, len(full.gates) - 1)), st.integers(1, 15)),
            unique_by=lambda event: event[0],
            max_size=8 if full.gates else 0,
        ),
        label="events",
    )
    pattern = tuple(
        (idx, code if full.gates[idx].kind == "cx" else 1 + code % 3) for idx, code in sorted(events)
    )
    star_pattern = tuple(
        (5 * blocks.index(idx // 5) + idx % 5, code) for idx, code in pattern if idx // 5 in blocks
    )
    full_state = apply_circuit(init_zero(n), _with_errors(full, pattern))
    star_state = apply_circuit(init_zero(len(star)), _with_errors(star_circuit, star_pattern))
    expected = bloch_vector(full_state, l).as_tuple()
    got = bloch_vector(star_state, 0).as_tuple()
    assert max(abs(a - b) for a, b in zip(expected, got)) <= 1e-9


class TestStarOrientation:
    @pytest.mark.parametrize("cal", [None, _uniform_cal(5, 1e-3, 0.0)], ids=["none", "tied"])
    def test_ties_break_on_physical_indices(self, cal):
        # spin 3's star is (3, 1, 4): the tie with 1 rotates on 1 (star qubit 1),
        # the tie with 4 on 3 (star qubit 0); star indices would pick 0 for both
        circuit, star = synthesize_star_circuit(valencia(), 3, 0.5, cal)
        assert star == (3, 1, 4)
        assert circuit.gates[0] == Gate.cx(1, 0)
        assert circuit.gates[5] == Gate.cx(0, 2)

    def test_calibration_orients_on_physical_rates(self):
        # bundled rates: q1 < q0 < q3 < q4 < q2, so spin 1's blocks all rotate on 1
        circuit, star = synthesize_star_circuit(valencia(), 1, 0.5, valencia_calibration())
        assert star == (1, 0, 2, 3)
        assert [circuit.gates[5 * b] for b in range(3)] == [Gate.cx(0, s) for s in (1, 2, 3)]
        circuit, star = synthesize_star_circuit(valencia(), 4, 0.5, valencia_calibration())
        assert star == (4, 3)
        assert circuit.gates[0] == Gate.cx(1, 0)


# gate errors chosen so that some blocks rotate on the spin and some on its
# neighbour, whose errors then reach the spin
HEAVY = CalibrationData(
    (0.03, 0.05, 0.02, 0.04, 0.01),
    (0.02, 0.04, 0.03, 0.08, 0.05),
    {(i, j): 0.03 + 0.005 * (i + j) for i in range(5) for j in range(5) if i != j},
)
NOISE_CASES = {
    "noiseless": (None, False),
    "readout": (valencia_calibration(), False),
    "gate-noise": (valencia_calibration(), True),
    "heavy-gate-noise": (HEAVY, True),
}


class TestAgainstNoisyOracle:
    """Star estimates sit within 5 sigma of the exact noisy means of the whole circuit."""

    SHOTS = 20_000

    @pytest.mark.parametrize("case", NOISE_CASES)
    @pytest.mark.parametrize("spin,phi", [(1, 0.9), (3, 2.3), (4, -1.2)])
    def test_valencia_within_five_sigma(self, case, spin, phi):
        cal, gate_noise = NOISE_CASES[case]
        expected = noisy_bloch_oracle(valencia(), phi, spin, cal, gate_noise)
        est = estimate_entanglement_shots(
            valencia(), phi, spin, self.SHOTS, cal, seed=31, gate_noise=gate_noise
        )
        for got, mean in zip(est.bloch.as_tuple(), expected):
            assert abs(got - mean) <= 5 * math.sqrt((1 - mean * mean) / self.SHOTS)

    @pytest.mark.parametrize("case", ["noiseless", "readout"])
    @pytest.mark.parametrize("spin,phi", [(1, 0.9), (3, 2.3), (4, -1.2)])
    def test_counts_are_exact_at_a_trillion_shots(self, case, spin, phi):
        # one binomial per axis makes the count cost independent of the shot
        # number; at 1e12 shots 5 sigma is 5e-6, so a readout composition off
        # by about 1e-5 fails
        shots = 10**12
        cal, _ = NOISE_CASES[case]
        expected = noisy_bloch_oracle(valencia(), phi, spin, cal)
        est = estimate_entanglement_shots(valencia(), phi, spin, shots, cal, seed=32)
        for got, mean in zip(est.bloch.as_tuple(), expected):
            assert abs(got - mean) <= 5 * math.sqrt((1 - mean * mean) / shots)

    def test_heavy_noise_moves_the_oracle_beyond_the_band(self):
        # so the heavy case can tell gate noise from readout alone
        noisy = noisy_bloch_oracle(valencia(), 0.9, 1, HEAVY, True)[2]
        readout = noisy_bloch_oracle(valencia(), 0.9, 1, HEAVY, False)[2]
        assert readout - noisy > 10 * math.sqrt(1 / self.SHOTS)


class TestAgainstFullRegister:
    """Star estimates agree with the full-register sampler of the whole graph circuit."""

    SHOTS = 20_000

    @pytest.mark.parametrize("gate_noise", [False, True])
    @pytest.mark.parametrize("spin,phi", [(1, 0.9), (3, 2.3)])
    def test_valencia_within_five_sigma(self, gate_noise, spin, phi):
        g, cal = valencia(), valencia_calibration()
        base = synthesize_graph_circuit(g, phi, cal)
        est = estimate_entanglement_shots(g, phi, spin, self.SHOTS, cal, seed=8, gate_noise=gate_noise)
        for k, (axis, got) in enumerate(zip("xyz", est.bloch.as_tuple())):
            circuit = Circuit(g.n_vertices, base.gates + measurement_prelude(axis, spin))
            full = sample_circuit(circuit, self.SHOTS, 50 + k, cal if gate_noise else None)
            # readout error r_l scales a mean by 1 - 2 r_l, as in noisy_bloch_oracle
            mean, se = (
                (1 - 2 * cal.readout_error[spin]) * m for m in estimate_mean_z(full, spin)
            )
            se_star = math.sqrt((1 - got * got) / self.SHOTS)
            assert abs(got - mean) <= 5 * math.hypot(se, se_star)

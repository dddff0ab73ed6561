import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphent import (
    CalibrationData,
    Circuit,
    DepolarizingSampler,
    Gate,
    ResourceCapError,
    ShotResult,
    ValidationError,
    apply_gate,
    corrupt_readout,
    derive_seeds,
    estimate_entanglement_shots,
    estimate_mean_z,
    exact_entanglement,
    expectation_pauli,
    init_zero,
    parse_calibration,
    path,
    sample_z,
    synthesize_graph_circuit,
    valencia,
    valencia_calibration,
)
from graphent.circuits import apply_circuit
from graphent.sampling import DEFAULT_SHOTS


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

    @pytest.mark.parametrize(
        "text",
        [
            '{"readout_error": [0.1], "gate_error": []}',
            '{"readout_error": [1.5], "gate_error": [0.1], "cx_error": {}}',
            '{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {"0-0": 0.1}}',
            '{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {"0-5": 0.1}}',
            '{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {"ab": 0.1}}',
            "not json",
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
            ShotResult(2, _outcomes(), seed=0)

    def test_negative_outcome_rejected(self):
        with pytest.raises(ValidationError):
            ShotResult(2, _outcomes(0, -1, 3), seed=0)

    def test_outcome_beyond_register_rejected(self):
        with pytest.raises(ValidationError):
            ShotResult(2, _outcomes(0, 4, 3), seed=0)

    def test_n_qubits(self):
        assert ShotResult(2, _outcomes(2, 3, 2), seed=0).n_qubits == 2

    def test_shots_and_counts_derived_from_outcomes(self):
        r = ShotResult(2, _outcomes(2, 3, 2), seed=0)
        assert r.shots == 3
        assert r.counts == {"01": 2, "11": 1}

    @given(data=st.data(), n=st.integers(1, 6))
    def test_mean_z_matches_counts_marginal(self, data, n):
        values = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=50))
        l = data.draw(st.integers(0, n - 1))
        r = ShotResult(n, _outcomes(*values), seed=0)
        n1 = sum(c for key, c in r.counts.items() if key[l] == "1")
        assert estimate_mean_z(r, l)[0] == (len(values) - 2 * n1) / len(values)


class TestSampleZ:
    def test_deterministic_state_all_one_outcome(self):
        r = sample_z(init_zero(2), 500, seed=0)
        assert r.counts == {"00": 500}

    def test_h_state_frequency_band(self):
        s = apply_gate(init_zero(1), Gate.h(0))
        r = sample_z(s, 100_000, seed=42)
        f = r.counts["0"] / r.shots
        assert abs(f - 0.5) <= 3 * math.sqrt(0.25 / 100_000)

    def test_seed_replay_identical(self):
        s = apply_gate(init_zero(3), Gate.h(1))
        assert sample_z(s, 4096, seed=9).counts == sample_z(s, 4096, seed=9).counts

    def test_bit_convention_first_char_is_qubit_zero(self):
        s = init_zero(2)
        s.amps[:] = [0, 1, 0, 0]  # qubit 0 set, qubit 1 clear
        r = sample_z(s, 10, seed=0)
        assert r.counts == {"10": 10}

    def test_zero_shots_rejected(self):
        with pytest.raises(ValidationError):
            sample_z(init_zero(1), 0, seed=0)


class TestCorruptReadout:
    def test_zero_error_leaves_counts_unchanged(self):
        cal = CalibrationData((0.0, 0.0), (0.0, 0.0), {})
        r = sample_z(apply_gate(init_zero(2), Gate.h(0)), 2000, seed=3)
        assert corrupt_readout(r, cal, seed=4).counts == r.counts

    def test_table_flip_rate_on_deterministic_input(self):
        eps = 0.0433
        cal = CalibrationData((eps,), (0.0,), {})
        r = sample_z(init_zero(1), 100_000, seed=5)
        corrupted = corrupt_readout(r, cal, seed=6)
        f = corrupted.counts.get("1", 0) / corrupted.shots
        assert abs(f - eps) <= 3 * math.sqrt(eps * (1 - eps) / 100_000)

    def test_half_error_depolarizes_bit(self):
        cal = CalibrationData((0.5,), (0.0,), {})
        r = sample_z(init_zero(1), 40_000, seed=7)
        mean, se = estimate_mean_z(corrupt_readout(r, cal, seed=8), 0)
        assert abs(mean) <= 4 * se

    def test_double_pass_matches_single_pass_at_composed_rate(self):
        eps = 0.3
        shots = 100_000
        r = sample_z(init_zero(1), shots, seed=10)
        twice = corrupt_readout(
            corrupt_readout(r, CalibrationData((eps,), (0.0,), {}), seed=11),
            CalibrationData((eps,), (0.0,), {}),
            seed=12,
        )
        composed = 2 * eps * (1 - eps)
        once = corrupt_readout(r, CalibrationData((composed,), (0.0,), {}), seed=13)
        f_twice = twice.counts["1"] / shots
        f_once = once.counts["1"] / shots
        band = 4 * math.sqrt(2 * composed * (1 - composed) / shots)
        assert abs(f_twice - f_once) <= band

    def test_input_outcomes_unchanged(self):
        cal = CalibrationData((0.5, 0.5), (0.0, 0.0), {})
        r = sample_z(apply_gate(init_zero(2), Gate.h(0)), 2000, seed=3)
        before = r.outcomes.copy()
        corrupted = corrupt_readout(r, cal, seed=4)
        assert np.array_equal(r.outcomes, before)
        assert not np.array_equal(corrupted.outcomes, before)

    def test_calibration_size_mismatch(self):
        cal = CalibrationData((0.1,), (0.0,), {})
        r = sample_z(init_zero(2), 10, seed=0)
        with pytest.raises(ValidationError):
            corrupt_readout(r, cal, seed=0)


class TestEstimateMeanZ:
    def test_all_zero_outcomes(self):
        r = ShotResult(2, np.zeros(50, dtype=np.int64), seed=0)
        assert estimate_mean_z(r, 0) == (1.0, 0.0)

    def test_even_split(self):
        r = ShotResult(1, np.repeat(_outcomes(0, 1), 50), seed=0)
        mean, se = estimate_mean_z(r, 0)
        assert mean == 0.0
        assert abs(se - 0.1) < 1e-15

    def test_three_to_one_split(self):
        r = ShotResult(1, np.repeat(_outcomes(0, 1), [300, 100]), seed=0)
        mean, se = estimate_mean_z(r, 0)
        assert mean == 0.5
        assert abs(se - math.sqrt(0.75 / 400)) < 1e-15

    def test_marginal_over_selected_qubit(self):
        r = ShotResult(2, np.repeat(_outcomes(2, 3), [4, 6]), seed=0)
        assert estimate_mean_z(r, 0)[0] == pytest.approx((4 - 6) / 10)
        assert estimate_mean_z(r, 1)[0] == -1.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            estimate_mean_z(ShotResult(1, _outcomes(0), seed=0), 1)

    def test_consistency_with_exact_expectation_over_seeds(self):
        g = path(2)
        state = init_zero(2)
        apply_circuit(state, synthesize_graph_circuit(g, 0.9))
        exact = expectation_pauli(state, "z", 0)
        hits = 0
        trials = 1000
        for seed in range(trials):
            mean, se = estimate_mean_z(sample_z(state, 1000, seed=seed), 0)
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

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, phi):
        with pytest.raises(ValidationError):
            estimate_entanglement_shots(valencia(), phi, 1, 100)

    @pytest.mark.parametrize("gate_noise", [False, True])
    def test_qubit_cap_holds_on_both_paths(self, gate_noise):
        with pytest.raises(ResourceCapError):
            estimate_entanglement_shots(
                valencia(), 0.5, 1, 100, valencia_calibration(),
                gate_noise=gate_noise, max_qubits=3,
            )


class TestDepolarizingNoise:
    def test_zero_rates_identical_to_noiseless_sampling(self):
        g = valencia()
        circuit = synthesize_graph_circuit(g, 0.8)
        cal = CalibrationData(
            (0.0,) * 5,
            (0.0,) * 5,
            {(i, j): 0.0 for i in range(5) for j in range(5) if i != j},
        )
        sampler = DepolarizingSampler(circuit, cal, seed=33)
        state = apply_circuit(init_zero(5), circuit)
        assert sampler(5000).counts == sample_z(state, 5000, seed=33).counts

    def test_rate_one_identity_circuit_depolarizes(self):
        circuit = Circuit(1, tuple(Gate.h(0) for _ in range(8)))
        cal = CalibrationData((0.0,), (1.0,), {})
        mean, se = estimate_mean_z(DepolarizingSampler(circuit, cal, seed=3)(20_000), 0)
        assert abs(mean) <= 4 * se

    def test_seed_determinism(self):
        circuit = synthesize_graph_circuit(path(3), 0.5)
        cal = CalibrationData((0.0,) * 3, (0.05,) * 3, {(i, j): 0.05 for i in range(3) for j in range(3) if i != j})
        a = DepolarizingSampler(circuit, cal, seed=4)(4000)
        b = DepolarizingSampler(circuit, cal, seed=4)(4000)
        assert a.counts == b.counts

    def test_missing_cx_entry_rejected(self):
        circuit = synthesize_graph_circuit(path(2), 0.5)
        cal = CalibrationData((0.0, 0.0), (0.0, 0.0), {})
        with pytest.raises(ValidationError):
            DepolarizingSampler(circuit, cal, seed=0)

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

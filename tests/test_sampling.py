import math

import numpy as np
import pytest
from conftest import NON_FINITE_ANGLES, density_matrix_oracle, floats_at_drift_limit, noisy_bloch_oracle, pauli_on
from hypothesis import example, given, settings, strategies as st

from graphent import (
    DEFAULT_MAX_QUBITS,
    CalibrationData,
    ConsistencyError,
    Gate,
    Graph,
    StateVector,
    ValidationError,
    choose_orientation,
    complete,
    derive_seed,
    estimate_entanglement_shots,
    exact_entanglement,
    init_zero,
    parse_calibration,
    path,
    ring,
    synthesize_edge,
    synthesize_graph_circuit,
    valencia,
    valencia_calibration,
)
from graphent import circuits, sampling, statevector
from graphent.circuits import apply_circuit
from graphent.entanglement import bloch_vector
from graphent.errors import DEFAULT_SHOTS


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
            # one pair given twice, which json.loads alone would resolve to the last value
            '{"readout_error": [0.1, 0.1], "gate_error": [0.1, 0.1], "cx_error": {"0-1": 0.02, "00-1": 0.9}}',
            '{"readout_error": [0.1, 0.1], "gate_error": [0.1, 0.1], "cx_error": {"0-1": 0.02, "0-1": 0.9}}',
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            parse_calibration(text)

    def test_nested_past_the_recursion_limit(self):
        with pytest.raises(ValidationError, match="^invalid calibration JSON: maximum recursion depth exceeded"):
            parse_calibration('{"readout_error": ' + "[" * 100_000)

    def test_rate_beyond_float_range(self):
        # within int()'s digit limit, so json reads it; float() of it would overflow
        text = '{"readout_error": [1%s], "gate_error": [0.1], "cx_error": {}}' % ("0" * 400)
        with pytest.raises(ValidationError, match=r"^readout_error\[0\]=1000+ outside \[0, 1\]$"):
            parse_calibration(text)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((("x",), (0.1,), {}), r"readout_error\[0\] must be a number, got 'x'"),
            (((0.1,), (0.1, True), {}), r"gate_error\[1\] must be a number, got True"),
            (((0.1,), ([0.1],), {}), r"gate_error\[0\] must be a number, got \[0\.1\]"),
            ((None, (0.1,), {}), "readout_error must be a sequence of rates, got None"),
            (((0.1, 0.1), (0.1, 0.1), None), "cx_error must be a mapping of qubit pairs to rates, got None"),
            (((0.1, 0.1), (0.1, 0.1), {(0,): 0.1}), r"cx_error key \(0,\) is not a pair of qubits"),
            (((0.1, 0.1), (0.1, 0.1), {0: 0.1}), "cx_error key 0 is not a pair of qubits"),
            (((0.1, 0.1), (0.1, 0.1), {(0.0, 1.0): 0.1}), r"cx_error qubit must be an integer, got 0\.0"),
            (((0.1, 0.1), (0.1, 0.1), {(0, True): 0.1}), "cx_error qubit must be an integer, got True"),
            (((0.1, 0.1), (0.1, 0.1), {(0, 1): True}), r"cx_error\[\(0, 1\)\] must be a number, got True"),
            (((0.1, 0.1), (0.1, 0.1), {(0, 1): "0.1"}), r"cx_error\[\(0, 1\)\] must be a number, got '0\.1'"),
        ],
        ids=[
            "string-rate", "bool-rate", "list-rate", "no-table", "no-cx-table",
            "one-qubit-key", "int-key", "float-key", "bool-key", "bool-cx-rate", "string-cx-rate",
        ],
    )
    def test_constructor_classifies_ill_typed_input(self, args, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            CalibrationData(*args)

    def test_constructor_stores_tuples_of_floats(self):
        cx = {(np.int64(0), 1): 1}
        cal = CalibrationData([0, 1], [np.float64(0.5), 0], cx)
        assert cal.readout_error == (0.0, 1.0) and cal.gate_error == (0.5, 0.0)
        assert set(map(type, cal.readout_error + cal.gate_error)) == {float}
        assert cal.cx_error == {(0, 1): 1.0}
        assert [type(v) for key in cal.cx_error for v in (*key, cal.cx_error[key])] == [int, int, float]
        assert cal.cx_error is not cx

    def test_missing_cx_pair(self):
        cal = valencia_calibration()
        with pytest.raises(ValidationError):
            cal.cx_error_for(0, 4)

    def test_default_shots(self):
        assert DEFAULT_SHOTS == 8192


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


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        for seed in (0, 123, 2**70):
            children = np.random.SeedSequence(seed).spawn(40)
            expected = [int(c.generate_state(1, np.uint64)[0]) for c in children]
            assert [derive_seed(seed, i) for i in range(40)] == expected
            assert len(set(expected)) == 40
        assert derive_seed(123, 5) != derive_seed(124, 5)


def _uniform_cal(n, gate, cx):
    pairs = {(i, j): cx for i in range(n) for j in range(n) if i != j}
    return CalibrationData((0.0,) * n, (gate,) * n, pairs)


def _star(k):
    """Spin 0 joined to each of k others."""
    return Graph(k + 1, tuple((0, m) for m in range(1, k + 1)))


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
    def test_answers_beyond_any_cap(self, gate_noise):
        # spin 0 of complete(n) has degree n - 1, above the default cap of exact mode
        n = DEFAULT_MAX_QUBITS + 6
        est = estimate_entanglement_shots(
            complete(n), 0.5, 0, 100, _uniform_cal(n, 1e-3, 1e-2), gate_noise=gate_noise
        )
        assert (est.spin, est.shots) == (0, 100)

    @pytest.mark.parametrize("case", ["noiseless", "readout", "gate-noise"])
    def test_one_generator_draws_z_then_x_then_y(self, monkeypatch, case):
        # the seed contract: one default_rng(seed), three scalar binomials in
        # z, x, y order, and no substream of the estimate's seed
        def no_substreams(*_):
            raise AssertionError("estimate derived a substream")

        monkeypatch.setattr(sampling, "derive_seed", no_substreams)
        cal, gate_noise = NOISE_CASES[case]
        for phi, spin, seed in [(0.7, 1, 0), (2.1, 3, 44), (-1.2, 4, 2**70)]:
            rng = np.random.default_rng(seed)
            probabilities = sampling._read_one_probabilities(valencia(), phi, spin, cal, gate_noise)
            z, x, y = ((3000 - 2 * int(rng.binomial(3000, p))) / 3000 for p in probabilities)
            est = estimate_entanglement_shots(valencia(), phi, spin, 3000, cal, seed, gate_noise=gate_noise)
            assert est.bloch.as_tuple() == (x, y, z)

    @pytest.mark.parametrize("gate_noise", [False, True])
    def test_graph_beyond_the_cap_is_sampled_on_the_star(self, gate_noise):
        n = 40
        cx = {pair: 0.01 for i in range(n) for pair in ((i, (i + 1) % n), ((i + 1) % n, i))}
        cal = CalibrationData((0.02,) * n, (1e-3,) * n, cx)
        est = estimate_entanglement_shots(ring(n), 1.0, 7, 2000, cal, seed=4, gate_noise=gate_noise)
        assert (est.spin, est.shots) == (7, 2000)

    @pytest.mark.parametrize(
        "g,l,cal",
        [(valencia(), l, valencia_calibration()) for l in range(5)]
        + [(complete(30), 0, _uniform_cal(30, 1e-3, 1e-2))],
        ids=[f"valencia-{l}" for l in range(5)] + ["complete(30)-0"],
    )
    def test_at_most_twelve_gates_per_estimate(self, g, l, cal, monkeypatch):
        # no gate at all: each block's isometry mixes two endpoint runs built,
        # like the x and y preludes', when the module was imported
        calls = []
        kernel = statevector.apply_gate

        def counted(state, gate):
            calls.append(gate)
            return kernel(state, gate)

        monkeypatch.setattr(statevector, "apply_gate", counted)
        for _ in range(2):
            estimate_entanglement_shots(g, 0.7, l, 8192, cal, seed=1, gate_noise=True)
            assert calls == []

    def test_no_state_holds_more_than_eight_amplitudes(self, monkeypatch):
        # an estimate builds no state at all; the import-time runs hold 8
        sizes = []
        init = StateVector.__init__

        def recorded(self, n_qubits, amps):
            sizes.append(len(amps))
            init(self, n_qubits, amps)

        monkeypatch.setattr(StateVector, "__init__", recorded)
        for l in range(5):
            estimate_entanglement_shots(valencia(), 0.7, l, 100, valencia_calibration(), gate_noise=True)
        estimate_entanglement_shots(complete(30), 0.7, 0, 100, _uniform_cal(30, 1e-3, 1e-2), gate_noise=True)
        estimate_entanglement_shots(_star(200), 0.7, 0, 100)
        assert sizes == []
        sampling._isometry(synthesize_edge(0, 1, 0.7))
        assert sizes == [8]

    @pytest.mark.parametrize("r", [0.0, 0.03])
    @pytest.mark.parametrize("g", [complete(30), _star(200)], ids=["complete(30)", "star(200)"])
    def test_high_degree_within_five_sigma(self, g, r):
        n, k, phi, shots = g.n_vertices, g.degree(0), 0.05, 200_000
        cal = CalibrationData((r,) * n, (0.0,) * n, {})
        expected = (0.0, 0.0, math.cos(phi) ** k * (1 - 2 * r))
        est = estimate_entanglement_shots(g, phi, 0, shots, cal, seed=8)
        for got, mean in zip(est.bloch.as_tuple(), expected):
            assert abs(got - mean) <= 5 * math.sqrt((1 - mean * mean) / shots)

    def test_missing_star_cx_entry_rejected_with_physical_pair(self):
        cal = CalibrationData((0.0,) * 5, (0.0,) * 5, {})
        with pytest.raises(ValidationError, match="directed pair 1-3"):
            estimate_entanglement_shots(valencia(), 0.5, 3, 10, cal, gate_noise=True)

    @pytest.mark.parametrize("shots", [2.5, 2.0, "8"])
    def test_non_integer_count_rejected(self, shots):
        # 2.5 would draw 2 shots and divide the counts by 2.5, a confident wrong estimate
        with pytest.raises(ValidationError, match="shot count must be an integer"):
            estimate_entanglement_shots(valencia(), 0.3, 1, shots)

    def test_numpy_integer_count_is_an_int(self):
        est = estimate_entanglement_shots(valencia(), 0.3, 1, np.int64(100))
        assert type(est.shots) is int and est == estimate_entanglement_shots(valencia(), 0.3, 1, 100)

    def test_count_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="shot count must be below 2\\*\\*63"):
            estimate_entanglement_shots(valencia(), 0.5, 1, 2**63)

    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: derive_seed(seed, 0),
            lambda seed: estimate_entanglement_shots(valencia(), 0.5, 1, 10, seed=seed),
        ],
        ids=["derive_seed", "estimate"],
    )
    def test_negative_seed_rejected(self, call):
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            call(-1)
        with pytest.raises(ValidationError, match="seed must be an integer, got 1.5"):
            call(1.5)

    def test_bad_substream_index_rejected(self):
        with pytest.raises(ValidationError, match="substream index must be non-negative, got -1"):
            derive_seed(1, -1)
        with pytest.raises(ValidationError, match="substream index must be an integer, got 1.5"):
            derive_seed(1, 1.5)
        assert derive_seed(1, np.int64(2)) == derive_seed(1, 2)


class TestDepolarizingNoise:
    def test_zero_rates_identical_to_noiseless_sampling(self):
        bundled = valencia_calibration()
        zero_rates = {pair: 0.0 for pair in bundled.cx_error}
        for r in ((0.0,) * 5, bundled.readout_error):
            cal = CalibrationData(r, (0.0,) * 5, zero_rates)
            for spin in range(5):
                for phi, shots, seed in [(0.8, 5000, 33), (math.pi / 2, 10**12, 4)]:
                    noisy = estimate_entanglement_shots(
                        valencia(), phi, spin, shots, cal, seed, gate_noise=True
                    )
                    assert noisy == estimate_entanglement_shots(valencia(), phi, spin, shots, cal, seed)

    def test_seed_determinism(self):
        cal = _uniform_cal(3, 0.05, 0.05)
        a, b, c = (
            estimate_entanglement_shots(path(3), 0.5, 1, 4000, cal, seed, gate_noise=True)
            for seed in (4, 4, 5)
        )
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "i,bloch,value",
        [
            (1, (0.021, 0.024, 0.796), 0.1016807185184227),
            (2, (0.005, -0.022, 0.708), 0.14582031396478995),
            (3, (0.028, -0.009, 0.331), 0.3338479611921659),
        ],
        ids=["1", "2", "3"],
    )
    def test_pinned_valencia_estimates(self, i, bloch, value):
        # every pinned mean sits within 3 sigma of noisy_bloch_oracle: the
        # farthest, case 1's mean_z, at 2.43 sigma, the others within 1.25
        g, phi, spin, cal = valencia(), 0.3 * i, i % 5, valencia_calibration()
        est = estimate_entanglement_shots(g, phi, spin, 2000, cal, seed=100 + i, gate_noise=True)
        assert est.bloch.as_tuple() == bloch
        assert est.value == value
        for got, mean in zip(bloch, noisy_bloch_oracle(g, phi, spin, cal, True)):
            assert abs(got - mean) <= 3 * math.sqrt((1 - mean * mean) / 2000)

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


# rx(pi), ry(pi) and p(pi) are X, Y and Z up to a global phase, which Bloch vectors ignore
_PAULI_GATES = (
    None,
    lambda q: Gate.rx(q, math.pi),
    lambda q: Gate.ry(q, math.pi),
    lambda q: Gate.p(q, math.pi),
)


def _with_errors(gates, pattern):
    """``gates`` with Paulis after the faulty gates of an error pattern.

    A pattern is a tuple of (gate index, code) events. A single-qubit code
    1/2/3 is x/y/z on the target; a cx code packs the control's Pauli in its
    high two bits and the target's in its low two, 0 meaning identity.
    """
    errors = dict(pattern)
    out = []
    for idx, gate in enumerate(gates):
        out.append(gate)
        code = errors.get(idx, 0)
        if gate.kind == "cx":
            hits = ((code >> 2, gate.control), (code & 3, gate.target))
        else:
            hits = ((code, gate.target),)
        out.extend(_PAULI_GATES[c](q) for c, q in hits if c)
    return tuple(out)


ALL_PAIRS = [(i, j) for i in range(8) for j in range(i + 1, 8)]


def _traced_bloch(blocks, l):
    """Spin l's Bloch vector from the shots route's per-neighbour trace.

    ``blocks`` holds (neighbour, gates on physical qubits) in graph order;
    each block is relabelled onto l = 0, m = 1 and traced out through its
    own isometry.
    """
    rho = (1 + 0j, 0j), (0j, 0j)
    for m, gates in blocks:
        local = tuple(_relabel(gate, {l: 0, m: 1}) for gate in gates)
        rho = sampling._trace_out(rho, sampling._rows(sampling._isometry(local)))
    return 2 * rho[1][0].real, 2 * rho[1][0].imag, (rho[0][0] - rho[1][1]).real


@settings(max_examples=80)
@given(data=st.data())
def test_per_neighbour_trace_reduces_the_full_register_under_any_error_pattern(data):
    """Spin l's exact Bloch vector after an error pattern on the whole graph
    circuit equals the per-neighbour trace of l's blocks with the same errors."""
    n = data.draw(st.integers(2, 8), label="n")
    pairs = [(i, j) for i, j in ALL_PAIRS if j < n]
    g = Graph(n, tuple(data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")))
    l = data.draw(st.integers(0, n - 1), label="l")
    # few distinct rates, so that orientation ties are common
    rates = data.draw(st.lists(st.sampled_from([1e-3, 2e-3, 4e-3]), min_size=n, max_size=n))
    cal = CalibrationData((0.0,) * n, tuple(rates), {})
    phi = data.draw(st.floats(-2 * math.pi, 2 * math.pi), label="phi")
    full = synthesize_graph_circuit(g, phi, cal)
    events = data.draw(
        st.lists(
            st.tuples(st.integers(0, max(0, len(full) - 1)), st.integers(1, 15)),
            unique_by=lambda event: event[0],
            max_size=8 if full else 0,
        ),
        label="events",
    )
    pattern = tuple(
        (idx, code if full[idx].kind == "cx" else 1 + code % 3) for idx, code in sorted(events)
    )
    blocks = []
    for e, edge in enumerate(g.edges):
        if l in edge:
            m = edge[0] + edge[1] - l
            # the route orients (l, m) as the graph circuit orients the edge
            assert full[5 * e : 5 * e + 5] == synthesize_edge(*choose_orientation((l, m), cal), phi)
            block_pattern = tuple((idx - 5 * e, code) for idx, code in pattern if idx // 5 == e)
            blocks.append((m, _with_errors(full[5 * e : 5 * e + 5], block_pattern)))
    assert [m for m, _ in blocks] == list(g.neighbours(l))
    full_state = apply_circuit(init_zero(n), _with_errors(full, pattern))
    expected = bloch_vector(full_state, l).as_tuple()
    got = _traced_bloch(blocks, l)
    assert max(abs(a - b) for a, b in zip(expected, got)) <= 1e-9


def _isometry_circuits(monkeypatch, g, l, cal, gate_noise=False):
    """The block orientations the route builds isometries for in one estimate,
    ``True`` for a block rotating on the spin and ``False`` for one rotating
    on its neighbour, and the gates its gate-noise pass walks for the z axis."""
    runs, walked = [], []
    block, flip = sampling._block_isometry, sampling._gate_flip_probability

    def recorded_block(on_l, phi):
        runs.append(on_l)
        return block(on_l, phi)

    def recorded_flip(gates, spin, c):
        walked.append(gates)
        return flip(gates, spin, c)

    monkeypatch.setattr(sampling, "_block_isometry", recorded_block)
    monkeypatch.setattr(sampling, "_gate_flip_probability", recorded_flip)
    estimate_entanglement_shots(g, 0.5, l, 10, cal, gate_noise=gate_noise)
    return runs, walked[0] if walked else None


class TestStarOrientation:
    @pytest.mark.parametrize("cal", [None, _uniform_cal(5, 1e-3, 0.0)], ids=["none", "tied"])
    def test_ties_break_on_physical_indices(self, cal, monkeypatch):
        # spin 3's neighbours are 1 and 4: the tie with 1 rotates on 1 (the
        # neighbour, m = 1), the tie with 4 on 3 (the spin, l = 0); local
        # labels would put both rotations on l
        runs, _ = _isometry_circuits(monkeypatch, valencia(), 3, cal)
        assert runs == [False, True]

    def test_calibration_orients_on_physical_rates(self, monkeypatch):
        # bundled rates: q1 < q0 < q3 < q4 < q2, so spin 1's blocks all rotate on 1
        runs, walked = _isometry_circuits(monkeypatch, valencia(), 1, valencia_calibration(), True)
        assert runs == [True]
        assert walked == sum((synthesize_edge(1, m, 0.5) for m in (0, 2, 3)), ())
        runs, walked = _isometry_circuits(monkeypatch, valencia(), 4, valencia_calibration(), True)
        assert runs == [False]
        assert walked == synthesize_edge(3, 4, 0.5)


class TestPreludeMemo:
    """The x and y preludes' isometries are built at import and shared."""

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_cached_prelude_is_read_only(self, axis):
        v = sampling._PRELUDE_ISOMETRIES[axis]
        assert type(v) is tuple and {type(row) for row in v} == {tuple}
        assert {type(w) for row in v for w in row} == {complex}
        with pytest.raises(TypeError):
            v[0] = (0j, 0j)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_cached_prelude_is_bit_equal_to_a_fresh_build(self, axis):
        cached = sampling._PRELUDE_ISOMETRIES[axis]
        fresh = sampling._isometry(circuits.measurement_prelude(axis, 0))
        assert np.array(cached).shape == fresh.shape == (4, 2)
        assert np.array(cached).tobytes() == fresh.tobytes()


def _whole_block(on_l, phi):
    return sampling._isometry(synthesize_edge(0, 1, phi) if on_l else synthesize_edge(1, 0, phi))


class TestBlockEndpoints:
    """A block's isometry is the phi-linear mix of its whole-block runs at 0 and pi, built at import."""

    @pytest.mark.parametrize("on_l", [True, False])
    def test_endpoints_are_bit_equal_to_whole_block_runs(self, on_l):
        endpoints = sampling._BLOCK_ENDPOINTS[on_l]
        assert len(endpoints) == 2
        for cached, phi in zip(endpoints, (0.0, math.pi)):
            assert type(cached) is tuple and {type(w) for row in cached for w in row} == {complex}
            assert np.array(cached).tobytes() == _whole_block(on_l, phi).tobytes()

    @pytest.mark.parametrize("on_l", [True, False])
    @pytest.mark.parametrize("phi", [0.0, -0.0])
    def test_mix_is_bit_equal_to_the_whole_block_at_zero(self, on_l, phi):
        assert np.array(sampling._block_isometry(on_l, phi)).tobytes() == _whole_block(on_l, phi).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(on_l=st.booleans(), phi=st.floats(allow_nan=False, allow_infinity=False))
    @example(on_l=True, phi=-0.0)
    @example(on_l=False, phi=-0.0)
    @example(on_l=True, phi=5e-324)
    @example(on_l=False, phi=5e-324)
    @example(on_l=True, phi=1e10)
    @example(on_l=False, phi=1e10)
    def test_mix_is_within_2_to_the_minus_51_of_the_whole_block(self, on_l, phi):
        mixed = np.array(sampling._block_isometry(on_l, phi))
        whole = _whole_block(on_l, phi)
        assert mixed.shape == whole.shape == (4, 2)
        assert np.abs(mixed - whole).max() <= 2.0**-51


class TestSpinStateChecks:
    """An estimate runs no norm-checked gate, so the trace of each state it reads and each read-1 probability are checked."""

    @staticmethod
    def _rho(trace):
        return (trace + 0j, 0j), (0j, 0j)

    def test_trace_drift_exactly_at_the_limit_passes(self, monkeypatch):
        # a limit that a float near 1 can drift by exactly, which 1e-9 is not
        monkeypatch.setattr(sampling, "NORM_DRIFT_LIMIT", 2.0**-30)
        for trace, out in ((1 + 2.0**-30, 2.0), (1 - 2.0**-30, 0.0)):
            assert sampling._read_one(self._rho(trace)) == 0.0
            with pytest.raises(ConsistencyError, match="^spin state trace drifted by "):
                sampling._read_one(self._rho(math.nextafter(trace, out)))

    def test_trace_drift_either_side_of_the_limit(self):
        assert sampling.NORM_DRIFT_LIMIT == statevector.NORM_DRIFT_LIMIT
        for within, past in floats_at_drift_limit(statevector.NORM_DRIFT_LIMIT):
            assert sampling._read_one(self._rho(within)) == 0.0
            with pytest.raises(ConsistencyError, match="^spin state trace drifted by "):
                sampling._read_one(self._rho(past))

    def test_nan_trace_raises(self):
        with pytest.raises(ConsistencyError, match="^spin state trace drifted by nan$"):
            sampling._read_one(((math.nan + 0j, 0j), (0j, 0j)))

    def test_probability_outside_the_unit_interval_raises(self, monkeypatch):
        # trace 1 but a negative diagonal entry: numpy's binomial would raise a bare ValueError
        monkeypatch.setattr(sampling, "_spin_state", lambda blocks, l, phi: ((1.5 + 0j, 0j), (0j, -0.5 + 0j)))
        with pytest.raises(ConsistencyError, match=r"^z read-1 probability -0\.5 outside \[0, 1\]$"):
            estimate_entanglement_shots(valencia(), 0.7, 1, 100, seed=1)


RATES = st.sampled_from([0.0, 1.0, 0.5, 1e-3]) | st.floats(0.0, 1.0)


@settings(max_examples=150)
@given(data=st.data())
def test_read_one_probabilities_lie_in_the_unit_interval(data):
    n = data.draw(st.integers(2, 6), label="n")
    pairs = [(i, j) for i, j in ALL_PAIRS if j < n]
    g = Graph(n, tuple(data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")))
    cal = CalibrationData(
        tuple(data.draw(st.lists(RATES, min_size=n, max_size=n), label="readout")),
        tuple(data.draw(st.lists(RATES, min_size=n, max_size=n), label="gate")),
        {(i, j): data.draw(RATES) for i in range(n) for j in range(n) if i != j},
    )
    phi = data.draw(
        st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, 1e10, -1e15])
        | st.floats(allow_nan=False, allow_infinity=False),
        label="phi",
    )
    for l in range(n):
        for c, gate_noise in ((None, False), (cal, False), (cal, True)):
            assert all(0.0 <= p <= 1.0 for p in sampling._read_one_probabilities(g, phi, l, c, gate_noise))


@pytest.mark.parametrize("phi", [0.0, -0.0, math.pi / 2, math.pi, 2.3, 1e10, -1e15])
def test_star_read_one_probabilities_up_to_degree_200(phi):
    # past the density-matrix oracle's reach: the z axis reads (1 - cos(phi)**k) / 2, x and y 1/2
    for k in range(1, 201):
        expected = ((1 - math.cos(phi) ** k) / 2, 0.5, 0.5)
        got = sampling._read_one_probabilities(_star(k), phi, 0, None, False)
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-12


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


RATES_ONE = CalibrationData((1.0,) * 5, (1.0,) * 5, {pair: 1.0 for pair in HEAVY.cx_error})
EXACT_CASES = {**NOISE_CASES, "rates-one": (RATES_ONE, True)}


def _read_one_deviation(g, phi, l, cal, gate_noise):
    """Worst gap over the axes between the route's read-1 probability and
    the density-matrix oracle's, (1 - mean) / 2 of the whole graph circuit."""
    x, y, z = noisy_bloch_oracle(g, phi, l, cal, gate_noise)
    return max(
        abs(p - (1 - mean) / 2)
        for p, mean in zip(sampling._read_one_probabilities(g, phi, l, cal, gate_noise), (z, x, y))
    )


class TestAgainstNoisyOracle:
    """Shot estimates sit within 5 sigma of the exact noisy means of the whole circuit."""

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

    @pytest.mark.parametrize("case", NOISE_CASES)
    @pytest.mark.parametrize("spin,phi", [(1, 0.9), (3, 2.3), (4, -1.2)])
    def test_counts_are_exact_at_a_trillion_shots(self, case, spin, phi):
        # one binomial per axis makes the count cost independent of the shot
        # number; at 1e12 shots 5 sigma is 5e-6, so a noise composition off
        # by about 1e-5 fails
        shots = 10**12
        cal, gate_noise = NOISE_CASES[case]
        expected = noisy_bloch_oracle(valencia(), phi, spin, cal, gate_noise)
        est = estimate_entanglement_shots(
            valencia(), phi, spin, shots, cal, seed=32, gate_noise=gate_noise
        )
        for got, mean in zip(est.bloch.as_tuple(), expected):
            assert abs(got - mean) <= 5 * math.sqrt((1 - mean * mean) / shots)

    def test_heavy_noise_moves_the_oracle_beyond_the_band(self):
        # so the heavy case can tell gate noise from readout alone
        noisy = noisy_bloch_oracle(valencia(), 0.9, 1, HEAVY, True)[2]
        readout = noisy_bloch_oracle(valencia(), 0.9, 1, HEAVY, False)[2]
        assert readout - noisy > 10 * math.sqrt(1 / self.SHOTS)

    @pytest.mark.parametrize("case", EXACT_CASES)
    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 2, 2.3, -1.2])
    def test_read_one_probability_is_exact_on_valencia(self, case, phi):
        cal, gate_noise = EXACT_CASES[case]
        for spin in range(5):
            assert _read_one_deviation(valencia(), phi, spin, cal, gate_noise) <= 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_read_one_probability_is_exact_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5)
        cal = CalibrationData(
            tuple(rng.random(n).tolist()),
            tuple(rng.random(n).tolist()),
            {(i, j): float(rng.random()) for i in range(n) for j in range(n) if i != j},
        )
        phi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        spin = int(rng.integers(n))
        assert _read_one_deviation(Graph(n, edges), phi, spin, cal, True) <= 1e-12

    def test_gate_flip_probability_is_exact_on_clifford_circuits(self):
        # a graph state reads 1 with probability 1/2 on the x and y axes,
        # whatever the flip, so only circuits with deterministic outcomes
        # show the frame maps of rx, ry and the x bits through a cx
        one_qubit = [
            Gate.h, lambda q: Gate.p(q, math.pi),
            lambda q: Gate.rx(q, math.pi / 2), lambda q: Gate.ry(q, -math.pi / 2),
        ]
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 4))
            gates = []
            for _ in range(int(rng.integers(1, 17))):
                a, b = (int(q) for q in rng.choice(n, 2, replace=False))
                k = int(rng.integers(len(one_qubit) + 2))
                gates.append(Gate.cx(a, b) if k >= len(one_qubit) else one_qubit[k](a))
            circuit = tuple(gates)
            cal = CalibrationData(
                (0.0,) * n,
                tuple((0.2 * rng.random(n)).tolist()),
                {(i, j): 0.2 * float(rng.random()) for i in range(n) for j in range(n) if i != j},
            )
            z0 = pauli_on(n, 0, "z")
            p1, noisy = (
                (1 - np.trace(density_matrix_oracle(n, circuit, c) @ z0).real) / 2 for c in (None, cal)
            )
            q = sampling._gate_flip_probability(circuit, 0, cal)
            assert abs(q + (1 - 2 * q) * p1 - noisy) <= 1e-12

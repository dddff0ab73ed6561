import math
import re

import numpy as np
import pytest
from conftest import NON_FINITE_ANGLES
from hypothesis import given, strategies as st

from graphent import (
    BlochVector,
    EntanglementEstimate,
    Graph,
    ResourceCapError,
    ValidationError,
    analytic_entanglement,
    analytic_estimate,
    bloch_vector,
    complete,
    entanglement_from_bloch,
    evolve_edges,
    evolve_graph_exact,
    estimate_entanglement_shots,
    exact_entanglement,
    init_zero,
    ring,
    statevector,
    valencia,
)
from graphent.entanglement import _check_components
from graphent.validation import random_graph

PHI_GRID = np.linspace(0.0, 2 * math.pi, 25)


class TestAnalytic:
    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_zero_angle(self, k):
        assert analytic_entanglement(k, 0.0) == 0.0

    def test_maximal_at_half_pi_degree_one(self):
        assert abs(analytic_entanglement(1, math.pi / 2) - 0.5) < 1e-15

    def test_degree_three_at_third_pi(self):
        assert abs(analytic_entanglement(3, math.pi / 3) - 7.0 / 16.0) < 1e-15

    def test_isolated_spin_never_entangles(self):
        for phi in PHI_GRID:
            assert analytic_entanglement(0, phi) == 0.0
        assert analytic_entanglement(0, math.pi / 2) == 0.0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError):
            analytic_entanglement(-1, 0.3)

    @pytest.mark.parametrize("k", [2.5, 2.0, math.nan, "2", None])
    def test_non_integer_degree_rejected(self, k):
        with pytest.raises(ValidationError, match="degree must be an integer"):
            analytic_entanglement(k, 0.3)

    def test_numpy_integer_degree_accepted(self):
        assert analytic_entanglement(np.int64(3), 0.3) == analytic_entanglement(3, 0.3)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValidationError):
            analytic_entanglement(1, math.inf)
        with pytest.raises(ValidationError):
            analytic_entanglement(2, 10**400)

    @given(k=st.integers(0, 50), phi=st.floats(-1e6, 1e6))
    def test_range(self, k, phi):
        assert 0.0 <= analytic_entanglement(k, phi) <= 0.5

    # dyadic angles keep phi + pi, pi - phi, and -phi exactly representable,
    # so the symmetry identities must hold bit-for-bit
    @given(k=st.integers(0, 9), steps=st.integers(0, 200))
    def test_symmetries_exact_on_dyadic_angles(self, k, steps):
        phi = steps / 32.0
        value = analytic_entanglement(k, phi)
        assert analytic_entanglement(k, -phi) == value
        assert analytic_entanglement(k, phi + math.pi) == value
        assert analytic_entanglement(k, math.pi - phi) == value

    @given(k=st.integers(0, 20), phi=st.floats(-1e9, 1e9))
    def test_even_in_phi_for_all_floats(self, k, phi):
        assert analytic_entanglement(k, -phi) == analytic_entanglement(k, phi)

    @pytest.mark.parametrize("phi", [0.3, 0.8, 1.2, 1.5])
    def test_monotone_in_degree(self, phi):
        values = [analytic_entanglement(k, phi) for k in range(12)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestBlochVector:
    def test_norm(self):
        assert abs(BlochVector(0.6, 0.0, 0.8).norm() - 1.0) < 1e-15

    def test_component_out_of_range(self):
        with pytest.raises(ValidationError):
            BlochVector(1.5, 0.0, 0.0)

    def test_non_finite_component(self):
        with pytest.raises(ValidationError):
            BlochVector(math.nan, 0.0, 0.0)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, 1.000001, -1.000001])
    def test_bound_is_the_array_check_bound(self, v):
        # the same predicate and message as _check_components on an array of means
        with pytest.raises(ValidationError) as single:
            BlochVector(0.0, v, 0.0)
        with pytest.raises(ValidationError) as array:
            _check_components(np.array([[0.0, v, 0.0]]))
        assert str(single.value) == str(array.value) == f"Bloch component my={v!r} outside [-1, 1]"

    @pytest.mark.parametrize(
        "v", ["a", None, [0.5], 0.5j, np.complex128(0.5), np.complex64(0.5j), np.array(0.5j), np.array([0.1, 0.2])]
    )
    def test_non_number_component(self, v):
        with pytest.raises(ValidationError, match=rf"^Bloch component mz must be a real number, got {re.escape(repr(v))}$"):
            BlochVector(0.0, 0.0, v)


class TestFromBloch:
    def test_pure_separable(self):
        assert entanglement_from_bloch(BlochVector(0.0, 0.0, 1.0)) == 0.0

    def test_maximally_mixed(self):
        assert entanglement_from_bloch(BlochVector(0.0, 0.0, 0.0)) == 0.5

    def test_degree_three_quarter_pi(self):
        b = BlochVector(0.0, 0.0, math.cos(math.pi / 4) ** 3)
        expected = 0.5 * (1.0 - 2.0 ** (-1.5))
        assert abs(entanglement_from_bloch(b) - expected) < 1e-15

    def test_rounding_overshoot_clamped(self):
        assert entanglement_from_bloch(BlochVector(0.0, 0.0, 1.0 + 5e-10)) == 0.0

    def test_fraud_line(self):
        with pytest.raises(ValidationError):
            entanglement_from_bloch(BlochVector(0.9, 0.9, 0.9))

    def test_statistical_overshoot_allowed_when_disabled(self):
        assert entanglement_from_bloch(BlochVector(0.9, 0.9, 0.9), norm_tol=None) == 0.0


class TestExact:
    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_valencia_hub(self, phi):
        est = exact_entanglement(valencia(), phi, 1)
        assert abs(est.value - 0.5 * (1 - abs(math.cos(phi) ** 3))) < 1e-10

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_valencia_spin_3(self, phi):
        est = exact_entanglement(valencia(), phi, 3)
        assert abs(est.value - 0.5 * (1 - math.cos(phi) ** 2)) < 1e-10

    @pytest.mark.parametrize("l", range(5))
    def test_complete_graph_any_spin(self, l):
        for phi in PHI_GRID[::3]:
            est = exact_entanglement(complete(5), phi, l)
            assert abs(est.value - 0.5 * (1 - math.cos(phi) ** 4)) < 1e-10

    def test_star_evolved_by_one_call_with_the_per_edge_bits(self, monkeypatch):
        calls = []
        evolve = statevector.evolve_edges

        def counted(state, edges, phi):
            calls.append(len(edges))
            return evolve(state, edges, phi)

        monkeypatch.setattr(statevector, "evolve_edges", counted)
        for k in range(8):
            g = Graph(k + 1, tuple((0, m) for m in range(1, k + 1)))
            for phi in PHI_GRID[::4]:
                calls.clear()
                est = exact_entanglement(g, phi, 0)
                assert calls == [k]
                per_edge = init_zero(k + 1)
                for m in range(1, k + 1):
                    evolve_edges(per_edge, [(0, m)], phi)
                assert est.bloch == bloch_vector(per_edge, 0)

    def test_estimate_fields(self):
        est = exact_entanglement(valencia(), 0.9, 1)
        assert est.method == "exact"
        assert est.spin == 1
        assert est.std_error is None and est.shots is None
        assert abs(est.value - 0.5 * (1 - min(1.0, est.bloch.norm()))) < 1e-12

    def test_transverse_components_vanish(self, rng):
        for trial in range(20):
            g = random_graph(rng, 2, 6)
            phi = rng.uniform(-2 * math.pi, 2 * math.pi)
            for l in range(g.n_vertices):
                est = exact_entanglement(g, phi, l)
                assert abs(est.bloch.mx) <= 1e-12
                assert abs(est.bloch.my) <= 1e-12

    def test_agrees_with_analytic_on_random_graphs(self, rng):
        worst = 0.0
        for trial in range(30):
            g = random_graph(rng, 2, 6)
            for phi in rng.uniform(-2 * math.pi, 2 * math.pi, 5):
                for l in range(g.n_vertices):
                    exact = exact_entanglement(g, phi, l).value
                    analytic = analytic_entanglement(g.degree(l), phi)
                    worst = max(worst, abs(exact - analytic))
        assert worst <= 1e-10

    def test_isolated_vertex(self):
        g = Graph(3, ((0, 1),))
        assert exact_entanglement(g, math.pi / 2, 2).value == 0.0

    def test_spin_out_of_range(self):
        with pytest.raises(ValidationError):
            exact_entanglement(valencia(), 0.3, 5)

    def test_cap_enforced(self):
        with pytest.raises(ResourceCapError):
            exact_entanglement(complete(5), 0.3, 0, max_qubits=4)

    @pytest.mark.parametrize("phi", NON_FINITE_ANGLES)
    def test_non_finite_angle_rejected(self, phi):
        with pytest.raises(ValidationError):
            exact_entanglement(valencia(), phi, 1)

    def test_non_number_angle_rejected(self):
        with pytest.raises(ValidationError, match="angle must be a real number, got '0.3'"):
            exact_entanglement(valencia(), "0.3", 1)


class TestLightCone:
    """The exact route simulates spin l and its neighbours only; the full register is the oracle."""

    @staticmethod
    def full_register_bloch(g, phi, l):
        state = init_zero(g.n_vertices)
        evolve_graph_exact(state, g, phi)
        return bloch_vector(state, l)

    @given(seed=st.integers(0, 2**32 - 1), phi=st.floats(-2 * math.pi, 2 * math.pi))
    def test_matches_full_register(self, seed, phi):
        g = random_graph(np.random.default_rng(seed), 1, 9)
        for l in range(g.n_vertices):
            cone = exact_entanglement(g, phi, l).bloch.as_tuple()
            full = self.full_register_bloch(g, phi, l).as_tuple()
            assert max(abs(a - b) for a, b in zip(cone, full)) <= 1e-14

    def test_isolated_vertex_one_qubit_cone(self):
        g = Graph(3, ((0, 1),))
        est = exact_entanglement(g, 1.1, 2, max_qubits=1)
        assert est.spin == 2
        assert est.bloch.as_tuple() == (0.0, 0.0, 1.0)
        assert est.value == 0.0

    def test_triangle(self):
        g = complete(3)
        for l in range(3):
            cone = exact_entanglement(g, 0.7, l, max_qubits=3).bloch.as_tuple()
            full = self.full_register_bloch(g, 0.7, l).as_tuple()
            assert max(abs(a - b) for a, b in zip(cone, full)) <= 1e-14
            assert abs(cone[2] - math.cos(0.7) ** 2) <= 1e-14

    def test_large_ring(self):
        est = exact_entanglement(ring(100_000), math.pi / 4, 5)
        assert est.spin == 5
        assert abs(est.value - analytic_entanglement(2, math.pi / 4)) <= 1e-15

    def test_cap_applies_to_cone_size(self):
        assert exact_entanglement(valencia(), 0.3, 1, max_qubits=4).spin == 1
        with pytest.raises(ResourceCapError):
            exact_entanglement(valencia(), 0.3, 1, max_qubits=3)


class TestAnalyticEstimate:
    def test_bloch_is_longitudinal(self):
        est = analytic_estimate(valencia(), 0.9, 1)
        assert est.method == "analytic"
        assert est.bloch.mx == 0.0 and est.bloch.my == 0.0
        assert abs(est.bloch.mz - math.cos(0.9) ** 3) < 1e-15

    def test_signed_mz_at_obtuse_angle(self):
        est = analytic_estimate(valencia(), 2.5, 0)
        assert est.bloch.mz < 0.0
        assert abs(est.value - 0.5 * (1 - abs(est.bloch.mz))) < 1e-12

    @pytest.mark.parametrize("phi", NON_FINITE_ANGLES)
    def test_non_finite_angle_rejected(self, phi):
        with pytest.raises(ValidationError, match="non-finite angle"):
            analytic_estimate(valencia(), phi, 1)


class TestEstimateType:
    def test_bad_method(self):
        with pytest.raises(ValidationError):
            EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), "guess")

    def test_value_range(self):
        with pytest.raises(ValidationError):
            EntanglementEstimate(0, 0.7, BlochVector(0, 0, 0.0), "exact")

    def test_shots_method_consistency(self):
        with pytest.raises(ValidationError):
            EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), "exact", shots=100)

    @pytest.mark.parametrize("value", ["x", None, (0.1,), 0.1j, np.complex128(0.1), np.array([0.1, 0.2])])
    def test_non_number_value(self, value):
        with pytest.raises(ValidationError, match=rf"^entanglement value must be a real number, got {re.escape(repr(value))}$"):
            EntanglementEstimate(0, value, BlochVector(0, 0, 0.8), "exact")

    @pytest.mark.parametrize("bloch", ["str", None, (0.0, 0.0, 0.8)])
    def test_non_bloch_vector(self, bloch):
        with pytest.raises(ValidationError, match=rf"^bloch must be a BlochVector, got {re.escape(repr(bloch))}$"):
            EntanglementEstimate(0, 0.1, bloch, "exact")

    @pytest.mark.parametrize("spin", ["x", None, 1.5, 1.0, True, (1,)])
    def test_non_integer_spin(self, spin):
        with pytest.raises(ValidationError, match=rf"^spin must be an integer, got {re.escape(repr(spin))}$"):
            EntanglementEstimate(spin, 0.1, BlochVector(0, 0, 0.8), "exact")

    def test_negative_spin(self):
        with pytest.raises(ValidationError, match=r"^spin must be non-negative, got -1$"):
            EntanglementEstimate(-1, 0.1, BlochVector(0, 0, 0.8), "exact")

    def test_numpy_integer_spin_and_shots_are_ints(self):
        est = EntanglementEstimate(np.int64(3), 0.1, BlochVector(0, 0, 0.8), "shots", np.float64(0.01), np.int32(100))
        assert (type(est.spin), type(est.shots)) == (int, int)
        assert est == EntanglementEstimate(3, 0.1, BlochVector(0, 0, 0.8), "shots", 0.01, 100)

    @pytest.mark.parametrize(
        "shots,message",
        [
            (-3, "shot count must be positive, got -3"),
            (0, "shot count must be positive, got 0"),
            (1 << 63, f"shot count must be below 2**63, got {1 << 63}"),
            (2.5, "shot count must be an integer, got 2.5"),
            (True, "shot count must be an integer, got True"),
            ("x", "shot count must be an integer, got 'x'"),
        ],
    )
    def test_bad_shot_count(self, shots, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), "shots", 0.01, shots)

    @pytest.mark.parametrize("std_error", ["x", (0.1,), 0.1j, np.complex128(0.1), np.array([0.1, 0.2])])
    def test_non_number_std_error(self, std_error):
        with pytest.raises(ValidationError, match=rf"^standard error must be a real number, got {re.escape(repr(std_error))}$"):
            EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), "shots", std_error, 100)

    @pytest.mark.parametrize("std_error", [math.nan, -1.0, -5e-324, math.inf, np.float32("nan"), np.float64(-0.5)])
    def test_std_error_not_finite_and_non_negative(self, std_error):
        message = f"standard error {std_error!r} is not finite and non-negative"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), "shots", std_error, 100)

    @pytest.mark.parametrize("std_error", [0.0, -0.0, 0, 5e-324, 0.5, np.float32(0.25), 1e308])
    def test_finite_non_negative_std_error_accepted(self, std_error):
        # zero stays legal: an estimate at |m| = 1 has a zero-width error bar
        est = EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), "shots", std_error, 100)
        assert est.std_error is std_error

    @pytest.mark.parametrize("method,std_error,shots", [("exact", 0.01, None), ("analytic", 0.0, None), ("shots", None, 100)])
    def test_std_error_present_exactly_for_shots(self, method, std_error, shots):
        with pytest.raises(ValidationError, match=r"^standard error is present exactly for method='shots'$"):
            EntanglementEstimate(0, 0.1, BlochVector(0, 0, 0.8), method, std_error, shots)


@pytest.mark.parametrize(
    "estimate",
    [analytic_estimate, exact_entanglement, lambda g, phi, l: estimate_entanglement_shots(g, phi, l, 100)],
    ids=["analytic", "exact", "shots"],
)
@pytest.mark.parametrize("spin", [1.5, 1.0])
def test_non_integer_spin_gets_no_answer(estimate, spin):
    # spin 1.5 used to be answered as an isolated spin: E = 0, Bloch (0, 0, 1)
    with pytest.raises(ValidationError, match=f"spin must be an integer, got {spin}"):
        estimate(valencia(), 1.0, spin)

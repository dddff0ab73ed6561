"""Non-finite and extreme inputs at every public entry point.

Each entry either returns the right answer or raises a ``GraphentError``
subclass; a valid input must return, and an invalid one must raise.
"""

import math
import re

import numpy as np
import pytest
from conftest import noisy_bloch_oracle
from hypothesis import given, settings, strategies as st

from graphent import (
    CalibrationData,
    Gate,
    GraphentError,
    Graph,
    ValidationError,
    analytic_entanglement,
    analytic_estimate,
    choose_orientation,
    derive_seed,
    estimate_entanglement_shots,
    evolve_edges,
    exact_entanglement,
    init_zero,
    valencia,
)
from graphent.cli import parse_phi

# Each input mixes ordinary values with extreme ones, so that valid calls,
# which must return the right answer, are drawn as well as invalid ones.
EXTREME_FLOATS = st.one_of(
    st.floats(-7.0, 7.0),
    st.floats(),  # NaN and both infinities included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, math.pi, 2.0**53]),
)
# Angles add integers beyond float range, which float() cannot convert.
EXTREME_ANGLES = st.one_of(EXTREME_FLOATS, st.sampled_from([10**400, -(10**400)]))
SPINS = st.one_of(st.integers(0, 3), st.integers(-2, 6))
CAPS = st.one_of(st.integers(4, 8), st.integers(-1, 4))
SEEDS = st.one_of(st.integers(0, 2**130), st.integers(-3, 3))
SHOTS = st.one_of(st.integers(1, 400), st.integers(-2, 1))


@st.composite
def small_graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, tuple(edges))


def _finite(angle):
    try:
        return math.isfinite(angle)
    except OverflowError:
        return False


def _within(got, mean, shots):
    """Whether a mean of ``shots`` outcomes in {-1, 1} is consistent with ``mean``.

    Bernstein's inequality bounds the chance that such a mean strays ``t``
    from its expectation by 2 exp(-shots t^2 / (2 var + 4t/3)); ``t`` is set
    so that this is 1e-9, which holds at any shot count, one shot included.
    """
    var = max(0.0, 1.0 - mean * mean)
    log_odds = math.log(2e9)
    t = (4 * log_odds / 3 + math.sqrt((4 * log_odds / 3) ** 2 + 8 * shots * log_odds * var)) / (2 * shots)
    return abs(got - mean) <= t + 1e-12


@settings(max_examples=200)
@given(
    text=st.one_of(
        st.text(max_size=24),
        st.builds(repr, EXTREME_FLOATS),
        st.from_regex(r"[+-]?[0-9]{0,330}(\.[0-9]*)?\s*\*?\s*pi(/[0-9]{0,330}(\.[0-9]*)?)?", fullmatch=True),
    )
)
def test_parse_phi_returns_a_finite_angle_or_raises(text):
    try:
        phi = parse_phi(text)
    except GraphentError:
        return
    assert math.isfinite(phi)
    try:
        plain = float(text)
    except ValueError:
        return
    assert phi == plain


@settings(max_examples=200)
@given(g=small_graphs(6), phi=EXTREME_ANGLES, l=SPINS, cap=CAPS)
def test_closed_form_and_exact_routes(g, phi, l, cap):
    in_range = 0 <= l < g.n_vertices
    for route, fits in (
        (lambda: analytic_estimate(g, phi, l), True),
        (lambda: exact_entanglement(g, phi, l, cap), in_range and g.degree(l) + 1 <= cap),
    ):
        valid = _finite(phi) and in_range and fits
        try:
            est = route()
        except GraphentError:
            assert not valid
            continue
        assert valid
        k = g.degree(l)
        assert est.spin == l
        assert abs(est.value - analytic_entanglement(k, phi)) <= 1e-10
        assert abs(est.bloch.mz - math.cos(phi) ** k) <= 1e-10
        assert max(abs(est.bloch.mx), abs(est.bloch.my)) <= 1e-12


def _calibration(n):
    return CalibrationData(
        tuple(0.01 * (q + 1) for q in range(n)),
        tuple(0.01 + 0.005 * q for q in range(n)),
        {(i, j): 0.02 + 0.01 * i for i in range(n) for j in range(n) if i != j},
    )


@settings(max_examples=100)
@given(
    g=small_graphs(4),
    phi=EXTREME_ANGLES,
    l=SPINS,
    shots=SHOTS,
    seed=SEEDS,
    noise=st.sampled_from(["none", "readout", "gate", "short-table"]),
)
def test_shots_route(g, phi, l, shots, seed, noise):
    n = g.n_vertices
    cal = {"none": None, "short-table": _calibration(max(1, n - 1))}.get(noise, _calibration(n))
    gate_noise = noise == "gate"
    in_range = 0 <= l < n
    valid = (
        _finite(phi)
        and in_range
        and shots >= 1
        and seed >= 0
        and (cal is None or cal.n_qubits >= n)
    )
    try:
        est = estimate_entanglement_shots(g, phi, l, shots, cal, seed, gate_noise=gate_noise)
    except GraphentError:
        assert not valid
        return
    assert valid
    assert (est.spin, est.shots) == (l, shots)
    expected = noisy_bloch_oracle(g, phi, l, cal, gate_noise)
    assert all(_within(got, mean, shots) for got, mean in zip(est.bloch.as_tuple(), expected))


@pytest.mark.parametrize("cap", ["a", 2.5, 3.5, None, True])
def test_qubit_cap_must_be_an_integer(cap):
    message = f"qubit cap must be an integer, got {cap!r}"
    with pytest.raises(ValidationError, match=message.replace(".", r"\.")):
        init_zero(2, cap)
    with pytest.raises(ValidationError, match=message.replace(".", r"\.")):
        exact_entanglement(valencia(), 1.0, 1, cap)


def test_integer_like_qubit_cap_accepted():
    assert init_zero(2, np.int64(2)).n_qubits == 2
    assert exact_entanglement(valencia(), 1.0, 1, np.int64(4)) == exact_entanglement(valencia(), 1.0, 1, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Graph(True, ()),
        lambda: Graph(3, ((False, True),)),
        lambda: valencia().degree(True),
        lambda: analytic_entanglement(True, 1.0),
        lambda: estimate_entanglement_shots(valencia(), 1.0, 1, True),
        lambda: derive_seed(True, 0),
        lambda: derive_seed(0, True),
        lambda: init_zero(True),
    ],
    ids=["vertex-count", "edge-endpoints", "spin", "degree", "shots", "seed", "substream", "qubit-count"],
)
def test_bools_are_not_integers(call):
    with pytest.raises(ValidationError, match="must be an integer, got (True|False)"):
        call()


@pytest.mark.parametrize("cal", ["x", 0, {"gate_error": [0.1, 0.2]}])
def test_orientation_takes_calibration_data_or_none(cal):
    with pytest.raises(ValidationError, match="calibration must be CalibrationData or None"):
        choose_orientation((0, 1), cal)


@pytest.mark.parametrize("cal", ["x", 0, {"gate_error": [0.1, 0.2]}])
def test_shots_route_takes_calibration_data_or_none(cal):
    with pytest.raises(ValidationError, match="calibration must be CalibrationData or None"):
        estimate_entanglement_shots(valencia(), 1.0, 1, 10, cal)


ANGLE_ENTRIES = {
    "Gate.p": lambda phi: Gate.p(0, phi),
    "Gate.rx": lambda phi: Gate.rx(0, phi),
    "Gate.ry": lambda phi: Gate.ry(0, phi),
    "evolve_edges": lambda phi: evolve_edges(init_zero(2), [(0, 1)], phi).amps.tobytes(),
    "evolve_edges-batch": lambda phi: evolve_edges(init_zero(2, rows=2), [(0, 1)], [0.5, phi]).amps.tobytes(),
    "analytic_entanglement": lambda phi: analytic_entanglement(2, phi),
    "analytic_estimate": lambda phi: analytic_estimate(valencia(), phi, 1),
    "exact_entanglement": lambda phi: exact_entanglement(valencia(), phi, 1),
    "estimate_entanglement_shots": lambda phi: estimate_entanglement_shots(valencia(), phi, 1, 100),
}


@pytest.mark.parametrize("entry", ANGLE_ENTRIES.values(), ids=ANGLE_ENTRIES.keys())
@pytest.mark.parametrize("phi", [np.complex128(0.3 + 1j), np.complex128(0.3), np.complex64(0.3 + 1j), 0.3 + 0j])
def test_complex_angle_is_not_a_real_number(entry, phi):
    # numpy's float() of a complex scalar drops its imaginary part with a
    # warning, which used to be all a numpy complex angle met
    with pytest.raises(ValidationError, match=rf"^angle must be a real number, got {re.escape(repr(phi))}$"):
        entry(phi)


@pytest.mark.parametrize("entry", ANGLE_ENTRIES.values(), ids=ANGLE_ENTRIES.keys())
def test_float32_angle_is_its_float_value(entry):
    # float32's own value, compared without casting a float64 bound to float32
    assert entry(np.float32(0.3)) == entry(float(np.float32(0.3)))

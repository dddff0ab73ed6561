"""Non-finite and extreme inputs at every public entry point.

Each entry either returns the right answer or raises a ``GraphentError``
subclass; a valid input must return, and an invalid one must raise.
"""

import math
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import noisy_bloch_oracle
from hypothesis import given, settings, strategies as st

from graphent import (
    BlochVector,
    CalibrationData,
    EntanglementEstimate,
    Gate,
    GraphentError,
    Graph,
    ValidationError,
    analytic_entanglement,
    analytic_estimate,
    circuit_text,
    complete,
    derive_seed,
    estimate_entanglement_shots,
    exact_entanglement,
    load_calibration,
    parse_calibration,
    parse_graph,
    path,
    preset,
    ring,
    run_validation,
    synthesize_graph_circuit,
    valencia,
    valencia_calibration,
)
from graphent.circuits import choose_orientation, measurement_prelude, synthesize_edge
from graphent.entanglement import bloch_vector
from graphent.cli import parse_phi
from graphent.statevector import StateVector, evolve_edges, init_zero

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
    noise=st.sampled_from(["none", "readout", "short-table"]),
)
def test_shots_route(g, phi, l, shots, seed, noise):
    n = g.n_vertices
    cal = {"none": None, "short-table": _calibration(max(1, n - 1))}.get(noise, _calibration(n))
    in_range = 0 <= l < n
    valid = (
        _finite(phi)
        and in_range
        and shots >= 1
        and seed >= 0
        and (cal is None or cal.n_qubits >= n)
    )
    try:
        est = estimate_entanglement_shots(g, phi, l, shots, cal, seed)
    except GraphentError:
        assert not valid
        return
    assert valid
    assert (est.spin, est.shots) == (l, shots)
    expected = noisy_bloch_oracle(g, phi, l, cal)
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
    # synthesize_graph_circuit checks the calibration once, before it orients any edge
    with pytest.raises(ValidationError, match="calibration must be CalibrationData or None"):
        synthesize_graph_circuit(valencia(), 1.0, cal)


def test_synthesis_checks_a_calibration_on_a_graph_with_no_edges():
    # with no edge to orient, no check ran and the empty circuit came back
    with pytest.raises(ValidationError, match="^calibration must be CalibrationData or None, got 5$"):
        synthesize_graph_circuit(Graph(3), 1.0, 5)


@pytest.mark.parametrize(
    "route",
    [
        lambda g, cal: synthesize_graph_circuit(g, 1.0, cal),
        lambda g, cal: estimate_entanglement_shots(g, 1.0, 1, 64, cal),
    ],
    ids=["synthesis", "shots"],
)
def test_a_calibration_covers_every_vertex_an_isolated_one_too(route):
    # vertex 5 has no edge, so no block reads its rates
    with pytest.raises(ValidationError, match="^calibration covers 5 qubits, graph has 6$"):
        route(Graph(6, valencia().edges), valencia_calibration())


@pytest.mark.parametrize("gates", [5, None, [5], "h", Gate.h(0), [Gate.h(0), None]], ids=["int", "none", "list-of-int", "str", "gate", "list-with-none"])
def test_circuit_text_takes_a_collection_of_gates(gates):
    # an int or None raised TypeError, and a list of non-gates AttributeError
    with pytest.raises(ValidationError, match=rf"^circuit must be a collection of Gates, got {re.escape(repr(gates))}$"):
        circuit_text(gates)


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
    "synthesize_edge": lambda phi: synthesize_edge(0, 1, phi),
    "synthesize_graph_circuit": lambda phi: synthesize_graph_circuit(valencia(), phi),
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


@pytest.mark.parametrize("entry", ANGLE_ENTRIES.values(), ids=ANGLE_ENTRIES.keys())
@pytest.mark.parametrize("phi", [Decimal("NaN"), Decimal("sNaN"), Decimal("-NaN")], ids=["NaN", "sNaN", "-NaN"])
def test_nan_decimal_angle_is_not_a_real_number(entry, phi):
    # ordering a NaN Decimal against a float raises decimal.InvalidOperation
    with pytest.raises(ValidationError, match=rf"^angle must be a real number, got {re.escape(repr(phi))}$"):
        entry(phi)


@pytest.mark.parametrize("v", [Decimal("NaN"), Decimal("sNaN")], ids=["NaN", "sNaN"])
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: BlochVector(v, 0.0, 0.0), "Bloch component mx"),
        (lambda v: BlochVector(0.0, 0.0, v), "Bloch component mz"),
        (lambda v: EntanglementEstimate(0, v, BlochVector(0.0, 0.0, 0.8), "exact"), "entanglement value"),
        (lambda v: EntanglementEstimate(0, 0.1, BlochVector(0.0, 0.0, 0.8), "shots", v, 100), "standard error"),
    ],
    ids=["mx", "mz", "value", "std_error"],
)
def test_nan_decimal_value_is_not_a_real_number(call, what, v):
    with pytest.raises(ValidationError, match=rf"^{what} must be a real number, got {re.escape(repr(v))}$"):
        call(v)


@pytest.mark.parametrize("name", [np.array(["exact", "x"]), ["auto"], np.array("exact"), b"exact", None])
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda name: EntanglementEstimate(0, 0.1, BlochVector(0.0, 0.0, 0.8), name), "method"),
        (lambda name: Gate(name, 0), "gate kind"),
        (lambda name: measurement_prelude(name, 0), "measurement axis"),
        (lambda name: parse_graph("2\n0 1\n", name), "graph format"),
    ],
    ids=["method", "gate-kind", "prelude-axis", "graph-format"],
)
def test_a_name_that_is_no_string_is_unknown(call, what, name):
    # numpy compares an array with each name elementwise, and a list is unhashable
    with pytest.raises(ValidationError, match=rf"^unknown {what} {re.escape(repr(name))}; expected one of \("):
        call(name)


def test_numpy_string_names_are_names():
    assert parse_graph("2\n0 1\n", np.str_("auto")) == parse_graph("2\n0 1\n", "auto")
    assert measurement_prelude(np.str_("x"), 1) == measurement_prelude("x", 1)
    assert Gate(np.str_("h"), 0) == Gate("h", 0)


# The kind property: every public parameter that takes a number, a name, a
# vertex pair or a graph, with the kind of input it takes. Each drawn value
# either gives the answer that its plain Python counterpart gives, or raises a
# GraphentError; a value with no plain counterpart (a list given as a count, a
# string given as an angle, a number given as a graph or a circuit) must raise.
# Out of scope: parameters that take any other object (states, single gates,
# Bloch vectors, calibration data), text to parse, random_graph's bounds
# and entanglement_from_bloch's norm_tol.
_BLOCH = BlochVector(0.0, 0.0, 0.8)
_RATES = (0.01, 0.02, 0.03)
KIND_TABLE = [
    ("analytic_entanglement", "k", "count", lambda v: analytic_entanglement(v, 1.0)),
    ("analytic_entanglement", "phi", "angle", lambda v: analytic_entanglement(2, v)),
    ("analytic_estimate", "phi", "angle", lambda v: analytic_estimate(valencia(), v, 1)),
    ("analytic_estimate", "l", "count", lambda v: analytic_estimate(valencia(), 1.0, v)),
    ("exact_entanglement", "phi", "angle", lambda v: exact_entanglement(valencia(), v, 1)),
    ("exact_entanglement", "l", "count", lambda v: exact_entanglement(valencia(), 1.0, v)),
    ("exact_entanglement", "max_qubits", "count", lambda v: exact_entanglement(valencia(), 1.0, 1, v)),
    ("estimate_entanglement_shots", "phi", "angle", lambda v: estimate_entanglement_shots(valencia(), v, 1, 64)),
    ("estimate_entanglement_shots", "l", "count", lambda v: estimate_entanglement_shots(valencia(), 1.0, v, 64)),
    ("estimate_entanglement_shots", "shots", "count", lambda v: estimate_entanglement_shots(valencia(), 1.0, 1, v)),
    ("estimate_entanglement_shots", "seed", "count", lambda v: estimate_entanglement_shots(valencia(), 1.0, 1, 64, seed=v)),
    ("derive_seed", "seed", "count", lambda v: derive_seed(v, 1)),
    ("derive_seed", "index", "count", lambda v: derive_seed(1, v)),
    ("init_zero", "n", "count", lambda v: init_zero(v)),
    ("init_zero", "max_qubits", "count", lambda v: init_zero(2, v)),
    ("init_zero", "rows", "count", lambda v: init_zero(2, rows=v)),
    ("evolve_edges", "phi", "angle", lambda v: evolve_edges(init_zero(2), [(0, 1)], v)),
    ("evolve_edges", "phi-per-row", "rows", lambda v: evolve_edges(init_zero(2, rows=2), [(0, 1)], v)),
    ("bloch_vector", "l", "count", lambda v: bloch_vector(evolve_edges(init_zero(3), [(0, 1)], 0.7), v)),
    ("Gate", "kind", "name", lambda v: Gate(v, 0, angle=0.5)),
    ("Gate", "target", "count", lambda v: Gate("p", v, angle=0.5)),
    ("Gate", "control", "count", lambda v: Gate("cx", 1, control=v)),
    ("Gate", "angle", "rows", lambda v: Gate("p", 0, angle=v)),
    ("Gate.rx", "angle", "angle", lambda v: Gate.rx(0, v)),
    ("Gate.ry", "angle", "angle", lambda v: Gate.ry(0, v)),
    ("synthesize_edge", "r", "count", lambda v: synthesize_edge(v, 2, 0.5)),
    ("synthesize_edge", "phi", "rows", lambda v: synthesize_edge(0, 1, v)),
    ("synthesize_graph_circuit", "phi", "rows", lambda v: synthesize_graph_circuit(valencia(), v)),
    ("measurement_prelude", "axis", "name", lambda v: measurement_prelude(v, 1)),
    ("measurement_prelude", "l", "count", lambda v: measurement_prelude("x", v)),
    ("BlochVector", "mx", "real", lambda v: BlochVector(v, 0.0, 0.0)),
    ("BlochVector", "my", "real", lambda v: BlochVector(0.0, v, 0.0)),
    ("BlochVector", "mz", "real", lambda v: BlochVector(0.0, 0.0, v)),
    ("EntanglementEstimate", "spin", "count", lambda v: EntanglementEstimate(v, 0.1, _BLOCH, "exact")),
    ("EntanglementEstimate", "value", "real", lambda v: EntanglementEstimate(0, v, _BLOCH, "exact")),
    ("EntanglementEstimate", "method", "name", lambda v: EntanglementEstimate(0, 0.1, _BLOCH, v)),
    ("EntanglementEstimate", "std_error", "real", lambda v: EntanglementEstimate(0, 0.1, _BLOCH, "shots", v, 64)),
    ("EntanglementEstimate", "shots", "count", lambda v: EntanglementEstimate(0, 0.1, _BLOCH, "shots", 0.01, v)),
    ("Graph", "n_vertices", "count", lambda v: Graph(v, ((0, 1),))),
    ("Graph.neighbours", "l", "count", lambda v: valencia().neighbours(v)),
    ("Graph.degree", "l", "count", lambda v: valencia().degree(v)),
    ("complete", "n", "count", complete),
    ("path", "n", "count", path),
    ("ring", "n", "count", ring),
    ("parse_graph", "fmt", "name", lambda v: parse_graph("3\n0 1\n", v)),
    ("preset", "name", "name", preset),
    ("run_validation", "max_n", "count", lambda v: run_validation(max_n=v, trials=1)),
    ("run_validation", "trials", "count", lambda v: run_validation(max_n=2, trials=v)),
    ("run_validation", "seed", "count", lambda v: run_validation(max_n=2, trials=1, seed=v)),
    ("run_validation", "max_qubits", "count", lambda v: run_validation(max_n=2, trials=1, max_qubits=v)),
    ("Graph", "edges", "pair", lambda v: Graph(3, (v,))),
    ("evolve_edges", "edges", "pair", lambda v: evolve_edges(init_zero(3), [v], 0.7)),
    ("choose_orientation", "edge", "pair", lambda v: choose_orientation(v, _calibration(3))),
    ("CalibrationData", "cx_error", "pair", lambda v: CalibrationData(_RATES, _RATES, {v: 0.05})),
    ("exact_entanglement", "g", "graph", lambda v: exact_entanglement(v, 1.0, 0)),
    ("analytic_estimate", "g", "graph", lambda v: analytic_estimate(v, 1.0, 0)),
    ("estimate_entanglement_shots", "g", "graph", lambda v: estimate_entanglement_shots(v, 1.0, 0, 64)),
    ("synthesize_graph_circuit", "g", "graph", lambda v: synthesize_graph_circuit(v, 1.0)),
    ("circuit_text", "gates", "gates", circuit_text),
]

INVALID = object()  # the plain counterpart of a value that stands for no number or name of the kind

_COUNT_FORMS = [
    lambda n: n, np.int64, np.int16, np.array, float, np.float64, Decimal, Fraction, str, complex,
    lambda n: n == 1, lambda n: [n], lambda n: (n, n), lambda n: np.array([n, n]),
]
_REAL_FORMS = [
    lambda x: x, np.float64, np.array, Decimal, str, complex, np.complex128,
    lambda x: np.float32(x) if not abs(x) > 3e38 else x,  # a cast past float32's range warns
    lambda x: Fraction(x) if math.isfinite(x) else x,
    lambda x: int(x) if x.is_integer() else x,
    lambda x: x == 1.0,
    lambda x: [x], lambda x: (x, x), lambda x: np.array([x, math.nan]),
    lambda x: Decimal("NaN"), lambda x: Decimal("sNaN"), lambda x: None,
]
_NAME_FORMS = [
    lambda s: s, np.str_, np.array, str.encode, str.upper,
    lambda s: [s], lambda s: (s,), lambda s: np.array([s, "x"]), lambda s: None, lambda s: 1,
]
NAMES = [
    "analytic", "exact", "shots", "h", "p", "rx", "ry", "cx", "x", "y", "z",
    "edge-list", "json", "adjacency", "auto", "valencia", "ring:4", "", "pi",
]
COUNTS = st.integers(-2, 6)
REALS = st.one_of(
    st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 1e308, math.nan, math.inf, -math.inf])
)


def _formed(values, forms):
    return st.tuples(values, st.sampled_from(forms)).map(lambda pair: pair[1](pair[0]))


class _OneShot:
    """A collection that can be read once, as an iterator can; ``entries`` keeps them for the plain answer."""

    def __init__(self, entries):
        self.entries, self._iter = entries, iter(entries)

    def __iter__(self):
        return self._iter

    def __repr__(self):
        return f"_OneShot({self.entries!r})"


ENDPOINTS = st.integers(-1, 3)
_ODD_ENDPOINTS = st.one_of(
    ENDPOINTS,
    ENDPOINTS.map(np.int64),
    ENDPOINTS.map(float),
    st.booleans(),
    st.sampled_from([10**5000, -(10**5000)]),  # past str()'s digit limit
)


_ODD_REALS = _formed(REALS, _REAL_FORMS)
KIND_VALUES = {
    "count": _formed(COUNTS, _COUNT_FORMS),
    "real": _ODD_REALS,
    "angle": _ODD_REALS,
    # one angle, or a sequence of them, one per row
    "rows": st.one_of(
        _ODD_REALS,
        st.lists(_ODD_REALS, max_size=3),
        st.lists(_ODD_REALS, max_size=3).map(tuple),
        st.lists(REALS, max_size=3).map(np.array),
        st.lists(REALS, max_size=3).map(lambda xs: [xs]),
    ),
    "name": _formed(st.sampled_from(NAMES), _NAME_FORMS),
    "pair": st.one_of(
        st.tuples(ENDPOINTS, ENDPOINTS),
        st.tuples(_ODD_ENDPOINTS, _ODD_ENDPOINTS),
        st.tuples(_ODD_ENDPOINTS),
        st.tuples(_ODD_ENDPOINTS, _ODD_ENDPOINTS, _ODD_ENDPOINTS),
        st.sampled_from([0, None, "01"]),
        st.tuples(ENDPOINTS, ENDPOINTS).map(_OneShot),
    ),
    "graph": st.one_of(
        small_graphs(4),
        st.sampled_from([None, 0, 5, 1.0, "valencia", (5, ((0, 1),)), ((0, 1),), np.array([[0, 1]])]),
        st.sampled_from([_BLOCH, EntanglementEstimate(0, 0.1, _BLOCH, "exact"), Gate.h(0), _calibration(3)]),
    ),
    # a circuit: a tuple, list or one-shot iterator of gates, or anything else
    "gates": st.one_of(
        st.lists(st.sampled_from([Gate.h(1), Gate.cx(0, 2), Gate.p(0, 0.25), Gate.ry(2, -1.5)]), max_size=4).flatmap(
            lambda gates: st.sampled_from([tuple(gates), gates, _OneShot(tuple(gates))])
        ),
        st.lists(st.sampled_from([Gate.h(0), None, 5, "h", (0, 1), _BLOCH]), min_size=1, max_size=3),
        st.sampled_from([None, 0, 5, 1.0, "h q[0]", b"h", Gate.h(0), _BLOCH, _calibration(3), valencia()]),
    ),
}


def _plain_count(v):
    if type(v) is int or isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.ndarray) and v.ndim == 0 and v.dtype.kind == "i":
        return int(v)
    return INVALID


def _plain_real(v):
    if isinstance(v, Decimal):
        return INVALID if v.is_nan() else float(v)
    if isinstance(v, (int, float, Fraction, np.integer, np.floating)):  # bools included, as Python's ints
        return float(v)
    if isinstance(v, np.ndarray) and v.ndim == 0 and v.dtype.kind in "iuf":
        return float(v)
    return INVALID


def _plain_rows(v):
    if isinstance(v, (list, tuple)) or (isinstance(v, np.ndarray) and v.ndim == 1):
        plains = tuple(_plain_real(x) for x in v)
        return INVALID if any(p is INVALID for p in plains) else plains
    return _plain_real(v)


def _plain_name(v):
    return str(v) if isinstance(v, str) else INVALID


def _plain_pair(v):
    pair = v.entries if isinstance(v, _OneShot) else v
    if type(pair) is not tuple or len(pair) != 2 or any(type(x) is bool for x in pair):
        return INVALID
    plains = tuple(_plain_count(x) for x in pair)
    return INVALID if INVALID in plains else plains


def _plain_graph(v):
    return v if isinstance(v, Graph) else INVALID


def _plain_gates(v):
    v = v.entries if isinstance(v, _OneShot) else v
    if isinstance(v, (tuple, list)) and all(isinstance(g, Gate) for g in v):
        return tuple(v)
    return INVALID


PLAIN = {
    "count": _plain_count,
    "real": _plain_real,
    "angle": _plain_real,
    "rows": _plain_rows,
    "name": _plain_name,
    "pair": _plain_pair,
    "graph": _plain_graph,
    "gates": _plain_gates,
}


def _answer(result):
    """``result`` in a form ``==`` compares: a state as its size, rows and amplitude bytes."""
    if isinstance(result, StateVector):
        return result.n_qubits, result.rows, result.amps.tobytes()
    if isinstance(result, tuple):
        return tuple(_answer(r) for r in result)
    return result


@pytest.mark.parametrize(
    "kind, call", [(kind, call) for _, _, kind, call in KIND_TABLE], ids=[f"{e}-{p}" for e, p, _, _ in KIND_TABLE]
)
@settings(max_examples=60)
@given(data=st.data())
def test_odd_input_gives_the_plain_answer_or_a_graphent_error(kind, call, data):
    value = data.draw(KIND_VALUES[kind], label="value")
    plain = PLAIN[kind](value)
    try:
        got = call(value)
    except GraphentError:
        return
    assert plain is not INVALID, f"{value!r} was answered, with {got!r}"
    assert _answer(got) == _answer(call(plain))


COUNT_ENTRIES = {f"{e}-{p}": call for e, p, kind, call in KIND_TABLE if kind == "count"}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_past_the_digit_limit_is_classified(entry):
    # str() refuses ints of more than 4300 digits, so a message that echoed
    # one raised a bare ValueError; past 64 bits an int is shown by its length
    call = COUNT_ENTRIES[entry]
    with pytest.raises(GraphentError, match=" 16610-bit integer"):
        call(-(10**5000))
    if entry != "run_validation-trials":  # a valid count, but 10**5000 trials would run that many
        try:
            call(10**5000)
        except GraphentError as exc:
            assert "16610-bit integer" in str(exc)


def test_huge_seeds_keep_answering():
    assert derive_seed(10**5000, 0) == derive_seed(10**5000, 0)
    est = estimate_entanglement_shots(valencia(), 1.0, 1, 64, seed=10**5000)
    assert est == estimate_entanglement_shots(valencia(), 1.0, 1, 64, seed=10**5000)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(3, ((10**5000, 10**5000),)), "self-loop at vertex a 16610-bit integer"),
        (lambda: Graph(3, ((0, 1, 10**5000),)), "edge a tuple too long to show is not a pair of vertices"),
        (lambda: Graph(3, 10**5000), "edges a 16610-bit integer is not a collection of vertex pairs"),
        (lambda: choose_orientation((0, -(10**5000))), "negative vertex in edge (0, a 16610-bit integer)"),
        (
            lambda: CalibrationData(_RATES, _RATES, {(0, 10**5000): 0.1}),
            "cx_error key (0, a 16610-bit integer) out of range for 3 qubits",
        ),
        (lambda: init_zero(10**5000), "a 16610-bit integer qubits exceeds the cap of 24"),
        (lambda: init_zero(2, -(10**5000)), "2 qubits exceeds the cap of a 16610-bit integer"),
        (lambda: init_zero(2, rows=10**5000), "a 16610-bit integer rows of 2 qubits exceed the cap of 2**24 amplitudes"),
        (lambda: run_validation(max_n=10**5000), "max_n a 16610-bit integer exceeds the qubit cap 24"),
        (lambda: Gate.cx(10**5000, 10**5000), "cx control and target coincide at a 16610-bit integer"),
        (lambda: estimate_entanglement_shots(valencia(), 0.1, 1, 10**5000), "shot count must be below 2**63, got a 16610-bit integer"),
        (lambda: BlochVector([10**5000], 0.0, 0.0), "Bloch component mx must be a real number, got a list too long to show"),
        (lambda: measurement_prelude(10**5000, 0), "unknown measurement axis a 16610-bit integer; expected one of ('x', 'y', 'z')"),
        (lambda: init_zero(2, [10**5000]), "qubit cap must be an integer, got a list too long to show"),
        (lambda: preset(10**5000), "preset name must be a string, got a 16610-bit integer"),
        (lambda: BlochVector(0.0, 10**5000, 0.0), "Bloch component my=a 16610-bit integer outside [-1, 1]"),
        (lambda: EntanglementEstimate(0, 10**5000, _BLOCH, "exact"), "entanglement value a 16610-bit integer outside [0, 1/2]"),
        (lambda: EntanglementEstimate(0, 0.1, 10**5000, "exact"), "bloch must be a BlochVector, got a 16610-bit integer"),
        (
            lambda: EntanglementEstimate(0, 0.1, _BLOCH, "shots", -(10**5000), 64),
            "standard error a 16610-bit integer is not finite and non-negative",
        ),
        (lambda: CalibrationData((10**5000,), (0.1,), {}), "readout_error[0]=a 16610-bit integer outside [0, 1]"),
        (lambda: CalibrationData((0.1,), ([10**5000],), {}), "gate_error[0] must be a number, got a list too long to show"),
        (lambda: CalibrationData(10**5000, (0.1,), {}), "readout_error must be a sequence of rates, got a 16610-bit integer"),
        (lambda: CalibrationData(_RATES, _RATES, 10**5000), "cx_error must be a mapping of qubit pairs to rates, got a 16610-bit integer"),
        (lambda: CalibrationData(_RATES, _RATES, {(0, 1): 10**5000}), "cx_error[(0, 1)]=a 16610-bit integer outside [0, 1]"),
        (lambda: synthesize_graph_circuit(valencia(), 1.0, 10**5000), "calibration must be CalibrationData or None, got a 16610-bit integer"),
        (lambda: Graph(10**5000 + 1, ((10**5000, 1), (1, 10**5000))), "duplicate edge (1, a 16610-bit integer)"),
        (lambda: exact_entanglement(10**5000, 1.0, 0), "graph must be a Graph, got a 16610-bit integer"),
    ],
)
def test_a_message_shows_an_int_past_the_digit_limit_by_its_bit_length(call, message):
    with pytest.raises(GraphentError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: parse_graph(5, "auto"), "graph text must be a str, got 5"),
        (lambda: parse_graph(b"2\n0 1", "auto"), "graph text must be a str, got b'2\\n0 1'"),
        (lambda: parse_graph(None, "edge-list"), "graph text must be a str, got None"),
        (lambda: parse_calibration(5), "calibration text must be a str, got 5"),
        # json.loads reads bytes, so this parsed before
        (lambda: parse_calibration(b'{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {}}'),
         """calibration text must be a str, got b'{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {}}'"""),
    ],
    ids=["graph-int", "graph-bytes", "graph-none", "calibration-int", "calibration-bytes"],
)
def test_a_parser_reads_str_text_only(call, message):
    # an int raised AttributeError or TypeError, and bytes TypeError in parse_graph
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_strings_are_text():
    assert parse_graph(np.str_("2\n0 1"), "auto") == Graph(2, ((0, 1),))
    text = '{"readout_error": [0.1], "gate_error": [0.2], "cx_error": {}}'
    assert parse_calibration(np.str_(text)) == parse_calibration(text)


@pytest.mark.parametrize("path", [None, 3.5, ["cal.json"]], ids=["none", "float", "list"])
def test_calibration_path_must_be_a_path(path):
    with pytest.raises(ValidationError, match=f"^input path must be a str, bytes or os.PathLike, got {re.escape(repr(path))}$"):
        load_calibration(path)


def test_calibration_path_is_no_file_descriptor():
    # open() takes an int as a descriptor, reads it and closes it: a pipe's
    # read end, or stdout for True, was closed under the caller
    read_end, write_end = os.pipe()
    os.write(write_end, b'{"readout_error": [0.1], "gate_error": [0.1], "cx_error": {}}')
    os.close(write_end)  # so a read of the pipe ends
    try:
        with pytest.raises(ValidationError, match=f"^input path must be a str, bytes or os.PathLike, got {read_end}$"):
            load_calibration(read_end)
        os.fstat(read_end)  # still open
        assert os.read(read_end, 1) == b"{"  # and unread
    finally:
        os.close(read_end)

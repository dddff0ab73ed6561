"""Shared oracles and helpers.

The matrix-exponential oracles here build full 2^n unitaries with
scipy/numpy kron products; they share no code with the package's stride
kernels, so agreement between the two is a real cross-check.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

from graphent import synthesize_graph_circuit
from graphent.circuits import measurement_prelude
from graphent.statevector import StateVector

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Angles no entry may accept: NaN, both infinities, and integers beyond float range.
NON_FINITE_ANGLES = [
    math.inf, -math.inf, math.nan, pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400")
]

def floats_at_drift_limit(limit):
    """Per side of 1, the float farthest from 1 by at most ``limit`` and the next float out.

    No float near 1 lies exactly 1e-9 from it, so these two are the closest
    a check against a drift limit of 1e-9 can be probed.
    """
    pairs = []
    for out in (2.0, 0.0):
        x = 1.0 + limit if out > 1.0 else 1.0 - limit
        while abs(x - 1.0) > limit:
            x = math.nextafter(x, 1.0)
        while abs(math.nextafter(x, out) - 1.0) <= limit:
            x = math.nextafter(x, out)
        pairs.append((x, math.nextafter(x, out)))
    return pairs


PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(ops):
    """Full-register operator from per-qubit 2x2 factors, ops[l] acting on qubit l.

    Qubit 0 is the least significant bit, so it sits rightmost in the kron.
    """
    full = np.array([[1.0 + 0.0j]])
    for op in ops:
        full = np.kron(op, full)
    return full


def pauli_on(n, q, name):
    ops = [PAULI["i"]] * n
    ops[q] = PAULI[name]
    return kron_chain(ops)


def edge_unitary_oracle(n, i, j, phi):
    """expm(-i*(phi/2)*XiXj) on the full register."""
    return expm(-0.5j * phi * pauli_on(n, i, "x") @ pauli_on(n, j, "x"))


def graph_unitary_oracle(g, phi):
    u = np.eye(1 << g.n_vertices, dtype=complex)
    for i, j in g.edges:
        u = edge_unitary_oracle(g.n_vertices, i, j, phi) @ u
    return u


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps.astype(np.complex128))


def _one_qubit_matrix(gate):
    if gate.kind == "h":
        return (PAULI["x"] + PAULI["z"]) / np.sqrt(2.0)
    if gate.kind == "p":
        return np.diag([1.0, np.exp(1j * gate.angle)])
    # rx, ry: exp(-i*angle*P/2) = cos(angle/2) - i sin(angle/2) P, which stays finite at any angle
    half = 0.5 * gate.angle
    return np.cos(half) * PAULI["i"] - 1j * np.sin(half) * PAULI[gate.kind[1]]


def gate_unitary_oracle(n, gate):
    """A circuit gate as a full-register matrix."""
    if gate.kind != "cx":
        ops = [PAULI["i"]] * n
        ops[gate.target] = _one_qubit_matrix(gate)
        return kron_chain(ops)
    ops0, ops1 = [PAULI["i"]] * n, [PAULI["i"]] * n
    ops0[gate.control] = np.diag([1.0, 0.0])
    ops1[gate.control] = np.diag([0.0, 1.0])
    ops1[gate.target] = PAULI["x"]
    return kron_chain(ops0) + kron_chain(ops1)


def density_matrix_oracle(n, gates):
    """``gates`` run on ``n`` qubits from rho = |0><0|, as a density matrix.

    Kept to n <= 6, where rho has 4**6 entries.
    """
    assert n <= 6, "density matrix oracle is kept to n <= 6"
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in gates:
        u = gate_unitary_oracle(n, gate)
        rho = u @ rho @ u.conj().T
    return rho


def noisy_bloch_oracle(g, phi, l, cal=None):
    """Exact (<X_l>, <Y_l>, <Z_l>) as the shots route measures them.

    Runs the whole graph circuit plus each axis's measurement prelude through
    :func:`density_matrix_oracle`. Readout error r_l scales each mean by
    1 - 2 r_l.
    """
    n = g.n_vertices
    base = synthesize_graph_circuit(g, phi, cal)
    z_l = pauli_on(n, l, "z")
    means = []
    for axis in "xyz":
        rho = density_matrix_oracle(n, base + measurement_prelude(axis, l))
        mean = float(np.trace(rho @ z_l).real)
        means.append(mean if cal is None else mean * (1.0 - 2.0 * cal.readout_error[l]))
    return tuple(means)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

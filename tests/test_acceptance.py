"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from graphent import (
    analytic_entanglement,
    complete,
    estimate_entanglement_shots,
    exact_entanglement,
    synthesize_graph_circuit,
    valencia,
    valencia_calibration,
)
from graphent.circuits import apply_circuit, measurement_prelude
from graphent.entanglement import bloch_vector, entanglement_from_bloch
from graphent.statevector import apply_gate, evolve_edges, init_zero, overlap_magnitude, pauli_means
from graphent.validation import random_graph

from conftest import random_state

PHI_GRID_64 = np.linspace(0.0, 2.0 * math.pi, 64)
HUB_TARGET_AT_QUARTER_PI = 0.5 * (1.0 - 2.0 ** (-1.5))  # 0.32322...


def _report(num, ok, description, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {description}{detail}")
    assert ok, f"criterion {num}: {description}{detail}"


@lru_cache(maxsize=None)
def _grid_blochs(which):
    """(graph, [(phi, [BlochVector per spin])...]) for the named fixed graph."""
    g = valencia() if which == "valencia" else complete(5)
    rows = []
    for phi in PHI_GRID_64:
        state = init_zero(g.n_vertices)
        evolve_edges(state, g.edges, phi)
        rows.append((phi, [bloch_vector(state, l) for l in range(g.n_vertices)]))
    return g, rows


@lru_cache(maxsize=None)
def _random_sample():
    """200 random graphs (n in [2, 6]), 25 angles each, Bloch vectors per vertex."""
    rng = np.random.default_rng(20260808)
    sample = []
    for _ in range(200):
        g = random_graph(rng, 2, 6)
        phis = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 25)
        per_phi = []
        for phi in phis:
            state = init_zero(g.n_vertices)
            evolve_edges(state, g.edges, phi)
            per_phi.append((phi, [bloch_vector(state, l) for l in range(g.n_vertices)]))
        sample.append((g, per_phi))
    return sample


def test_criterion_1_valencia_closed_forms():
    start = time.perf_counter()
    g, rows = _grid_blochs("valencia")
    targets = {
        0: lambda c: 0.5 * (1 - abs(c)),
        1: lambda c: 0.5 * (1 - abs(c**3)),
        2: lambda c: 0.5 * (1 - abs(c)),
        3: lambda c: 0.5 * (1 - c**2),
        4: lambda c: 0.5 * (1 - abs(c)),
    }
    worst = 0.0
    for phi, blochs in rows:
        c = math.cos(phi)
        for l in range(5):
            value = entanglement_from_bloch(blochs[l])
            worst = max(worst, abs(value - targets[l](c)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        "valencia per-spin closed forms on 64-point grid",
        f" (worst={worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_complete_graph_closed_form():
    start = time.perf_counter()
    g, rows = _grid_blochs("k5")
    worst = 0.0
    for phi, blochs in rows:
        target = 0.5 * (1 - math.cos(phi) ** 4)
        for l in range(5):
            worst = max(worst, abs(entanglement_from_bloch(blochs[l]) - target))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst <= 1e-10 and elapsed < 2.0,
        "complete-graph closed form for every spin",
        f" (worst={worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_oracle_equivalence_at_scale():
    start = time.perf_counter()
    worst = 0.0
    for g, per_phi in _random_sample():
        degrees = [g.degree(l) for l in range(g.n_vertices)]
        for phi, blochs in per_phi:
            for l, b in enumerate(blochs):
                exact = entanglement_from_bloch(b)
                analytic = analytic_entanglement(degrees[l], phi)
                worst = max(worst, abs(exact - analytic))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= 1e-10 and elapsed < 30.0,
        "analytic vs exact on 200 random graphs x 25 angles x all vertices",
        f" (worst={worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_4_circuit_synthesis_fidelity():
    worst_deficit = 0.0
    for g in (valencia(), complete(5)):
        for phi in PHI_GRID_64:
            dense = init_zero(g.n_vertices)
            evolve_edges(dense, g.edges, phi)
            synthesized = init_zero(g.n_vertices)
            apply_circuit(synthesized, synthesize_graph_circuit(g, phi))
            worst_deficit = max(
                worst_deficit, 1.0 - overlap_magnitude(synthesized, dense)
            )
    _report(
        4,
        worst_deficit <= 1e-12,
        "synthesized circuits match dense evolution up to global phase",
        f" (worst overlap deficit={worst_deficit:.2e})",
    )


def test_criterion_5_transverse_means_vanish():
    worst = 0.0
    for which in ("valencia", "k5"):
        for phi, blochs in _grid_blochs(which)[1]:
            for b in blochs:
                worst = max(worst, abs(b.mx), abs(b.my))
    for g, per_phi in _random_sample():
        for phi, blochs in per_phi:
            for b in blochs:
                worst = max(worst, abs(b.mx), abs(b.my))
    _report(
        5,
        worst <= 1e-12,
        "x and y means vanish for every state in criteria 1-3",
        f" (worst={worst:.2e})",
    )


def test_criterion_6_measurement_protocol_correctness():
    worst = 0.0
    for axis in ("x", "y", "z"):
        for seed in range(100):
            state = random_state(1, seed=7000 + seed)
            target = pauli_means(state, 0)["xyz".index(axis)]
            for gate in measurement_prelude(axis, 0):
                apply_gate(state, gate)
            worst = max(worst, abs(pauli_means(state, 0)[2] - target))
    _report(
        6,
        worst <= 1e-12,
        "prelude-then-z equals direct axis expectation, sign included",
        f" (worst={worst:.2e})",
    )


def test_criterion_7_shot_convergence():
    start = time.perf_counter()
    g = valencia()
    hits = 0
    for seed in range(100):
        est = estimate_entanglement_shots(g, math.pi / 4, 1, 100_000, seed=seed)
        if abs(est.value - HUB_TARGET_AT_QUARTER_PI) <= 3 * est.std_error:
            hits += 1
    elapsed = time.perf_counter() - start
    _report(
        7,
        hits >= 99 and elapsed < 60.0,
        "noiseless 1e5-shot estimate within 3 sigma of 0.32322",
        f" ({hits}/100 seeds, {elapsed:.1f}s)",
    )


def test_criterion_8_readout_noise_bias():
    est = estimate_entanglement_shots(
        valencia(), 0.0, 1, 100_000, valencia_calibration(), seed=2026
    )
    deviation = abs(est.value - 0.0292)
    _report(
        8,
        deviation <= 3 * est.std_error,
        "readout-corrupted estimate at phi=0 lands on the q1 flip rate 0.0292",
        f" (value={est.value:.4f}, |dev|={deviation:.1e}, 3sigma={3 * est.std_error:.1e})",
    )


def test_criterion_9_symmetry_suite():
    # dyadic angles keep phi + pi, pi - phi, and -phi exactly representable
    dyadic = [i / 8.0 for i in range(16)]
    sample = _random_sample()
    exact_analytic = True
    for g, _ in sample:
        for l in range(g.n_vertices):
            k = g.degree(l)
            for phi in dyadic:
                v = analytic_entanglement(k, phi)
                if (
                    analytic_entanglement(k, -phi) != v
                    or analytic_entanglement(k, phi + math.pi) != v
                    or analytic_entanglement(k, math.pi - phi) != v
                ):
                    exact_analytic = False
    worst_exact = 0.0
    for g, _ in sample[:40]:
        for phi in (0.375, 0.875, 1.25):
            states = {}
            for angle in (phi, -phi, phi + math.pi, math.pi - phi):
                s = init_zero(g.n_vertices)
                evolve_edges(s, g.edges, angle)
                states[angle] = s
            for l in range(g.n_vertices):
                base = entanglement_from_bloch(bloch_vector(states[phi], l))
                for angle in (-phi, phi + math.pi, math.pi - phi):
                    other = entanglement_from_bloch(bloch_vector(states[angle], l))
                    worst_exact = max(worst_exact, abs(base - other))
    _report(
        9,
        exact_analytic and worst_exact <= 1e-10,
        "E(phi)=E(-phi)=E(phi+pi)=E(pi-phi): bit-exact analytic, exact mode within 1e-10",
        f" (analytic bit-exact={exact_analytic}, exact-mode worst={worst_exact:.2e})",
    )


def test_criterion_11_light_cone_equals_full_register():
    start = time.perf_counter()
    worst = 0.0
    for g, per_phi in _random_sample():
        for phi, blochs in per_phi:
            for l, full in enumerate(blochs):
                cone = exact_entanglement(g, phi, l).bloch
                worst = max(
                    worst, *(abs(a - b) for a, b in zip(cone.as_tuple(), full.as_tuple()))
                )
    elapsed = time.perf_counter() - start
    _report(
        11,
        worst <= 1e-14 and elapsed < 30.0,
        "light-cone Bloch vectors vs full register on 200 random graphs x 25 angles",
        f" (worst={worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_10_hardware_scope_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    text = readme.lower()
    documented = "hardware" in text and "not reproduc" in text
    substitutes = all(
        name in globals()
        for name in ("test_criterion_7_shot_convergence", "test_criterion_8_readout_noise_bias")
    )
    _report(
        10,
        documented and substitutes,
        "hardware data marked out of scope; criteria 7-8 stand in for it",
        f" (README documents limitation={documented})",
    )

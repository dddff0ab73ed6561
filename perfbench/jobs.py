"""Seeded inputs, job execution and output checks for the three workloads.

A workload is a pool of jobs built from one seed. Every job is one
``graphent.cli.main([...])`` call made in-process. graphent sees only the
generated files and arguments; the expectations the checks use are computed
here, from the generator's own record of each input.

The pools are small, so that a run repeats every job many times, and
stratified, so that their total cost barely depends on the seed: every size
class holds a fixed number of jobs, and angles are drawn one per stratum of
[0, pi).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from graphent import cli, validation

WORKLOADS = ("exact-sparse", "shots-readout", "validate")

MAX_DEGREE = 3
SHOT_SIZES = range(6, 13)
# Exact jobs per qubit count: fewer as the state grows, so that no size class
# takes much more of a pass than the others.
EXACT_JOBS = {12: 8, 13: 8, 14: 8, 15: 8, 16: 4, 17: 2, 18: 1}
SHOT_JOBS_PER_SIZE = 8
SHOTS = 8192
VALIDATE_JOBS = 10
VALIDATE_MAX_N = 6
# Vertex counts of a validate job's trial graphs, one graph each, and their
# total edge count: half of all possible edges, the mean of random_graph.
VALIDATE_SIZES = list(range(2, VALIDATE_MAX_N + 1))
VALIDATE_TRIALS = len(VALIDATE_SIZES)
VALIDATE_EDGES = sum(n * (n - 1) for n in VALIDATE_SIZES) // 4
FORMATS = ("edge-list", "json", "adjacency")

# Ranges of the bundled IBM Q Valencia table, so synthetic devices look real.
READOUT_RANGE = (0.0161, 0.065)
GATE_ERROR_RANGE = (3.14e-4, 1.098e-3)
CX_ERROR_RANGE = (7.70e-3, 2.368e-2)

EXACT_TOL = 1e-10
TRANSVERSE_TOL = 1e-12
SIGMAS = 5.0


@dataclass(frozen=True)
class Job:
    """One call into graphent plus what the check needs to judge its output."""

    index: int
    n: int
    phi: float
    spin: int
    degree: int
    argv: tuple[str, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    readout: float = 0.0
    seed: int = 0


def sparse_graph(rng: np.random.Generator, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Uniformly grown connected simple graph with ``m`` edges and maximum degree 3.

    Connected, because every extra component halves the number of distinct
    z outcomes and with it the cost of a shot job.
    """
    while True:
        degree = [0] * n
        edges: set[tuple[int, int]] = set()
        while len(edges) < m:
            free = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if degree[i] < MAX_DEGREE and degree[j] < MAX_DEGREE and (i, j) not in edges
            ]
            if not free:
                break
            i, j = free[int(rng.integers(len(free)))]
            edges.add((i, j))
            degree[i] += 1
            degree[j] += 1
        if len(edges) == m and _connected(n, edges):
            return tuple(sorted(edges))


def _connected(n: int, edges) -> bool:
    reached, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for i, j in edges:
            w = j if i == v else i if j == v else None
            if w is not None and w not in reached:
                reached.add(w)
                frontier.append(w)
    return len(reached) == n


def edge_count(n: int) -> int:
    """Mean degree 2.5: sparse, yet almost every spin has a neighbour."""
    return (5 * n) // 4


def graph_text(n: int, edges, fmt: str, rng: np.random.Generator) -> str:
    """Serialize independently of graphent, with edges shuffled and flipped."""
    pairs = [edges[k] for k in rng.permutation(len(edges))]
    pairs = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs]
    if fmt == "edge-list":
        return f"# seeded sparse graph\n{n}\n" + "".join(f"{i} {j}\n" for i, j in pairs)
    if fmt == "json":
        return json.dumps({"n": n, "edges": [[int(i), int(j)] for i, j in pairs]})
    rows = [[0] * n for _ in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = 1
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def calibration_json(n: int, edges, rng: np.random.Generator) -> tuple[str, list[float]]:
    """Synthetic device table covering both directions of every edge."""
    readout = [float(p) for p in rng.uniform(*READOUT_RANGE, n)]
    gate = [float(p) for p in rng.uniform(*GATE_ERROR_RANGE, n)]
    cx = {}
    for i, j in edges:
        cx[f"{i}-{j}"] = float(rng.uniform(*CX_ERROR_RANGE))
        cx[f"{j}-{i}"] = float(rng.uniform(*CX_ERROR_RANGE))
    return json.dumps({"readout_error": readout, "gate_error": gate, "cx_error": cx}), readout


def stratified_angles(rng: np.random.Generator, count: int) -> list[float]:
    return [float(math.pi * (k + rng.random()) / count) for k in rng.permutation(count)]


def degree_of(edges, spin: int) -> int:
    return sum(spin in e for e in edges)


def _graph_jobs(workload, rng, workdir: Path, sizes: dict[int, int]) -> list[Job]:
    jobs = []
    for n, count in sizes.items():
        for phi in stratified_angles(rng, count):
            k = len(jobs)
            edges = sparse_graph(rng, n, edge_count(n))
            spin = int(rng.integers(n))
            fmt = FORMATS[k % len(FORMATS)]
            graph_file = workdir / f"graph{k}.{fmt}"
            graph_file.write_text(graph_text(n, edges, fmt, rng), encoding="utf-8")
            argv = ["entangle", "--graph", str(graph_file), "--phi", repr(phi), "--spin", str(spin)]
            readout = 0.0
            seed = 0
            if workload == "exact-sparse":
                argv += ["--mode", "exact"]
            else:
                text, readouts = calibration_json(n, edges, rng)
                readout = readouts[spin]
                cal_file = workdir / f"calibration{k}.json"
                cal_file.write_text(text, encoding="utf-8")
                seed = int(rng.integers(2**31))
                argv += ["--mode", "shots", "--shots", str(SHOTS),
                         "--calibration", str(cal_file), "--seed", str(seed)]
            jobs.append(Job(k, n, phi, spin, degree_of(edges, spin), tuple(argv), edges, readout, seed))
    return jobs


def validate_seeds(rng: np.random.Generator, count: int) -> list[int]:
    """Distinct seeds whose trial graphs have one each of ``VALIDATE_SIZES``
    vertices and ``VALIDATE_EDGES`` edges in all.

    ``validate --seed s`` draws its trial graphs with ``random_graph`` from
    ``default_rng(s)``. A job's cost follows the number of vertices and edges
    it simulates, so fixing both keeps the pool's cost from swinging with the
    seed.
    """
    seeds: list[int] = []
    while len(seeds) < count:
        s = int(rng.integers(2**31))
        draw = np.random.default_rng(s)
        trial = [validation.random_graph(draw, 2, VALIDATE_MAX_N) for _ in VALIDATE_SIZES]
        if (sorted(g.n_vertices for g in trial) == VALIDATE_SIZES
                and sum(len(g.edges) for g in trial) == VALIDATE_EDGES and s not in seeds):
            seeds.append(s)
    return seeds


def build_pool(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job pool for ``seed``, in a seeded order; writes input files."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload in ("exact-sparse", "shots-readout"):
        sizes = EXACT_JOBS if workload == "exact-sparse" else dict.fromkeys(SHOT_SIZES, SHOT_JOBS_PER_SIZE)
        jobs = _graph_jobs(workload, rng, workdir, sizes)
    elif workload == "validate":
        jobs = [
            Job(k, VALIDATE_MAX_N, 0.0, 0, 0, seed=s,
                argv=("validate", "--trials", str(VALIDATE_TRIALS), "--max-n", str(VALIDATE_MAX_N), "--seed", str(s)))
            for k, s in enumerate(validate_seeds(rng, VALIDATE_JOBS))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


def run_job(job: Job) -> tuple[int, str]:
    """Exit code and captured stdout of one job.

    Modules are reached through their attributes at call time, so the traced
    run's wrappers are the ones called.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return code, out.getvalue()


def _within(value: float, expected: float, shots: int) -> bool:
    return abs(value - expected) <= SIGMAS * math.sqrt((1.0 - expected * expected) / shots)


def check(workload: str, job: Job, code: int, out: str) -> str | None:
    """None when the output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if workload == "validate":
        return None if out.rstrip().endswith("validation passed") else "validation did not pass"
    try:
        record = json.loads(out)
        e = float(record["entanglement"])
        mx, my, mz = (float(v) for v in record["bloch"])
        shots = record["shots"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed record: {exc}"
    cos_k = math.cos(job.phi) ** job.degree
    if workload == "exact-sparse":
        if record["graph"] != {"n": job.n, "edges": [list(p) for p in job.edges]}:
            return "parsed graph differs from the generated one"
        if abs(e - 0.5 * (1.0 - abs(cos_k))) > EXACT_TOL:
            return f"E={e!r} misses the closed form for k={job.degree}"
        if max(abs(mx), abs(my)) > TRANSVERSE_TOL:
            return f"transverse means ({mx!r}, {my!r}) do not vanish"
        return None
    bias = 1.0 - 2.0 * job.readout
    if workload == "shots-readout":
        if shots != SHOTS:
            return f"shots={shots!r}"
        for axis, value, expected in (("x", mx, 0.0), ("y", my, 0.0), ("z", mz, cos_k * bias)):
            if not _within(value, expected, SHOTS):
                return f"mean_{axis}={value!r} beyond {SIGMAS} standard errors of {expected!r}"
        return None
    raise ValueError(f"unknown workload {workload!r}")

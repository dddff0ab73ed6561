"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@functools.cache
def result(workload: str, seed: int, trace: int) -> dict:
    done = run_bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    got = result(workload, 1, trace)
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    assert {name: m["unit"] for name, m in got["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS) == list(run.WORKLOADS)
    assert spans.METRICS == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_per_layer_counts_repeat_across_traced_runs():
    first = result("shots-readout", 2, 1)["metrics"]
    again = json.loads(run_bench("shots-readout", 2, 1).stdout.splitlines()[-1])["metrics"]
    counts = [n for n, unit in spans.METRICS.items() if unit not in spans.TIMED_UNITS]
    assert counts
    assert {n: first[n] for n in counts} == {n: again[n] for n in counts}


def test_seed_changes_inputs_not_metric_set(tmp_path):
    for workload in jobs.WORKLOADS:
        one, two = tmp_path / f"{workload}-1", tmp_path / f"{workload}-2"
        one.mkdir()
        two.mkdir()
        pool1 = jobs.build_pool(workload, 1, one)
        pool2 = jobs.build_pool(workload, 2, two)
        strip = lambda pool: [(j.phi, j.spin, j.edges, j.seed) for j in pool]  # noqa: E731
        assert strip(pool1) != strip(pool2)
        assert len(pool1) == len(pool2)
        assert sorted(j.n for j in pool1) == sorted(j.n for j in pool2)
    assert result("shots-readout", 1, 0)["metrics"].keys() == result("shots-readout", 3, 0)["metrics"].keys()


def test_same_seed_gives_same_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pool_a = jobs.build_pool("shots-readout", 5, tmp_path / "a")
    pool_b = jobs.build_pool("shots-readout", 5, tmp_path / "b")
    assert [(j.phi, j.spin, j.edges, j.seed, j.readout) for j in pool_a] == [
        (j.phi, j.spin, j.edges, j.seed, j.readout) for j in pool_b
    ]
    for a, b in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
        assert a.read_text() == b.read_text()


def _first_output(workload, tmp_path, key=None):
    pool = jobs.build_pool(workload, 4, tmp_path)
    job = max(pool, key=key) if key else pool[0]
    code, out = jobs.run_job(job)
    assert jobs.check(workload, job, code, out) is None
    return job, code, out


def _with(out: str, **changes) -> str:
    record = json.loads(out)
    record.update(changes)
    return json.dumps(record)


def test_check_rejects_perturbed_exact_record(tmp_path):
    job, code, out = _first_output("exact-sparse", tmp_path)
    record = json.loads(out)
    mx, my, mz = record["bloch"]
    bad = [
        _with(out, entanglement=record["entanglement"] + 1e-9),
        _with(out, bloch=[mx + 1e-11, my, mz]),
        _with(out, graph={"n": job.n, "edges": record["graph"]["edges"][1:]}),
        out[: len(out) // 2],
    ]
    for perturbed in bad:
        assert jobs.check("exact-sparse", job, code, perturbed) is not None
    assert jobs.check("exact-sparse", job, 2, out) is not None


def test_check_rejects_perturbed_shot_record(tmp_path):
    job, code, out = _first_output("shots-readout", tmp_path)
    record = json.loads(out)
    mx, my, mz = record["bloch"]
    five_sigma = jobs.SIGMAS / math.sqrt(jobs.SHOTS)
    for bloch in ([mx + 2 * five_sigma, my, mz], [mx, my - 2 * five_sigma, mz], [mx, my, -mz if abs(mz) > 0.2 else mz + 0.2]):
        assert jobs.check("shots-readout", job, code, _with(out, bloch=bloch)) is not None
    assert jobs.check("shots-readout", job, code, _with(out, shots=1024)) is not None


def test_check_rejects_failed_validation(tmp_path):
    job, code, out = _first_output("validate", tmp_path)
    assert jobs.check("validate", job, 4, out.replace("validation passed", "validation FAILED")) is not None
    assert jobs.check("validate", job, 0, out.replace("validation passed", "")) is not None


def test_tracer_counts_match_the_input(tmp_path):
    job = next(j for j in jobs.build_pool("exact-sparse", 6, tmp_path) if j.n == 12)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, out = jobs.run_job(job)
    finally:
        tracer.uninstall()
    assert jobs.check("exact-sparse", job, code, out) is None
    m = tracer.metrics(1, 0.0)
    assert m["statevector.init_zero.calls"] == 1
    assert m["statevector.evolve_edge.calls"] == len(job.edges)
    assert m["statevector.peak_state_mb"] == (16 << 12) / 2**20
    assert m["statevector.apply_gate.calls"] == 0
    assert m["cli.self_ms"] > 0
    layer_total = sum(m[f"{layer}.self_ms"] for layer in spans.LAYERS)
    arrays = tracer.arrays()
    root = arrays["parent"] == -1
    assert layer_total == pytest.approx(1e3 * float((arrays["end"] - arrays["start"])[root].sum()))
    assert jobs.run_job(job) == (code, out)  # wrappers removed, output unchanged


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("exact-sparse", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

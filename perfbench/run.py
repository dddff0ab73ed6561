"""graphent benchmark: closed loop, one client, one process, one thread.

    python3 perfbench/run.py --workload exact-sparse --seed 1 --seconds 40 --trace 0

Builds the workload's job pool from ``--seed``, runs whole passes over it
for at most ``--seconds`` seconds, checks every output, and prints one line
per metric followed by a JSON result as the last line. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from the traced ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("exact-sparse", "shots-readout", "validate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 12
BLAS_THREADS = 1
SETUP_CODE = (
    "import time\n"
    "import graphent.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes of cpu0 in bytes, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        factor = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        sizes[f"L{level}"] = int(size.rstrip("KMG")) * factor
    return sizes


def environment(threads: str, largest_state: int) -> dict:
    import numpy
    import graphent

    caches = cache_sizes()
    llc = caches[max(caches)] if caches else None
    below = llc is not None and largest_state < 4 * llc
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "graphent": graphent.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: threads for var in BLAS_THREAD_VARS},
        "cache_bytes": caches,
        "largest_state_bytes": largest_state,
        "state_vs_4x_llc": None if llc is None else largest_state / (4 * llc),
        "note": ("no state array reaches 4x LLC, so " if below else "")
        + "bandwidth figures are computed from state sizes, not measured, and no "
        "memory-bandwidth claim is made",
    }


def measure_setup(starts: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import graphent.cli`` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(starts):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return times


class Outcomes:
    """Exit codes and outputs of every job run; failures are counted per run."""

    def __init__(self, workload, jobs_module):
        self.workload = workload
        self.jobs = jobs_module
        self.first: dict[int, tuple] = {}  # job index -> (job, first result)
        self.runs: Counter = Counter()
        self.differs: Counter = Counter()

    def execute(self, job) -> None:
        try:
            result = self.jobs.run_job(job)
        except Exception as exc:  # a raising job is a failed job, not a crashed benchmark
            result = (-1, f"{type(exc).__name__}: {exc}")
        self.runs[job.index] += 1
        if self.first.setdefault(job.index, (job, result))[1] != result:
            self.differs[job.index] += 1

    def failures(self) -> tuple[int, int, dict[int, str]]:
        """(attempted, failed, reasons): a run fails when its job's output is
        wrong or differs from the first run of the same job."""
        failed, reasons = 0, {}
        for index, (job, (code, out)) in self.first.items():
            reason = self.jobs.check(self.workload, job, code, out)
            if reason is not None:
                failed += self.runs[index]
            elif self.differs[index]:
                failed += self.differs[index]
                reason = f"output differs in {self.differs[index]} of {self.runs[index]} runs"
            if reason is not None:
                reasons[index] = reason
        return sum(self.runs.values()), failed, reasons


def end_to_end(pool, outcomes, seconds):
    """Whole passes over the pool for at most ``seconds``.

    Other tenants of the machine slow it in bursts, so a job's latency is the
    fastest of its runs (one per pass); the pools are small enough that every
    job runs many times. Interpreter starts are spread evenly over the run,
    and no pass starts that would end after ``seconds``.
    """
    measure_setup(1)  # compiles bytecode, which users pay once
    setup = []
    best = [math.inf] * len(pool)
    passes = 0
    pass_s = 0.0
    start = time.perf_counter()
    while not passes or (elapsed := time.perf_counter() - start) + pass_s <= seconds:
        t0 = time.perf_counter()
        if not passes or len(setup) < SETUP_STARTS * elapsed / seconds:
            setup += measure_setup(1)
        for k, job in enumerate(pool):
            t = time.perf_counter()
            outcomes.execute(job)
            best[k] = min(best[k], time.perf_counter() - t)
        passes += 1
        pass_s = time.perf_counter() - t0
    ms = [1e3 * x for x in best]
    runs = f"{len(ms)} jobs, fastest of {passes} runs each"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} interpreter starts"),
        ("jobs_per_s", 1e3 * len(ms) / sum(ms), "1/s", runs),
        ("job_ms.p50", statistics.median(ms), "ms", runs),
        ("peak_rss_mb", rss_mb, "MB", "1 process"),
    ]


def per_layer(pool, outcomes, seconds, spans_module, span_file):
    """Alternate untraced and traced passes, no pair starting that would end
    after ``seconds``; time metrics are medians over the traced passes, counts
    must repeat exactly in every pass."""
    passes = []
    pair_s = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + pair_s <= seconds:
        t0 = t = time.perf_counter()
        for job in pool:
            outcomes.execute(job)
        untraced = time.perf_counter() - t
        tracer = spans_module.Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            for job in pool:
                tracer.job = job.index
                outcomes.execute(job)
            traced = time.perf_counter() - t
        finally:
            tracer.uninstall()
        passes.append(tracer.metrics(len(pool), traced / untraced - 1.0))
        pair_s = time.perf_counter() - t0
        if len(passes) == 1:
            tracer.save(span_file)
    rows = []
    repeatable = True
    for name, unit in spans_module.METRICS.items():
        values = [p[name] for p in passes]
        if unit in spans_module.TIMED_UNITS:
            rows.append((name, statistics.median(values), unit, f"median of {len(values)} traced passes"))
        else:
            repeatable &= len(set(values)) == 1
            rows.append((name, values[0], unit, f"per pass, {len(values)} passes"))
    return rows, repeatable


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphent" / "__init__.py").is_file():
        print(f"error: no graphent sources at {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so set it before any import of numpy.
    # One thread, within the cap of nproc: a second BLAS thread on a shared host
    # waits for the slower of two CPUs.
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    os.environ.pop("GRAPHENT_MAX_QUBITS", None)
    sys.path.insert(0, str(SRC))
    import jobs
    import spans

    if Path(jobs.cli.__file__).resolve().parent != SRC / "graphent":
        print(f"error: graphent was imported from {jobs.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = jobs.build_pool(args.workload, args.seed, workdir)
        env = environment(threads, max(16 << job.n for job in pool))
        print("env " + json.dumps(env, sort_keys=True))
        caches = env["cache_bytes"]
        sizes = sorted({job.n for job in pool})
        state = env["largest_state_bytes"]
        print(f"workload {args.workload} seed {args.seed}: {len(pool)} jobs per pass, "
              f"{sizes[0]}-{sizes[-1]} qubits, largest state {state / 2**20:.3f} MiB = "
              + ", ".join(f"{state / size:.4g}x {level}" for level, size in sorted(caches.items())))
        outcomes = Outcomes(args.workload, jobs)
        for job in pool:  # warm-up pass, untimed
            outcomes.execute(job)
        repeatable = True
        if args.trace:
            span_file = WORK / f"spans-{args.workload}-seed{args.seed}.npz"
            rows, repeatable = per_layer(pool, outcomes, args.seconds, spans, span_file)
            print(f"spans of the first traced pass: {span_file}")
        else:
            rows = end_to_end(pool, outcomes, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, reasons = outcomes.failures()
    for name, value, unit, samples in rows:
        print(f"{name:40s} {value:14.6g} {unit:9s} {samples}")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} {'fraction':9s} {failed} of {attempted} attempted")
    for index, reason in sorted(reasons.items()):
        print(f"job {index} failed: {reason}")
    if not repeatable:
        print("per-layer counts differ between traced passes of the same pool")
    result = {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

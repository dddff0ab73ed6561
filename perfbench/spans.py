"""Spans around the calls into graphent's layers, recorded from outside.

``Tracer.install`` replaces every public graphent function with a timing
wrapper, both in the module that defines it and in every graphent module that
imports it, so calls between layers nest as parent and child spans. A layer
is a module of the package; a span is named ``<layer>.<function>``. Spans are
kept in flat arrays while the pass runs and written out after it.

Self time is a span's duration minus the durations of its direct children.
The byte counts are computed from state sizes and a fixed number of passes
over the amplitude array per kernel call; they are not measured.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from graphent import calibration, circuits, cli, entanglement, graphs, sampling, statevector, validation

MODULES = (cli, graphs, calibration, circuits, statevector, entanglement, sampling, validation)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)
METHODS = ((graphs.Graph, "degree"),)

# Full passes over the amplitude array per call: reads plus writes, norm check included.
KERNEL_PASSES = {
    "statevector.init_zero": 1,
    "statevector.apply_gate": 4,
    "statevector.apply_pauli": 4,
    "statevector.evolve_edge_exact": 7,
    "statevector.expectation_pauli": 2,
    "statevector.marginal_z_probs": 1,
    "statevector.overlap_magnitude": 2,
}
OUTCOME_SOURCES = ("sampling.sample_z", "sampling.corrupt_readout")
SYNTHESIS = ("circuits.synthesize_graph_circuit", "circuits.synthesize_edge", "circuits.choose_orientation")

MB = float(1 << 20)

# name -> unit; deterministic unless the unit is a time or a time ratio.
METRICS = {f"{layer}.self_ms": "ms" for layer in LAYERS}
METRICS.update({
    "graphs.degree_calls": "count",
    "circuits.synthesize.self_ms": "ms",
    "circuits.gates_applied": "count",
    "statevector.init_zero.calls": "count",
    "statevector.apply_gate.self_ms": "ms",
    "statevector.apply_gate.calls": "count",
    "statevector.apply_gate.us_per_call": "us",
    "statevector.apply_pauli.calls": "count",
    "statevector.evolve_edge.self_ms": "ms",
    "statevector.evolve_edge.calls": "count",
    "statevector.evolve_edge.ns_per_amp": "ns",
    "statevector.expectation_pauli.self_ms": "ms",
    "statevector.peak_state_mb": "MB",
    "statevector.bytes_moved_computed": "MB",
    "entanglement.bloch_vector.self_ms": "ms",
    "sampling.sample_z.self_ms": "ms",
    "sampling.corrupt_readout.self_ms": "ms",
    "sampling.estimate_mean_z.self_ms": "ms",
    "sampling.distinct_outcomes": "count",
    "validation.run_validation.self_ms": "ms",
    "trace.jobs": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
})
TIMED_UNITS = ("ms", "us", "ns", "ratio")


class Tracer:
    """Records spans for one pass; ``job`` is set by the caller before each job."""

    def __init__(self):
        self.job = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._job = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.peak_state_bytes = 0

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rsplit(".", 1)[-1]
                if not value.__module__.startswith("graphent.") or layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patch(module, attr, wrappers[value])
        for cls, attr in METHODS:
            layer = cls.__module__.rsplit(".", 1)[-1]
            self._patch(cls, attr, self._wrap(getattr(cls, attr), f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        names, starts, ends, parents, jobs = self._name, self._start, self._end, self._parent, self._job
        stack = self._stack
        probe = self._probe(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _probe(self, name):
        """Counter updates from a call's positional arguments and result."""
        counters = self.counters
        passes = KERNEL_PASSES.get(name)
        if name == "statevector.init_zero":
            def probe(args, result):
                state_bytes = 16 << args[0]
                self.peak_state_bytes = max(self.peak_state_bytes, state_bytes)
                counters["bytes"] += passes * state_bytes
            return probe
        if passes is not None:
            is_edge = name == "statevector.evolve_edge_exact"

            def probe(args, result):
                amps = 1 << args[0].n_qubits
                counters["bytes"] += passes * 16 * amps
                if is_edge:
                    counters["edge_amps"] += amps
            return probe
        if name in OUTCOME_SOURCES:
            def probe(args, result):
                counters["distinct_outcomes"] += len(result.counts)
            return probe
        return None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self._name, dtype=np.int64),
            "start": np.asarray(self._start, dtype=np.float64),
            "end": np.asarray(self._end, dtype=np.float64),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "job": np.asarray(self._job, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        """Write every span: name table plus per-span name id, start, end, parent and job."""
        spans = self.arrays()
        origin = spans["start"][0] if len(spans["start"]) else 0.0
        spans["start"] -= origin
        spans["end"] -= origin
        np.savez_compressed(path, names=np.array(self.names), **spans)

    def metrics(self, jobs: int, overhead_frac: float) -> dict[str, float]:
        """Every per-layer metric of this pass, keyed as in ``METRICS``."""
        s = self.arrays()
        k = len(self.names)
        duration = s["end"] - s["start"]
        nested = s["parent"] >= 0
        child = np.zeros(len(duration))
        np.add.at(child, s["parent"][nested], duration[nested])
        self_by_name = np.bincount(s["name"], weights=duration - child, minlength=k)
        calls_by_name = np.bincount(s["name"], minlength=k)
        parent_name = np.full(len(duration), -1)
        parent_name[nested] = s["name"][s["parent"][nested]]

        def self_ms(*names):
            return 1e3 * sum(float(self_by_name[self._ids[n]]) for n in names if n in self._ids)

        def calls(name):
            return int(calls_by_name[self._ids[name]]) if name in self._ids else 0

        def calls_under(name, parent):
            if name not in self._ids or parent not in self._ids:
                return 0
            return int(np.sum((s["name"] == self._ids[name]) & (parent_name == self._ids[parent])))

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms(*(n for n in self.names if n.split(".", 1)[0] == layer))
        gate_calls = calls("statevector.apply_gate")
        edge_amps = self.counters["edge_amps"]
        out.update({
            "graphs.degree_calls": calls("graphs.Graph.degree"),
            "circuits.synthesize.self_ms": self_ms(*SYNTHESIS),
            "circuits.gates_applied": calls_under("statevector.apply_gate", "circuits.apply_circuit"),
            "statevector.init_zero.calls": calls("statevector.init_zero"),
            "statevector.apply_gate.self_ms": self_ms("statevector.apply_gate"),
            "statevector.apply_gate.calls": gate_calls,
            "statevector.apply_gate.us_per_call":
                1e3 * self_ms("statevector.apply_gate") / gate_calls if gate_calls else 0.0,
            "statevector.apply_pauli.calls": calls("statevector.apply_pauli"),
            "statevector.evolve_edge.self_ms": self_ms("statevector.evolve_edge_exact"),
            "statevector.evolve_edge.calls": calls("statevector.evolve_edge_exact"),
            "statevector.evolve_edge.ns_per_amp":
                1e6 * self_ms("statevector.evolve_edge_exact") / edge_amps if edge_amps else 0.0,
            "statevector.expectation_pauli.self_ms": self_ms("statevector.expectation_pauli"),
            "statevector.peak_state_mb": self.peak_state_bytes / MB,
            "statevector.bytes_moved_computed": self.counters["bytes"] / MB,
            "entanglement.bloch_vector.self_ms": self_ms("entanglement.bloch_vector"),
            "sampling.sample_z.self_ms": self_ms("sampling.sample_z"),
            "sampling.corrupt_readout.self_ms": self_ms("sampling.corrupt_readout"),
            "sampling.estimate_mean_z.self_ms": self_ms("sampling.estimate_mean_z"),
            "sampling.distinct_outcomes": self.counters["distinct_outcomes"],
            "validation.run_validation.self_ms": self_ms("validation.run_validation"),
            "trace.jobs": jobs,
            "trace.spans": len(duration),
            "trace.overhead_frac": overhead_frac,
        })
        return out

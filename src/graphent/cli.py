"""Command-line surface: entangle, sweep, synthesize, validate.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 resource cap or
out of memory, 4 internal consistency or failed validation property.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

from .calibration import CalibrationData, load_calibration
from .circuits import circuit_text, synthesize_graph_circuit
from .entanglement import METHODS, EntanglementEstimate, analytic_estimate, exact_entanglement
from .errors import DEFAULT_MAX_QUBITS, DEFAULT_SHOTS, ConsistencyError, GraphentError, ResourceCapError
from .errors import ValidationError, _checked_shots, _numpy_module, _read_text
from .graphs import FORMATS, Graph, parse_graph, preset

# sampling and validation import numpy, so they load on a command's first
# shots estimate or validate run (exact estimates load statevector the same
# way); analytic estimates, synthesize, help and usage errors never load it

ENV_MAX_QUBITS = "GRAPHENT_MAX_QUBITS"

# the most rows one sweep may compute: a sweep holds every row, then the whole
# CSV text, before it writes, at about 1 KB a row, so a grid or graph past
# this exits 3 before a row is built instead of being OOM-killed
MAX_SWEEP_ROWS = 2**18

CSV_COLUMNS = (
    "phi",
    "spin",
    "mode",
    "mean_x",
    "mean_y",
    "mean_z",
    "bloch_norm",
    "entanglement",
    "std_error",
    "shots",
    "seed",
)


class UsageError(GraphentError):
    """Malformed command line; exit 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token of '-' then a digit, '.' or 'pi' is a value ('-0.5pi', '-pi/2', '-1:1:3'), not an
        # option: argparse's own test takes only plain negative numbers, and no option looks like one
        self._negative_number_matcher = re.compile(r"-(?:[\d.]|pi)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


_PI_RE = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d*)?|\.\d+)?\s*\*?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?|\.\d+))?\s*$",
    re.IGNORECASE,
)


def parse_phi(text: str) -> float:
    """Decimal radians, or multiples and simple fractions of pi: 'pi', 'pi/2', '2pi/3', '-0.5pi'.

    The angle must be finite: 'inf', 'nan' and overflowing values are rejected.
    """
    try:
        phi = float(text)
    except ValueError:
        m = _PI_RE.match(text)
        if not m:
            raise UsageError(f"cannot parse angle {text!r}") from None
        sign = -1.0 if m.group(1) == "-" else 1.0
        coefficient = float(m.group(2)) if m.group(2) else 1.0
        denominator = float(m.group(3)) if m.group(3) else 1.0
        if denominator == 0.0:
            raise UsageError(f"zero denominator in angle {text!r}") from None
        phi = sign * coefficient * math.pi / denominator
    if not math.isfinite(phi):
        raise UsageError(f"angle must be finite, got {text!r}")
    return phi


def _phi_arg(text: str) -> float:
    try:
        return parse_phi(text)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sweep_arg(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"sweep must be START:STOP:COUNT, got {text!r}")
    start, stop = _phi_arg(parts[0]), _phi_arg(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"sweep count must be an integer, got {parts[2]!r}") from None
    if count < 2:
        raise argparse.ArgumentTypeError(f"sweep needs at least 2 points, got {count}")
    if not start < stop:
        raise argparse.ArgumentTypeError(f"sweep start must be below stop, got {text!r}")
    try:
        span = (stop - start) * (count - 1)
    except OverflowError:  # a count past float range
        span = math.inf
    if not math.isfinite(span):
        raise argparse.ArgumentTypeError(f"sweep span overflows, got {text!r}")
    return start, stop, count


def _load_graph(args) -> Graph:
    if args.preset is not None:
        try:
            return preset(args.preset)
        except ValidationError as exc:
            raise UsageError(str(exc)) from None
    return parse_graph(_read_text(args.graph), args.format)


def _load_calibration(args) -> CalibrationData | None:
    if args.calibration is None:
        return None
    return load_calibration(args.calibration)


def _max_qubits(args) -> int:
    cap = args.max_qubits
    if cap is None:
        env = os.environ.get(ENV_MAX_QUBITS)
        try:
            cap = DEFAULT_MAX_QUBITS if env is None else int(env)
        except ValueError:
            raise UsageError(f"{ENV_MAX_QUBITS}={env!r} is not an integer") from None
    if cap < 1:
        raise UsageError(f"qubit cap must be at least 1, got {cap}")
    return cap


def _estimate(mode, g, phi, spin, shots, cal, seed, cap) -> EntanglementEstimate:
    if mode == "analytic":
        return analytic_estimate(g, phi, spin)
    if mode == "exact":
        return exact_entanglement(g, phi, spin, cap)
    return _numpy_module("sampling").estimate_entanglement_shots(g, phi, spin, shots, cal, seed=seed)


# json.dumps's own encoder, less its cycle check: a record is built fresh from
# tuples and numbers, and the encoder writes a tuple as an array
_encode_record = json.JSONEncoder(check_circular=False).encode


def cmd_entangle(args) -> int:
    g = _load_graph(args)
    cal = _load_calibration(args)
    est = _estimate(args.mode, g, args.phi, args.spin, args.shots, cal, args.seed, _max_qubits(args))
    record = {
        "phi": args.phi,
        "spin": args.spin,
        "mode": args.mode,
        "bloch": est.bloch.as_tuple(),
        "entanglement": est.value,
        "std_error": est.std_error,
        "shots": est.shots,
        "seed": args.seed,
        "graph": {"n": g.n_vertices, "edges": g.edges},
    }
    print(_encode_record(record))
    return 0


def _write_out(path, text: str):
    """Write ``text`` to the file at ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_sweep(args) -> int:
    """Compute every row first, so a failing sweep writes no header and no file.

    An analytic or exact row depends only on (mode, degree(spin), phi), so
    its estimate cells are computed and formatted once per such key and
    shared by every spin of that degree. Shots rows are never shared: their
    rates differ by calibration, and each data row draws its own substream.
    A sweep of more than ``MAX_SWEEP_ROWS`` rows raises ResourceCapError
    before any is built.
    """
    g = _load_graph(args)
    spins = list(dict.fromkeys(args.spin)) if args.spin else range(g.n_vertices)
    modes = list(dict.fromkeys(args.mode)) if args.mode else ["analytic"]
    cap = _max_qubits(args)
    cal = _load_calibration(args)
    start, stop, count = args.sweep
    n_rows = count * len(spins) * len(modes)
    if n_rows > MAX_SWEEP_ROWS:
        raise ResourceCapError(f"sweep of {n_rows} rows (angles x spins x modes) exceeds the cap of {MAX_SWEEP_ROWS} rows")
    phis = [start + (stop - start) * i / (count - 1) for i in range(count)]
    cells: dict[tuple[str, int, float], list] = {}
    rows = []
    for phi in phis:
        phi_text = repr(phi)
        for spin in spins:
            k = g.degree(spin)
            for mode in modes:
                key = (mode, k, phi)
                if mode == "shots" or key not in cells:
                    # data row i draws from substream i of the root seed
                    seed = _numpy_module("sampling").derive_seed(args.seed, len(rows)) if mode == "shots" else None
                    est = _estimate(mode, g, phi, spin, args.shots, cal, seed, cap)
                    cells[key] = [
                        repr(est.bloch.mx),
                        repr(est.bloch.my),
                        repr(est.bloch.mz),
                        repr(est.bloch.norm()),
                        repr(est.value),
                        "" if est.std_error is None else repr(est.std_error),
                        "" if est.shots is None else est.shots,
                    ]
                rows.append([phi_text, spin, mode, *cells[key], args.seed])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    _write_out(args.out, out.getvalue())
    return 0


def cmd_synthesize(args) -> int:
    g = _load_graph(args)
    circuit = synthesize_graph_circuit(g, args.phi, _load_calibration(args))
    _write_out(args.out, circuit_text(circuit))
    return 0


def cmd_validate(args) -> int:
    cap = _max_qubits(args)
    results = _numpy_module("validation").run_validation(max_n=args.max_n, trials=args.trials, seed=args.seed, max_qubits=cap)
    print(f"validation: trials={args.trials} max_n={args.max_n} seed={args.seed}")
    for r in results:
        print(r.line())
    if not all(r.passed for r in results):
        print("validation FAILED")
        return 4
    print("validation passed")
    return 0


def _add_graph_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", help="graph file (edge-list, json, or adjacency)")
    group.add_argument("--preset", help="valencia, complete(n), path(n), or ring(n)")
    p.add_argument(
        "--format",
        choices=("auto",) + FORMATS,
        default="auto",
        help="graph file format (default: detect)",
    )
    p.add_argument("--calibration", help="calibration JSON file, loaded and checked whenever given")


def _add_run_args(p):
    p.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    p.add_argument("--max-qubits", type=int, default=None, help=f"largest state vector, in qubits: caps k+1 in exact mode, k the spin's degree; shots mode allocates no state vector (default {DEFAULT_MAX_QUBITS}; env {ENV_MAX_QUBITS})")


@functools.cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argument parser and each command's parser by name; built once per process, since parsing leaves them unchanged."""
    parser = _Parser(prog="graphent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entangle", help="one entanglement value as a JSON record")
    _add_graph_args(p)
    p.add_argument("--phi", type=_phi_arg, required=True, help="angle: radians or pi expressions")
    p.add_argument("--spin", type=int, required=True)
    p.add_argument("--mode", choices=METHODS, default="exact")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    _add_run_args(p)
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("sweep", help="CSV of entanglement over an angle grid")
    _add_graph_args(p)
    p.add_argument("--sweep", type=_sweep_arg, required=True, metavar="START:STOP:COUNT")
    p.add_argument("--spin", type=int, action="append", help="repeatable; default: all spins")
    p.add_argument("--mode", choices=METHODS, action="append", help="repeatable; default: analytic")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    _add_run_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synthesize", help="gate listing for the graph circuit")
    _add_graph_args(p)
    p.add_argument("--phi", type=_phi_arg, required=True)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("validate", help="run the randomized self-check suites")
    p.add_argument("--max-n", type=int, default=6, help="most vertices of a random graph, at least 2 (default 6)")
    p.add_argument("--trials", type=int, default=200, help="number of random graphs, at least 1 (default 200)")
    p.add_argument("--seed", type=int, default=7, help="RNG seed of the graphs and angles (default 7)")
    p.add_argument("--max-qubits", type=int, default=None, help=f"largest state vector, in qubits: caps --max-n (above it exits 3), and a batch of angles never holds more than 2**cap amplitudes (default {DEFAULT_MAX_QUBITS}; env {ENV_MAX_QUBITS})")
    p.set_defaults(func=cmd_validate)

    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """``argv`` (``sys.argv[1:]`` when None) parsed as the top-level parser parses it.

    Its subparsers action hands every string after a command's name to that
    command's parser, so a leading command name goes straight there; anything
    else (no arguments, ``-h``, an unknown command, an option first) goes
    through the top-level parser.
    """
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


def _report(message: str, code: int) -> int:
    """Write ``message`` and a newline to stderr, and return the exit ``code``; a missing or failing stderr drops the message.

    ``print`` would write to stdout when ``sys.stderr`` is None, and a write
    that raises would escape ``main`` in place of ``code``. Python's stderr
    writes through to its unbuffered descriptor, so a failed report leaves no
    bytes behind for the interpreter's exit flush, whose failure would turn
    the code into 120.
    """
    if sys.stderr is not None:
        try:
            sys.stderr.write(message + "\n")
            sys.stderr.flush()
        except (OSError, ValueError):  # ValueError: a closed file
            pass
    return code


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None) and return its exit code.

    A named command is parsed by its own parser in one pass. A command that
    writes to stdout exits 2 when stdout is missing (``print`` would drop its
    output silently) or a write or the final flush fails. Every error goes to
    stderr through :func:`_report`, never to stdout.
    """
    try:
        args = _parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # entangle, sweep and validate, whatever the mode
            raise UsageError(f"seed must be non-negative, got {args.seed}")
        if hasattr(args, "shots"):  # entangle and sweep, whatever the mode
            _checked_shots(args.shots)
        if sys.stdout is None and getattr(args, "out", None) is None:
            raise OSError("standard output is closed")
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # inside the try, so a late EPIPE, EBADF or ENOSPC exits 2
        return code
    except UsageError as exc:
        return _report(f"usage error: {exc}", 1)
    except (ValidationError, OSError) as exc:
        return _report(f"error: {exc}", 2)
    except UnicodeDecodeError as exc:
        return _report(f"error: input file is not UTF-8 text: {exc}", 2)
    except ResourceCapError as exc:
        return _report(f"error: {exc}", 3)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        return _report(f"error: out of memory{detail}", 3)
    except ConsistencyError as exc:
        return _report(f"internal error: {exc}", 4)


if __name__ == "__main__":
    sys.exit(main())

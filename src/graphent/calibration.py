"""Device calibration tables: per-qubit readout/gate errors, per-direction CX errors.

JSON shape:

    {"readout_error": [...], "gate_error": [...], "cx_error": {"c-t": value, ...}}

``readout_error`` and ``gate_error`` are indexed by qubit; ``cx_error`` keys
are directed pairs written ``"control-target"``. No key and no pair may be
given twice, and no integer may have more digits than ``int()`` converts. A
fixture reproducing the IBM Q Valencia table (19 Jan 2021) ships with the
package.
"""

from __future__ import annotations

import re

from .errors import ValidationError, _checked_pair, _checked_text, _load_json, _read_text, _shown, _Value

_PAIR_RE = re.compile(r"([0-9]+)-([0-9]+)")


def _rate(p, name: str, index) -> float:
    """Entry ``index`` of rate table ``name`` as a float, if it is a real number (not a bool) in [0, 1].

    Compared before converting, so an integer beyond float range cannot overflow.
    """
    if type(p) is bool or not isinstance(p, (int, float)):
        raise ValidationError(f"{name}[{index}] must be a number, got {p!r}")
    if not 0.0 <= p <= 1.0:  # NaN compares False, so it fails too
        raise ValidationError(f"{name}[{index}]={p!r} outside [0, 1]")
    return float(p)


def _rates(name: str, probs) -> tuple[float, ...]:
    """Per-qubit rate table ``name`` as a tuple of floats, each entry checked by :func:`_rate`."""
    try:
        return tuple([_rate(p, name, q) for q, p in enumerate(probs)])
    except TypeError:  # not iterable
        raise ValidationError(f"{name} must be a sequence of rates, got {probs!r}") from None


class CalibrationData(_Value):
    """Per-qubit readout and gate error rates, and CX error rates keyed by directed (control, target) pair.

    Every rate is checked to be a number in [0, 1] and stored as a float,
    the per-qubit rates as tuples; every pair as two distinct qubit indices
    within the table.
    """

    __slots__ = ("readout_error", "gate_error", "cx_error")

    def __init__(
        self,
        readout_error: tuple[float, ...],
        gate_error: tuple[float, ...],
        cx_error: dict[tuple[int, int], float],
    ):
        readout, gate = _rates("readout_error", readout_error), _rates("gate_error", gate_error)
        if len(readout) == 0 or len(readout) != len(gate):
            raise ValidationError(
                "readout_error and gate_error must list the same nonzero number of qubits"
            )
        n = len(readout)
        try:
            items = cx_error.items()
        except AttributeError:
            raise ValidationError(f"cx_error must be a mapping of qubit pairs to rates, got {cx_error!r}") from None
        cx = {}
        for key, p in items:
            c, t = _checked_pair(key, "cx_error key", "qubits", "cx_error qubit")
            if c == t or not (0 <= c < n and 0 <= t < n):
                raise ValidationError(f"cx_error pair ({_shown(c)}, {_shown(t)}) invalid for {n} qubits")
            cx[(c, t)] = _rate(p, "cx_error", (c, t))
        object.__setattr__(self, "readout_error", readout)
        object.__setattr__(self, "gate_error", gate)
        object.__setattr__(self, "cx_error", cx)

    @property
    def n_qubits(self) -> int:
        return len(self.readout_error)

    def cx_error_for(self, control: int, target: int) -> float:
        """The rate of the directed pair; an index that is no integer (a float, a bool, a list) has no entry."""
        try:
            return self.cx_error[_checked_pair((control, target), "cx_error key", "qubits", "cx_error qubit")]
        except (KeyError, ValidationError):
            shown = [_shown(q) if type(q) is int else q for q in (control, target)]  # str() of a float, as given
            raise ValidationError(f"no cx error entry for directed pair {shown[0]}-{shown[1]}") from None


def _check_calibration(cal) -> None:
    """Raise ValidationError unless ``cal`` is CalibrationData or None, before a route reads a rate from it."""
    if cal is not None and not isinstance(cal, CalibrationData):
        raise ValidationError(f"calibration must be CalibrationData or None, got {cal!r}")


def parse_calibration(text: str) -> CalibrationData:
    """The calibration in JSON ``text``, a ``str`` (``numpy.str_`` included); bytes or any other object raises ValidationError."""
    obj = _load_json(_checked_text(text, "calibration text"), "calibration", "invalid calibration JSON")
    if not isinstance(obj, dict):
        raise ValidationError("calibration must be a JSON object")
    for key in ("readout_error", "gate_error", "cx_error"):
        if key not in obj:
            raise ValidationError(f"calibration is missing {key!r}")
    if not isinstance(obj["readout_error"], list) or not isinstance(obj["gate_error"], list):
        raise ValidationError("readout_error and gate_error must be arrays")
    if not isinstance(obj["cx_error"], dict):
        raise ValidationError("cx_error must be an object keyed by 'control-target'")
    cx = {}
    for key, value in obj["cx_error"].items():
        m = _PAIR_RE.fullmatch(key)
        if not m:
            raise ValidationError(f"cx_error key {key!r} is not of the form 'c-t'")
        try:
            pair = (int(m.group(1)), int(m.group(2)))
        except ValueError:  # more digits than int() converts
            raise ValidationError(f"cx_error key {key!r} has a qubit index too long to read") from None
        if pair in cx:
            raise ValidationError(f"cx_error gives pair {pair[0]}-{pair[1]} twice")
        cx[pair] = value
    return CalibrationData(obj["readout_error"], obj["gate_error"], cx)


def load_calibration(path) -> CalibrationData:
    """The calibration in the UTF-8 JSON file at ``path``: a ``str``, ``bytes`` or ``os.PathLike`` path.

    Any other object (an int file descriptor, a bool, None) raises
    ValidationError before a file is opened; ``"\\r\\n"`` and ``"\\r"`` line
    ends read as ``"\\n"``.
    """
    return parse_calibration(_read_text(path))


def valencia_calibration() -> CalibrationData:
    """Bundled IBM Q Valencia calibration table (19 Jan 2021)."""
    from importlib import resources  # only this reader needs it

    text = resources.files("graphent").joinpath("data/valencia_calibration.json").read_text()
    return parse_calibration(text)

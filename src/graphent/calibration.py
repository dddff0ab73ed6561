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

import json
import re
from dataclasses import dataclass
from functools import partial

from .errors import ValidationError, _unique_keys

_PAIR_RE = re.compile(r"([0-9]+)-([0-9]+)")


@dataclass(frozen=True)
class CalibrationData:
    readout_error: tuple[float, ...]
    gate_error: tuple[float, ...]
    cx_error: dict[tuple[int, int], float]

    def __post_init__(self):
        if len(self.readout_error) == 0 or len(self.readout_error) != len(self.gate_error):
            raise ValidationError(
                "readout_error and gate_error must list the same nonzero number of qubits"
            )
        n = len(self.readout_error)
        for name, probs in (
            ("readout_error", self.readout_error),
            ("gate_error", self.gate_error),
        ):
            for q, p in enumerate(probs):
                if not 0.0 <= p <= 1.0:
                    raise ValidationError(f"{name}[{q}]={p!r} outside [0, 1]")
        for (c, t), p in self.cx_error.items():
            if c == t or not (0 <= c < n and 0 <= t < n):
                raise ValidationError(f"cx_error pair ({c}, {t}) invalid for {n} qubits")
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"cx_error[{c}-{t}]={p!r} outside [0, 1]")

    @property
    def n_qubits(self) -> int:
        return len(self.readout_error)

    def cx_error_for(self, control: int, target: int) -> float:
        try:
            return self.cx_error[(control, target)]
        except KeyError:
            raise ValidationError(
                f"no cx error entry for directed pair {control}-{target}"
            ) from None


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; strings, booleans and nulls are rejected."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


_CALIBRATION_KEYS = partial(_unique_keys, "calibration")


def parse_calibration(text: str) -> CalibrationData:
    try:
        obj = json.loads(text, object_pairs_hook=_CALIBRATION_KEYS)
    except ValidationError:
        raise
    except ValueError as exc:  # malformed, or an integer past int()'s digit limit
        raise ValidationError(f"invalid calibration JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError("calibration must be a JSON object")
    for key in ("readout_error", "gate_error", "cx_error"):
        if key not in obj:
            raise ValidationError(f"calibration is missing {key!r}")
    if not isinstance(obj["readout_error"], list) or not isinstance(obj["gate_error"], list):
        raise ValidationError("readout_error and gate_error must be arrays")
    if not isinstance(obj["cx_error"], dict):
        raise ValidationError("cx_error must be an object keyed by 'control-target'")
    cx: dict[tuple[int, int], float] = {}
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
        cx[pair] = _number(value, f"cx_error[{key}]")
    return CalibrationData(
        readout_error=tuple(_number(p, "readout_error entry") for p in obj["readout_error"]),
        gate_error=tuple(_number(p, "gate_error entry") for p in obj["gate_error"]),
        cx_error=cx,
    )


def load_calibration(path) -> CalibrationData:
    with open(path, encoding="utf-8") as fh:
        return parse_calibration(fh.read())


def valencia_calibration() -> CalibrationData:
    """Bundled IBM Q Valencia calibration table (19 Jan 2021)."""
    from importlib import resources  # only this reader needs it

    text = resources.files("graphent").joinpath("data/valencia_calibration.json").read_text()
    return parse_calibration(text)

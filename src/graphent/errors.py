"""Exception types, the numpy-free input checks and defaults shared across the package, the JSON reader, and the immutable value base.

The package's value classes (``Graph``, ``Gate``, ``CalibrationData``,
``BlochVector``, ``EntanglementEstimate``, ``PropertyResult``) derive from
:class:`_Value`. A subclass names its attributes in ``__slots__`` and checks
and stores its arguments in ``__init__`` with ``object.__setattr__``. Its
fields are exactly ``__init__``'s parameters, in order; a slot that is not a
parameter (``Graph._neighbours``) is derived data, neither compared nor shown.
The base defines its methods once, so building a class imports nothing and
compiles no generated code, which keeps ``import graphent.cli`` short. It
gives:

* ``==`` between instances of one class, and a hash, over the fields;
* a repr ``Name(field=value, ...)``;
* ``AttributeError`` on assigning or deleting any attribute;
* ``__reduce__``, which rebuilds a value from its fields through ``__init__``,
  so ``copy``, ``deepcopy`` and ``pickle`` give an equal value, checked again.
"""

import functools
import importlib
import json
import math
import operator
import sys

DEFAULT_MAX_QUBITS = 24
DEFAULT_SHOTS = 8192


class GraphentError(Exception):
    """Base class for all library errors."""


class ValidationError(GraphentError, ValueError):
    """Malformed input or a violated operation precondition."""


class ResourceCapError(GraphentError, RuntimeError):
    """Requested simulation exceeds the configured qubit cap."""


class ConsistencyError(GraphentError, RuntimeError):
    """Internal invariant violated (norm drift, nonreal expectation); indicates a bug."""


def _checked_integer(value, what: str) -> int:
    """``value`` as an int, by ``operator.index``: a bool, a float or other non-integer raises ValidationError."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _is_real(v) -> bool:
    """Whether ``v`` is one real number: Python orders no complex against a float, but numpy orders complex arrays."""
    try:
        v < 0.0
    except TypeError:  # a string, None, a Python complex, ...
        return False
    return getattr(getattr(v, "dtype", None), "kind", None) != "c" and getattr(v, "ndim", 0) == 0


def _finite_angle(angle) -> float:
    """``angle`` as a float, if it is a real number that converts to a finite one.

    It is compared as a float, so a numpy float32 meets no float64 bound (whose
    cast to float32 would overflow, with a warning). A non-number (a string, a
    list, a Python or numpy complex) raises ValidationError too.
    """
    if type(angle) is float or _is_real(angle):  # floats, the common case, skip the call
        try:
            value = float(angle)
        except OverflowError:  # an int or a fraction beyond float range
            value = math.inf
        if abs(value) <= sys.float_info.max:
            return value
        raise ValidationError("non-finite angle: NaN, infinite or beyond float range")
    raise ValidationError(f"angle must be a real number, got {angle!r}")


def _checked_seed(seed: int) -> int:
    """``seed`` as an int, if numpy accepts it; numpy's own errors for a negative or non-integer seed are unclassified."""
    seed = _checked_integer(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def _checked_shots(shots: int) -> int:
    """``shots`` as an int, if it is a positive count that numpy's int64 draws can hold; a float would be truncated."""
    shots = _checked_integer(shots, "shot count")
    if shots < 1:
        raise ValidationError(f"shot count must be positive, got {shots}")
    if shots >= 1 << 63:
        raise ValidationError(f"shot count must be below 2**63, got {shots}")
    return shots


@functools.cache
def _numpy_module(name: str):
    """``graphent.<name>``, a module that imports numpy, imported on first use and kept.

    Callers look a function up on the returned module at each call, so a
    wrapper later set on the module's attribute is the one called.
    """
    return importlib.import_module(f"graphent.{name}")


def _load_json(text: str, what: str, invalid: str):
    """``json.loads(text)``, where a repeated key raises ValidationError naming ``what`` (``json`` keeps the last).

    Malformed text, an integer past ``int()``'s digit limit and nesting past the
    recursion limit raise ValidationError as ``"<invalid>: <json's message>"``.
    """
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValidationError(f"{what} repeats the key {key!r}")
                seen.add(key)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ValidationError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{invalid}: {exc}") from None


class _Value:
    """Immutable value with fields ``__init__``'s parameters; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

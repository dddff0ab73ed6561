"""Exception types, the numpy-free input checks and defaults shared across the package, the file and JSON readers, and the immutable value base.

Every public input of a number, a name, a pair of vertices or a text to parse
is one of six kinds, and each kind has one checker, which raises
:class:`ValidationError` with one message form:

* a count, :func:`_checked_count`: an integer by ``operator.index`` (a bool or
  a float is none), else ``"<what> must be an integer, got <v!r>"``; below its
  minimum, ``"<what> must be non-negative, got <v>"``, ``"... must be
  positive, ..."`` or ``"... must be at least <minimum>, ..."``;
* an index into ``n`` spins or qubits, :func:`_checked_index`: an integer as a
  count is, in ``[0, n)``, else ``"<what> <v> out of range [0, <n>)"``;
* a pair, :func:`_checked_pair`: two entries, each an integer as a count is,
  else ``"<what> <pair!r> is not a pair of <of>"``; :func:`_checked_edges`
  reads a collection of them, else ``"edges <v!r> is not a collection of
  vertex pairs"``;
* a real number, :func:`_checked_real`: one real number (no complex, string,
  sequence, array or NaN ``Decimal``), else ``"<what> must be a real number,
  got <v!r>"``; an angle, :func:`_finite_angle`, must also be finite as a float;
* a name from a fixed set, :func:`_checked_choice`: a ``str`` in the set, else
  ``"unknown <what> <v!r>; expected one of <choices>"``.
* a text to parse, :func:`_checked_text`: a ``str``, else ``"<what> must be a
  str, got <v!r>"``.

Every message shows a caller's value with :func:`_shown`: an int past 64 bits
by its bit length (``str()`` refuses more than 4300 digits), anything else by
its repr. Messages that name a gate and a preset's size keep their own checks.
Input files are read by :func:`_read_text` alone, and JSON text is parsed by
:func:`_load_json` alone.
The checkers import nothing beyond the standard modules above, so ``import
graphent.cli`` stays numpy-free.

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
import os
import sys

DEFAULT_MAX_QUBITS = 24
DEFAULT_SHOTS = 8192


class GraphentError(Exception):
    """Base class for all library errors."""


class ValidationError(GraphentError, ValueError):
    """Malformed input or a violated operation precondition."""


class ResourceCapError(GraphentError, RuntimeError):
    """Requested simulation exceeds the configured qubit cap, or a sized preset its edge cap."""


class ConsistencyError(GraphentError, RuntimeError):
    """Internal invariant violated (norm drift, nonreal expectation); indicates a bug."""


def _shown(value) -> str:
    """``repr(value)``; an int past 64 bits by its bit length, and a value whose repr raises (a tuple of one) by its type."""
    if type(value) is int and value.bit_length() > 64:
        return f"a {value.bit_length()}-bit integer"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} too long to show"


def _checked_integer(value, what: str) -> int:
    """``value`` as an int, by ``operator.index``: a bool, a float or other non-integer raises ValidationError."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{what} must be an integer, got {_shown(value)}")


def _checked_count(value, what: str, minimum: int = 0) -> int:
    """``value`` as an int, if it is an integer of at least ``minimum``: the count kind."""
    if type(value) is not int:  # plain ints, the common case, skip the call
        value = _checked_integer(value, what)
    if value < minimum:
        bound = "non-negative" if minimum == 0 else "positive" if minimum == 1 else f"at least {minimum}"
        raise ValidationError(f"{what} must be {bound}, got {_shown(value)}")
    return value


def _checked_index(index, n: int, what: str) -> int:
    """``index`` as an int, if it is an integer in ``[0, n)``: the index kind."""
    if type(index) is not int:  # plain ints, the common case, skip the call
        index = _checked_integer(index, what)
    if not 0 <= index < n:
        raise ValidationError(f"{what} {_shown(index)} out of range [0, {n})")
    return index


def _checked_pair(pair, what: str, of: str, endpoint: str) -> tuple[int, int]:
    """``pair`` as two ints, if it unpacks to two integers: the pair kind; ``endpoint`` names an entry that is none."""
    try:
        i, j = pair
    except (TypeError, ValueError):  # not iterable, or not two entries
        raise ValidationError(f"{what} {_shown(pair)} is not a pair of {of}") from None
    if type(i) is not int or type(j) is not int:  # plain ints, the common case, skip the calls
        i, j = _checked_integer(i, endpoint), _checked_integer(j, endpoint)
    return i, j


def _checked_edges(edges, endpoint: str) -> list[tuple[int, int]]:
    """``edges``, a collection read once (so an iterator too), as a list of :func:`_checked_pair` pairs."""
    try:
        edges = list(edges)
    except TypeError:  # 5, None
        raise ValidationError(f"edges {_shown(edges)} is not a collection of vertex pairs") from None
    return [_checked_pair(edge, "edge", "vertices", endpoint) for edge in edges]


def _is_real(v) -> bool:
    """Whether ``v`` is one real number: Python orders no complex against a float, but numpy orders complex arrays."""
    try:
        v < 0.0
    except (TypeError, ArithmeticError):  # a string, None, a Python complex, a NaN Decimal, ...
        return False
    return getattr(getattr(v, "dtype", None), "kind", None) != "c" and getattr(v, "ndim", 0) == 0


def _checked_real(value, what: str):
    """``value`` unchanged, if it is one real number (:func:`_is_real`): the real-number kind."""
    if type(value) is not float and not _is_real(value):  # floats, the common case, skip the call
        raise ValidationError(f"{what} must be a real number, got {_shown(value)}")
    return value


def _finite_angle(angle) -> float:
    """``angle`` as a float, if it is a real number that converts to a finite one.

    It is compared as a float, so a numpy float32 meets no float64 bound (whose
    cast to float32 would overflow, with a warning).
    """
    try:
        value = float(_checked_real(angle, "angle"))
    except OverflowError:  # an int or a fraction beyond float range
        value = math.inf
    if abs(value) <= sys.float_info.max:
        return value
    raise ValidationError("non-finite angle: NaN, infinite or beyond float range")


def _checked_text(text, what: str) -> str:
    """``text`` unchanged, if it is a ``str`` (``numpy.str_`` included): the text a parser reads."""
    if not isinstance(text, str):  # bytes too: a parser reads decoded text
        raise ValidationError(f"{what} must be a str, got {_shown(text)}")
    return text


def _checked_choice(value, choices: tuple[str, ...], what: str) -> None:
    """Raise ValidationError unless ``value`` is a string (``numpy.str_`` included) among ``choices``: the name kind."""
    if not (isinstance(value, str) and value in choices):
        raise ValidationError(f"unknown {what} {_shown(value)}; expected one of {choices}")


def _checked_shots(shots: int) -> int:
    """``shots`` as an int, if it is a positive count that numpy's int64 draws can hold; a float would be truncated."""
    shots = _checked_count(shots, "shot count", 1)
    if shots >= 1 << 63:
        raise ValidationError(f"shot count must be below 2**63, got {_shown(shots)}")
    return shots


@functools.cache
def _numpy_module(name: str):
    """``graphent.<name>``, a module that imports numpy, imported on first use and kept.

    Callers look a function up on the returned module at each call, so a
    wrapper later set on the module's attribute is the one called.
    """
    return importlib.import_module(f"graphent.{name}")


def _read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, with the newlines text mode would give.

    ``path`` is anything ``os.fspath`` takes (a ``str``, ``bytes`` or path-like
    object); anything else, an int file descriptor or a bool included, raises
    ValidationError before any file is opened. The file is read in one
    unbuffered call and decoded as UTF-8, so a file that is not UTF-8 raises
    ``UnicodeDecodeError`` as text mode's ``read()`` does. ``"\\r\\n"`` and then
    ``"\\r"`` become ``"\\n"``, as under text mode's universal newlines, so every
    parse, and every offset a message names, is that of the text-mode read.
    This is the package's one reader of input files.
    """
    try:
        path = os.fspath(path)
    except TypeError:
        raise ValidationError(f"input path must be a str, bytes or os.PathLike, got {_shown(path)}") from None
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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

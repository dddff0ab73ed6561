"""The value contract of the package's six immutable value classes.

Each is a small record whose fields are its constructor's parameters: equal
exactly when its class and fields are, hashable (except ``CalibrationData``,
which holds a dict), read-only, rebuilt equal by ``copy`` and ``pickle``, and
shown as ``Name(field=value, ...)``.
"""

import copy
import pickle

import pytest

from graphent import BlochVector, CalibrationData, EntanglementEstimate, Gate, Graph
from graphent.validation import PropertyResult

BLOCH = BlochVector(0.1, -0.2, 0.3)

# class, field names, constructor arguments in field order as the fields store
# them, and arguments that differ in one field
CASES = [
    (Graph, ("n_vertices", "edges"), (5, ((0, 1), (1, 2), (1, 3), (3, 4))), (5, ((0, 1), (1, 2)))),
    (Gate, ("kind", "target", "control", "angle"), ("p", 2, None, (0.25, -1.5)), ("p", 2, None, (0.25, 1.5))),
    (
        CalibrationData,
        ("readout_error", "gate_error", "cx_error"),
        ((0.01, 0.02), (1e-3, 2e-3), {(0, 1): 0.03, (1, 0): 0.04}),
        ((0.01, 0.02), (1e-3, 2e-3), {(0, 1): 0.03}),
    ),
    (BlochVector, ("mx", "my", "mz"), (0.1, -0.2, 0.3), (0.1, -0.2, -0.3)),
    (
        EntanglementEstimate,
        ("spin", "value", "bloch", "method", "std_error", "shots"),
        (1, 0.25, BLOCH, "shots", 0.01, 100),
        (1, 0.25, BLOCH, "shots", 0.01, 101),
    ),
    (PropertyResult, ("name", "worst", "threshold"), ("overlap deficit", 3e-16, 1e-12), ("overlap deficit", 3e-16, 1e-10)),
]


@pytest.fixture(params=CASES, ids=[case[0].__name__ for case in CASES])
def case(request):
    return request.param


def test_fields_hold_the_arguments(case):
    cls, fields, args, _ = case
    assert tuple(getattr(cls(*args), name) for name in fields) == args


def test_keyword_and_positional_construction_agree(case):
    cls, fields, args, _ = case
    assert cls(**dict(zip(fields, args))) == cls(*args)


def test_equal_values_compare_and_hash_equal(case):
    cls, _, args, other_args = case
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a != cls(*other_args) and not a == cls(*other_args)
    if cls is CalibrationData:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_another_class_with_the_same_fields_is_not_equal(case):
    cls, _, args, _ = case
    other = type("Other", (cls,), {"__slots__": ()})
    assert cls(*args) != other(*args) and other(*args) != cls(*args)
    assert cls(*args) != args


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, args, _ = case
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


def test_copies_and_pickles_are_equal(case):
    cls, _, args, _ = case
    value = cls(*args)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls
        assert clone == value


def test_repr_lists_the_fields(case):
    cls, fields, args, _ = case
    shown = ", ".join(f"{name}={arg!r}" for name, arg in zip(fields, args))
    assert repr(cls(*args)) == f"{cls.__name__}({shown})"

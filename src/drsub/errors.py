"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: anything a user can fix in their
inputs (InputError, CapacityError, ConfigurationError, ValidationError)
exits with code 1, while InvariantError signals that a run violated an
internal contract and exits with code 2.  ``fields`` reads one JSON object
against its typed, closed schema.
"""

import itertools
import reprlib
import sys

import numpy as np


class DrsubError(Exception):
    """Base class for all toolkit errors."""


class InputError(DrsubError):
    """Malformed or out-of-domain user input (dimension mismatch, NaN, ...)."""


class CapacityError(DrsubError):
    """Input exceeds a documented desk-scale capacity limit."""


class ConfigurationError(DrsubError):
    """Incompatible combination of solver family, schedule, and feasible body."""


class ValidationError(DrsubError):
    """A schedule failed its monotonicity or boundary-condition checks."""


class InvariantError(DrsubError):
    """A runtime invariant that should hold by construction was violated."""


#: expected kinds of JSON field: (description, leaf type, array depth)
_EXPECTED = {
    "int": ("an integer", "int", 0),
    "real": ("a finite real number", "real", 0),
    "ints": ("an array of integers", "int", 1),
    "reals": ("an array of finite real numbers", "real", 1),
    "int lists": ("an array of integer arrays", "int", 2),
    "matrix": ("a rectangular array of finite real numbers", "real", 2),
}


def _typed(value, leaf, depth: int):
    """``value`` if it has the expected kind, else None.

    Integral floats become ints where integers are expected.  Arrays of reals,
    the only long arrays, are checked in bulk and returned as float arrays.
    """
    if depth and leaf == "real":
        try:
            leaves = itertools.chain.from_iterable(value) if depth == 2 else value
            if not isinstance(value, list) or not set(map(type, leaves)) <= {int, float}:
                return None  # bool is a type of its own, so it is rejected here
            array = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):  # not nested lists, ragged, huge int
            return None
        shaped = array.ndim == depth or array.size == 0
        return array if shaped and np.all(np.isfinite(array)) else None
    if depth:
        items = [_typed(v, leaf, depth - 1) for v in value] if isinstance(value, list) else [None]
        return None if None in items else items
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if leaf == "int":
        return value if isinstance(value, int) else int(value) if value.is_integer() else None
    return float(value) if abs(value) <= sys.float_info.max else None  # NaN fails too


def fields(obj, what: str, **expected) -> dict:
    """The fields of one JSON object of kind ``what``, each checked against its expected kind.

    ``expected`` maps every allowed key to a kind of ``_EXPECTED`` (a trailing
    "?" marks it optional, and an absent optional field is left out of the
    result) or to None for a required field whose value the caller checks,
    such as the "kind" tag.  A missing, mistyped or unknown field raises
    InputError naming the field; integers accept integral floats, never booleans.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{what} JSON must be an object")
    unknown = [key for key in obj if key not in expected]
    if unknown:
        raise InputError(f"{what} JSON has unknown field {unknown[0]!r}; "
                         f"expected fields are {sorted(expected)}")
    out = {}
    for key, kind in expected.items():
        if key not in obj:
            if kind is None or not kind.endswith("?"):
                raise InputError(f"{what} JSON is missing required field {key!r}")
        elif kind is None:
            out[key] = obj[key]
        else:
            description, leaf, depth = _EXPECTED[kind.rstrip("?")]
            out[key] = _typed(obj[key], leaf, depth)
            if out[key] is None:
                raise InputError(f"{what} field {key!r} must be {description}, "
                                 f"got {reprlib.repr(obj[key])}")
    return out

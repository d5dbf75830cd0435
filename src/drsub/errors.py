"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: anything a user can fix in their
inputs (InputError, CapacityError, ConfigurationError, ValidationError)
exits with code 1, while InvariantError signals that a run violated an
internal contract and exits with code 2.  Caller input is read here:
``fields`` reads one JSON object against its typed, closed schema, and
``checked_array`` reads every point, gradient, cap and batch that a
caller passes to the oracles, and every array a builder takes; ``real_value`` every scalar.
"""

import itertools
import math
import numbers
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


def is_int(v) -> bool:
    """An integer, numpy's included; a bool is not one."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def real_value(v) -> float:
    """v as a float if it is a real number (a bool is not one), else NaN; a huge integer is inf."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return math.nan
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        return math.inf


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


def real_array(X, name: str) -> np.ndarray:
    """X as a float array of any shape, else InputError naming it ``name``.

    The first step of ``checked_array``, for a builder that checks the
    shape and the values itself; X itself is returned when it needs no conversion.
    """
    try:
        return np.asarray(X, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, huge int
        raise InputError(f"{name} must be an array of real numbers, "
                         f"got {reprlib.repr(X)}") from None


def checked_array(X, shape: tuple, name: str, box_tol: float | None = None) -> np.ndarray:
    """X as a float array of ``shape``, (n,) or (k, n), else InputError naming it ``name``.

    A None in ``shape`` matches any length.  With no ``box_tol`` every entry
    must be finite.  With one, X must lie in the unit box: within ``box_tol``
    outside it is clipped into a copy, and farther out (NaN and infinities
    included) it is refused; a point is scanned as Python floats and a batch
    with numpy, to one verdict.  X itself is returned when it needs no
    conversion or clipping, so the caller must not write to the result.
    """
    X = real_array(X, name)
    if X.shape != shape and (X.ndim != len(shape)
                             or any(k not in (None, size) for k, size in zip(shape, X.shape))):
        expected = str(shape).replace("None", "k")
        raise InputError(f"{name} must have shape {expected}, got shape {X.shape}")
    if box_tol is None:
        if not np.isfinite(X).all():
            raise InputError(f"{name} contains NaN or infinity")
        return X
    if not X.size:
        return X
    if X.ndim == 1:
        # a point or a cap has at most 64 entries, which Python floats scan faster
        # than numpy's reductions.  min and max may pass over a NaN that is not
        # first; the sum carries it and infinities, and overflows only far outside
        values = X.tolist()
        lo, hi = min(values), max(values)
        if not math.isfinite(sum(values)):
            lo = math.nan
    else:
        lo, hi = X.min(), X.max()
    # one comparison per end: NaN fails both, and so do infinities and far-out values
    if not (lo >= -box_tol and hi <= 1.0 + box_tol):
        what = f"{name} {X!r}" if X.ndim == 1 else f"a row of {name}"
        raise InputError(f"{what} is NaN, infinite or outside the unit box")
    return X if lo >= 0.0 and hi <= 1.0 else np.clip(X, 0.0, 1.0)

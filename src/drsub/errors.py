"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: anything a user can fix in their
inputs (InputError, CapacityError, ConfigurationError, ValidationError)
exits with code 1, while InvariantError signals that a run violated an
internal contract and exits with code 2.
"""


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


def required(obj, key: str, kind: str):
    """``obj[key]`` of a JSON object of the given kind; InputError naming both if absent."""
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{kind} JSON is missing required field {key!r}")
    return obj[key]

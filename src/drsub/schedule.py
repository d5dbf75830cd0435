"""Weight schedules (a_t, b_t, T) and the one table of solver families.

A schedule is a pair of nonnegative, nondecreasing functions a and b on a
horizon [0, T].  The solver reads them only as values on its grid: the pair
fixes both the step coefficients and the approximation ratio
(b_T - b_0)/a_T that the final iterate is guaranteed to achieve.

A solver family is one row of :data:`FAMILIES`: its oracle direction, its
step scalars c(a) and d(a), and the coupling db = da / c(a) they impose,
b_t - b_0 = beta(a_t) - beta(a_0).  The row is the update rule and a schedule
only its weights, so every function that needs the rule takes the row.  Each
row's preset (T, a, b) realizes the largest ratio (beta(r) - beta(1))/r over
r = a_T/a_0 (r <= e where the steps share a unit budget); the three general
variants differ only in the preset:

    family        direction  c(a)       d(a)     beta(a)  ratio
    monotone      plain      1          1        a        1 - 1/e
    measured      masked     a          a        ln a     1/e
    general (x3)  offset     2 sqrt(a)  sqrt(a)  sqrt(a)  1/4
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, InputError, ValidationError, fields, is_int, real_value

#: desk-scale cap on the step count N
_MAX_STEPS = 100_000

#: grid resolution used by validate()
_VALIDATION_NODES = 1000

#: round-off allowed in a schedule's weights and in the steps a run takes from them
ROUNDOFF_TOL = 1e-12


@dataclass(frozen=True)
class Schedule:
    """Closed-form weight pair on the horizon [0, T].

    The callables must accept scalars and numpy arrays alike, and must be
    pure: the solver memoizes each N-step table of their values by
    (schedule, family, N), so a callable whose values change between calls
    would be read at its first values.
    """

    T: float
    a: Callable
    b: Callable

    def __post_init__(self):
        if not 0 < real_value(self.T) < math.inf:  # NaN fails too
            raise InputError(f"schedule horizon must be positive and finite, got {self.T!r}")
        if not (callable(self.a) and callable(self.b)):
            raise InputError(f"schedule weights must be callable, got {reprlib.repr(self.a)} "
                             f"and {reprlib.repr(self.b)}")


@dataclass(frozen=True)
class FamilySpec:
    """One solver family: its update rule, its ratio, and its preset schedule.

    ``direction`` is "plain" (the oracle vertex v), "masked" (v <= 1 - x) or
    "offset" (v - x); ``c`` and ``d`` map a_j to the step scalars.
    """

    name: str
    direction: str
    c: Callable
    d: Callable
    beta: Callable
    ratio: float
    preset: Schedule


def _identity(t):
    return np.asarray(t, dtype=float) + 0.0


#: the one update rule of the three general variants, which differ only in the preset
_OFFSET = dict(direction="offset", c=lambda a: 2.0 * np.sqrt(a), d=np.sqrt, beta=np.sqrt,
               ratio=0.25)

#: every solver family by name; the rest of the package reads what a family does from its row
FAMILIES = {spec.name: spec for spec in (
    FamilySpec("monotone", "plain", np.ones_like, np.ones_like, _identity,
               1.0 - math.exp(-1.0), Schedule(1.0, np.exp, np.exp)),
    FamilySpec("measured", "masked", _identity, _identity, np.log,
               math.exp(-1.0), Schedule(1.0, np.exp, _identity)),
    FamilySpec("general", **_OFFSET, preset=Schedule(1.0, lambda t: (1.0 + t) ** 2, _identity)),
    FamilySpec("general-exp", **_OFFSET, preset=Schedule(
        2.0 * math.log(2.0), np.exp, lambda t: np.exp(0.5 * np.asarray(t, dtype=float)) - 1.0)),
    FamilySpec("general-linear", **_OFFSET, preset=Schedule(
        3.0, lambda t: np.asarray(t, dtype=float) + 1.0,
        lambda t: np.sqrt(np.asarray(t, dtype=float) + 1.0) - 1.0)),
)}


def family_spec(family: str) -> FamilySpec:
    """The row of :data:`FAMILIES` named ``family``."""
    if family not in FAMILIES:
        raise InputError(f"unknown solver family {family!r}; expected one of {tuple(FAMILIES)}")
    return FAMILIES[family]


def preset(family: str) -> Schedule:
    """Return the bundled schedule of one solver family."""
    return family_spec(family).preset


def validate(s: Schedule, spec: FamilySpec) -> None:
    """Check the weights, read by ``on_grid`` as a run reads them, on 1000 equal nodes.

    a_0 >= 1 and b_0 >= 0, and every secant slope between neighbouring nodes
    nonnegative; a ``spec`` whose steps share a unit budget (every direction but
    offset) also pins a_0 = 1 and a_T = e.  a_0 >= 1 keeps the headroom floors
    1/a_j and 1/sqrt(a_j) at or below 1 from the first step.  A ValidationError names
    every failed check with its worst node and value.  A run's own grid has its
    step table's rule: no step may run backwards or be too long (``solver._steps``).
    """
    t, a, b = on_grid(s, _VALIDATION_NODES - 1)
    failed = []

    def check(passed, name: str, quantity: str, value: float, at: float) -> None:
        if not passed:
            failed.append(f"{name} ({quantity} {value:.2e} at t={at:.4g})")

    check(a[0] >= 1.0 - ROUNDOFF_TOL, "a0 >= 1", "a0", a[0], 0.0)
    check(b[0] >= -ROUNDOFF_TOL, "b0 nonnegative", "b0", b[0], 0.0)
    for name, w in (("a", a), ("b", b)):
        slope = np.diff(w) / np.diff(t)
        i = int(np.argmin(slope))
        check(slope[i] >= -ROUNDOFF_TOL, f"{name} nondecreasing", "slope", slope[i], t[i])
    if spec.direction != "offset":
        # these rules distribute total step mass ln(a_T/a_0) = 1, so the
        # boundary values are pinned: a_0 = 1 and a_T = e
        log_a0, log_aT = math.log(a[0]), math.log(a[-1])
        check(abs(log_a0) <= ROUNDOFF_TOL, "log a0 == 0", "log a0", log_a0, 0.0)
        check(abs(log_aT - 1.0) <= ROUNDOFF_TOL, "log aT == 1", "log aT", log_aT, s.T)
    if failed:
        raise ValidationError(f"schedule fails validation: {', '.join(failed)}")


def ratio(s: Schedule, spec: FamilySpec) -> float:
    """Guaranteed fraction (b_T - b_0)/a_T of the optimum, after validation."""
    validate(s, spec)
    _, a, b = on_grid(s, 1)
    return float((b[1] - b[0]) / a[1])


def checked_steps(N: int) -> int:
    """``N`` if it is a step count the grid supports: an integer 1 <= N <= 100,000."""
    if not is_int(N):
        raise InputError(f"N must be an integer, got {N!r}")
    if N < 1:
        raise InputError(f"N must be >= 1, got {N}")
    if N > _MAX_STEPS:
        raise CapacityError(f"N must be <= {_MAX_STEPS}, got {N}")
    return N


def on_grid(s: Schedule, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t_j = j*T/N (j = 0..N) and the finite weights a_j > 0 and b_j on them."""
    t = np.linspace(0.0, s.T, checked_steps(N) + 1)
    with np.errstate(all="ignore"):  # overflow and NaN are refused below
        weights = {"a": np.asarray(s.a(t), dtype=float), "b": np.asarray(s.b(t), dtype=float)}
    for name, w in weights.items():
        j = int(np.argmin(np.isfinite(w)))  # the first non-finite node, if any
        if not np.isfinite(w[j]):
            raise InputError(f"schedule weight {name} is {w[j]} at node j={j} (t={t[j]:.6g})")
    if np.any(weights["a"] <= 0):
        raise InputError("schedule weight a must be positive on the grid")
    return t, weights["a"], weights["b"]


def coupling_residual(s: Schedule, spec: FamilySpec, N: int) -> float:
    """Max absolute violation of b - b_0 = beta(a) - beta(a_0) on the N-step grid."""
    _, a, b = on_grid(s, N)
    return float(np.max(np.abs((b - b[0]) - (spec.beta(a) - spec.beta(a[0])))))


# --- user schedules from JSON -------------------------------------------------

_EXPR_FORMS = ("exp", "poly", "sqrt_affine")


def _expr_from_json(spec: dict) -> Callable:
    """Build f from one of the supported closed forms.

    exp:          scale * exp(rate * t) + shift
    poly:         sum_k coeffs[k] * t^k
    sqrt_affine:  scale * sqrt(inner_scale * t + inner_shift) + shift
    """
    if not isinstance(spec, dict) or "form" not in spec:
        raise InputError("schedule expression must be an object with a 'form' key")
    form = spec["form"]
    what = f"{form} schedule"
    if form == "exp":
        v = fields(spec, what, form=None, rate="real", scale="real?", shift="real?")
        rate, scale, shift = v["rate"], v.get("scale", 1.0), v.get("shift", 0.0)
        return lambda t: scale * np.exp(rate * np.asarray(t, dtype=float)) + shift
    if form == "poly":
        coeffs = fields(spec, what, form=None, coeffs="reals")["coeffs"]
        if len(coeffs) == 0:
            raise InputError("poly schedule needs at least one coefficient")
        p = np.polynomial.Polynomial(coeffs)
        return lambda t: p(np.asarray(t, dtype=float))
    if form == "sqrt_affine":
        v = fields(spec, what, form=None, inner_shift="real", inner_scale="real?",
                   scale="real?", shift="real?")
        inner_shift, inner_scale = v["inner_shift"], v.get("inner_scale", 1.0)
        scale, shift = v.get("scale", 1.0), v.get("shift", 0.0)
        return lambda t: scale * np.sqrt(inner_scale * np.asarray(t, dtype=float) + inner_shift) + shift
    raise InputError(f"unknown schedule expression form {form!r}; expected one of {_EXPR_FORMS}")


def schedule_from_json(obj: dict) -> Schedule:
    """Build a user schedule {"a": expr, "b": expr, "T": real}."""
    v = fields(obj, "schedule", a=None, b=None, T="real")
    return Schedule(v["T"], _expr_from_json(v["a"]), _expr_from_json(v["b"]))

"""Weight schedules (a_t, b_t, T) that drive the Frank-Wolfe updates.

A schedule is a pair of nonnegative, nondecreasing, differentiable
functions a and b on a horizon [0, T].  The pair fixes both the step
coefficients of the solver and the approximation ratio (b_T - b_0)/a_T
that the final iterate is guaranteed to achieve.  Each solver family
additionally ties a and b together through a coupling identity:

    monotone                a_t - a_0 = b_t - b_0
    measured                b_t - b_0 = a_0 * ln(a_t / a_0)
    general (all variants)  b_t - b_0 = sqrt(a_0) * (sqrt(a_t) - sqrt(a_0))

The five presets below satisfy their identities exactly and realize the
ratios 1 - 1/e, 1/e, and 1/4 (the three general variants all peak at 1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, ValidationError, fields

PRESET_FAMILIES = ("monotone", "measured", "general", "general-exp", "general-linear")

#: general variants share the sqrt coupling and the 1/4 peak ratio
GENERAL_VARIANTS = ("general", "general-exp", "general-linear")

#: grid resolution used by validate() for the monotonicity checks
_VALIDATION_NODES = 1000
_MONOTONICITY_TOL = 1e-12
_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Schedule:
    """Closed-form weight pair with closed-form derivatives.

    The callables must accept scalars and numpy arrays alike.  ``family``
    selects the update rule and the coupling identity checked by
    :func:`coupling_residual`.
    """

    family: str
    T: float
    a: Callable
    b: Callable
    a_dot: Callable
    b_dot: Callable

    def __post_init__(self):
        if self.T <= 0:
            raise InputError(f"schedule horizon must be positive, got {self.T}")


@dataclass(frozen=True)
class Grid:
    """Equal-step time grid t_j = j*T/N, j = 0..N."""

    N: int
    T: float

    def __post_init__(self):
        if self.N < 1:
            raise InputError(f"grid size N must be >= 1, got {self.N}")
        if self.T <= 0:
            raise InputError(f"grid horizon must be positive, got {self.T}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class ScheduleCheck:
    name: str
    passed: bool
    worst_t: float
    worst_value: float


@dataclass(frozen=True)
class ScheduleReport:
    checks: tuple[ScheduleCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ScheduleCheck]:
        return [c for c in self.checks if not c.passed]


def preset(family: str) -> Schedule:
    """Return the bundled schedule for one of the five solver families."""
    if family == "monotone":
        return Schedule("monotone", 1.0, np.exp, np.exp, np.exp, np.exp)
    if family == "measured":
        return Schedule(
            "measured", 1.0,
            np.exp, lambda t: np.asarray(t, dtype=float) + 0.0,
            np.exp, lambda t: np.ones_like(np.asarray(t, dtype=float)),
        )
    if family == "general":
        return Schedule(
            "general", 1.0,
            lambda t: (1.0 + t) ** 2, lambda t: np.asarray(t, dtype=float) + 0.0,
            lambda t: 2.0 * (1.0 + t), lambda t: np.ones_like(np.asarray(t, dtype=float)),
        )
    if family == "general-exp":
        return Schedule(
            "general-exp", 2.0 * math.log(2.0),
            np.exp, lambda t: np.exp(0.5 * np.asarray(t, dtype=float)) - 1.0,
            np.exp, lambda t: 0.5 * np.exp(0.5 * np.asarray(t, dtype=float)),
        )
    if family == "general-linear":
        return Schedule(
            "general-linear", 3.0,
            lambda t: np.asarray(t, dtype=float) + 1.0,
            lambda t: np.sqrt(np.asarray(t, dtype=float) + 1.0) - 1.0,
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            lambda t: 0.5 / np.sqrt(np.asarray(t, dtype=float) + 1.0),
        )
    raise InputError(f"unknown schedule family {family!r}; expected one of {PRESET_FAMILIES}")


def validate(s: Schedule, nodes: int = _VALIDATION_NODES) -> ScheduleReport:
    """Check the monotonicity class and the family boundary conditions.

    Monotonicity of a and b is checked through their supplied derivatives
    on an equally spaced grid; user schedules with non-monotone weights
    anywhere between grid nodes are out of scope for this report.
    """
    t = np.linspace(0.0, s.T, nodes)
    a0 = float(s.a(0.0))
    b0 = float(s.b(0.0))
    a_dot = np.asarray(s.a_dot(t), dtype=float)
    b_dot = np.asarray(s.b_dot(t), dtype=float)

    def _worst(values: np.ndarray) -> tuple[float, float]:
        i = int(np.argmin(values))
        return float(t[i]), float(values[i])

    checks = [
        ScheduleCheck("a0 positive", a0 > 0.0, 0.0, a0),
        ScheduleCheck("a nondecreasing", bool(np.all(a_dot >= -_MONOTONICITY_TOL)), *_worst(a_dot)),
        ScheduleCheck("b0 nonnegative", b0 >= -_MONOTONICITY_TOL, 0.0, b0),
        ScheduleCheck("b nondecreasing", bool(np.all(b_dot >= -_MONOTONICITY_TOL)), *_worst(b_dot)),
    ]
    if s.family in ("monotone", "measured"):
        # these families distribute total step mass ln(a_T/a_0) = 1, so the
        # boundary values are pinned: a_0 = 1 and a_T = e
        aT = float(s.a(s.T))
        log_a0 = math.log(a0) if a0 > 0 else math.inf
        log_aT = math.log(aT) if aT > 0 else math.inf
        checks.append(ScheduleCheck("log a0 == 0", abs(log_a0) <= _BOUNDARY_TOL, 0.0, log_a0))
        checks.append(ScheduleCheck("log aT == 1", abs(log_aT - 1.0) <= _BOUNDARY_TOL, s.T, log_aT))
    return ScheduleReport(tuple(checks))


def ratio(s: Schedule) -> float:
    """Guaranteed fraction (b_T - b_0)/a_T of the optimum, after validation."""
    report = validate(s)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures())
        raise ValidationError(f"schedule fails validation: {names}")
    return (float(s.b(s.T)) - float(s.b(0.0))) / float(s.a(s.T))


def coupling_residual(s: Schedule, grid: Grid) -> float:
    """Max absolute violation of the family coupling identity on the grid."""
    t = grid.nodes
    a = np.asarray(s.a(t), dtype=float)
    b = np.asarray(s.b(t), dtype=float)
    if s.family == "monotone":
        r = (a - a[0]) - (b - b[0])
    elif s.family == "measured":
        r = (b - b[0]) - a[0] * np.log(a / a[0])
    elif s.family in GENERAL_VARIANTS:
        r = (b - b[0]) - math.sqrt(a[0]) * (np.sqrt(a) - math.sqrt(a[0]))
    else:
        raise InputError(f"unknown schedule family {s.family!r}")
    return float(np.max(np.abs(r)))


def ratio_curve(variant: str, t) -> np.ndarray | float:
    """Running ratio b_t/a_t of a general variant at time t in [0, T].

    Every variant stays at or below 1/4 and touches 1/4 exactly once
    (at t = 2 ln 2, t = 3, and t = 1 respectively).
    """
    if variant not in GENERAL_VARIANTS:
        raise InputError(f"ratio_curve is defined for {GENERAL_VARIANTS}, got {variant!r}")
    s = preset(variant)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > s.T + 1e-12):
        raise InputError(f"t must lie in [0, {s.T}] for variant {variant!r}")
    out = np.asarray(s.b(t_arr), dtype=float) / np.asarray(s.a(t_arr), dtype=float)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


# --- user schedules from JSON -------------------------------------------------

_EXPR_FORMS = ("exp", "poly", "sqrt_affine")


def _expr_from_json(spec: dict) -> tuple[Callable, Callable]:
    """Build (f, f') from one of the supported closed forms.

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
        f = lambda t: scale * np.exp(rate * np.asarray(t, dtype=float)) + shift
        fd = lambda t: scale * rate * np.exp(rate * np.asarray(t, dtype=float))
        return f, fd
    if form == "poly":
        coeffs = fields(spec, what, form=None, coeffs="reals")["coeffs"]
        if len(coeffs) == 0:
            raise InputError("poly schedule needs at least one coefficient")
        p = np.polynomial.Polynomial(coeffs)
        pd = p.deriv()
        return (lambda t: p(np.asarray(t, dtype=float)),
                lambda t: pd(np.asarray(t, dtype=float)))
    if form == "sqrt_affine":
        v = fields(spec, what, form=None, inner_shift="real", inner_scale="real?",
                   scale="real?", shift="real?")
        inner_shift, inner_scale = v["inner_shift"], v.get("inner_scale", 1.0)
        scale, shift = v.get("scale", 1.0), v.get("shift", 0.0)
        if inner_shift < 0:
            raise InputError("sqrt_affine needs inner_shift >= 0 so the root is real at t=0")
        f = lambda t: scale * np.sqrt(inner_scale * np.asarray(t, dtype=float) + inner_shift) + shift
        fd = lambda t: scale * inner_scale * 0.5 / np.sqrt(inner_scale * np.asarray(t, dtype=float) + inner_shift)
        return f, fd
    raise InputError(f"unknown schedule expression form {form!r}; expected one of {_EXPR_FORMS}")


def schedule_from_json(obj: dict, family: str) -> Schedule:
    """Build a user schedule {"a": expr, "b": expr, "T": real} for a family."""
    if family not in PRESET_FAMILIES:
        raise InputError(f"unknown schedule family {family!r}")
    v = fields(obj, "schedule", a=None, b=None, T="real")
    a, a_dot = _expr_from_json(v["a"])
    b, b_dot = _expr_from_json(v["b"])
    return Schedule(family, v["T"], a, b, a_dot, b_dot)

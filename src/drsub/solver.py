"""Schedule-driven Frank-Wolfe engine with per-step telemetry.

One generic update rule covers all three solver families.  At step j on
the grid t_j = j*T/N the iterate moves by

    x_{j+1} = x_j + rho_j * u_j,      rho_j = (b_{j+1} - b_j) / a_{j+1} * d_j,

where the direction u_j and the scalars c_j, d_j come from the family:

    monotone   plain oracle direction v_j, c = d = 1
    measured   masked oracle direction (v <= 1 - x_j), c = d = a_j
    general    offset direction v_j - x_j, c = 2 sqrt(a_j), d = sqrt(a_j)

The telemetry recorded along the trajectory makes the analysis checkable
at runtime: G_j measures how far the step violates the schedule coupling
(zero or negative for the presets), B_j bounds the per-step drop of the
potential a_j F(x_j) - b_j OPT, and the infinity-norm margins certify that
the masked and offset families keep enough headroom below the box ceiling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InputError, InvariantError, ValidationError
from .feasible import ConvexBody
from .objective import DrFunction
from .schedule import GENERAL_VARIANTS, Schedule, on_grid

_STEP_MASS_TOL = 1e-12


@dataclass(frozen=True)
class FamilySpec:
    """Per-family plug-ins for the generic update.

    The scalar rules are functions of the schedule value a_j only.  The
    trajectory margins verify after the fact that the headroom factor
    1 - 1/a_j (masked family) or 1 - 1/sqrt(a_j) (offset family), taken
    from the schedule, dominates ||x_j||_inf.
    """

    family: str
    masked: bool
    offset_direction: bool
    c_of_a: Callable[[np.ndarray], np.ndarray]
    d_of_a: Callable[[np.ndarray], np.ndarray]


def family_spec(family: str) -> FamilySpec:
    """Plug-in bundle for a family tag (general variants share one bundle)."""
    if family == "monotone":
        one = lambda a: np.ones_like(np.asarray(a, dtype=float))
        return FamilySpec("monotone", False, False, one, one)
    if family == "measured":
        ident = lambda a: np.asarray(a, dtype=float) + 0.0
        return FamilySpec("measured", True, False, ident, ident)
    if family in GENERAL_VARIANTS:
        return FamilySpec(family, False, True,
                          lambda a: 2.0 * np.sqrt(a),
                          lambda a: np.sqrt(np.asarray(a, dtype=float)))
    raise InputError(f"unknown solver family {family!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complete iterate record of one run; immutable once returned.

    State arrays have length N+1; step arrays (direction, rho, G, B) have
    length N.  ``gronwall_margin`` is None for the monotone family, which
    needs no headroom below the box ceiling.
    """

    family: str
    N: int
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray            # (N+1, n)
    F: np.ndarray            # (N+1,)
    infnorm: np.ndarray      # (N+1,)
    v: np.ndarray            # (N, n)
    rho: np.ndarray          # (N,)
    G: np.ndarray            # (N,)
    B_exact: np.ndarray      # (N,)
    B_bound: np.ndarray      # (N,)
    gronwall_margin: np.ndarray | None   # (N+1,)
    start_infnorm: float
    D: float
    L: float
    value_calls: int
    grad_calls: int
    lmo_calls: int
    wall_seconds: float

    @property
    def final_x(self) -> np.ndarray:
        return self.x[-1]

    @property
    def final_value(self) -> float:
        return float(self.F[-1])

    @property
    def min_gronwall_margin(self) -> float | None:
        if self.gronwall_margin is None:
            return None
        return float(np.min(self.gronwall_margin))


@dataclass(frozen=True, eq=False)
class PotentialSeries:
    """Potential values E_j = a_j F(x_j) - b_j OPT and their increments.

    ``margins[j]`` is E_{j+1} - E_j + max(G_j, 0)*OPT + B_exact_j; the
    analysis promises every margin is nonnegative up to round-off.
    """

    E: np.ndarray
    increments: np.ndarray
    margins: np.ndarray

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins)) if self.margins.size else 0.0


@dataclass(frozen=True)
class GuaranteeBound:
    """A-priori lower bound F(x_N) >= coefficient * OPT - additive."""

    coefficient: float
    additive: float


def g_series(s: Schedule, spec: FamilySpec, N: int) -> np.ndarray:
    """Coupling terms G_j = c_j (b_{j+1} - b_j) - (a_{j+1} - a_j), j = 0..N-1."""
    _, a, b = on_grid(s, N)
    return spec.c_of_a(a[:-1]) * np.diff(b) - np.diff(a)


def _step_bounds(spec: FamilySpec, a: np.ndarray, b: np.ndarray, L: float,
                 D: float) -> np.ndarray:
    """Step-free bounds (D L / 2) (b_{j+1} - b_j)^2 d_j^2 / a_{j+1} >= B_exact_j.

    float_power rounds like a scalar ``x ** 2`` (C pow); an array ``** 2``
    computes x * x, which can differ in the last ulp.
    """
    d = np.asarray(spec.d_of_a(a[:-1]), dtype=float)
    return 0.5 * D * L * np.float_power(np.diff(b), 2) * d * d / a[1:]


def run(f: DrFunction, C: ConvexBody, s: Schedule, spec: FamilySpec, N: int) -> Trajectory:
    """Run N equal steps from the origin and record full telemetry."""
    return _run(f, C, s, spec, N, np.zeros(C.n))


def arbitrary_start_run(f: DrFunction, C: ConvexBody, s: Schedule, N: int, x0) -> Trajectory:
    """Offset-direction run from a caller-chosen feasible start.

    Only the general family supports this: its update contracts toward
    the oracle vertex, so feasibility is preserved from any x0 in the
    body, and the guarantee coefficient scales by 1 - ||x0||_inf.
    """
    if s.family not in GENERAL_VARIANTS:
        raise ConfigurationError("arbitrary starts are supported by the general family only")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (C.n,):
        raise InputError(f"start point must have dimension {C.n}")
    if not C.contains(x0):
        raise InputError("start point is not feasible")
    return _run(f, C, s, family_spec(s.family), N, x0)


def _run(f: DrFunction, C: ConvexBody, s: Schedule, spec: FamilySpec, N: int,
         x0: np.ndarray) -> Trajectory:
    if f.n != C.n:
        raise InputError(f"objective dimension {f.n} != body dimension {C.n}")
    if spec.family != s.family and not (spec.family in GENERAL_VARIANTS
                                        and s.family in GENERAL_VARIANTS):
        raise ConfigurationError(f"family spec {spec.family!r} does not match schedule {s.family!r}")

    start = time.perf_counter()
    t, a, b = on_grid(s, N)
    n = C.n
    D = C.diameter()
    L = f.L

    xs = np.zeros((N + 1, n))
    Fs = np.zeros(N + 1)
    vs = np.zeros((N, n))
    rho = np.diff(b) / a[1:] * np.asarray(spec.d_of_a(a[:-1]), dtype=float)
    # the body is convex and holds 0, so x_N = sum_j rho_j v_j stays in it when
    # sum_j rho_j <= 1, and an offset step x + rho_j (v - x) when rho_j <= 1
    what, mass = ("max rho_j", np.max(rho)) if spec.offset_direction else ("sum rho_j", np.sum(rho))
    if not mass <= 1.0 + _STEP_MASS_TOL:
        raise ValidationError(
            f"schedule steps are too long: {what} = {mass:.6g} exceeds 1 at N={N}")
    G = g_series(s, spec, N)
    B_exact = np.zeros(N)
    B_bound = _step_bounds(spec, a, b, L, D)

    x = x0.astype(float).copy()
    xs[0] = x
    Fs[0] = f.value(x)
    for j in range(N):
        g = f.grad(x)
        v = C.masked_lmo(g, np.clip(1.0 - x, 0.0, 1.0)) if spec.masked else C.lmo(g)
        x_next = x + rho[j] * (v - x if spec.offset_direction else v)
        if not C.contains(x_next):
            raise InvariantError(
                f"iterate left the body at step {j}: x={x_next!r} (family {spec.family})")
        dx = x_next - x
        vs[j] = v
        B_exact[j] = a[j + 1] * 0.5 * L * float(np.dot(dx, dx))
        x = x_next
        xs[j + 1] = x
        Fs[j + 1] = f.value(x)

    infnorm = np.max(np.abs(xs), axis=1) if n else np.zeros(N + 1)
    start_slack = 1.0 - float(np.max(np.abs(x0))) if n else 1.0
    if spec.family == "monotone":
        margins = None
    else:
        floor = start_slack / a if spec.masked else start_slack / np.sqrt(a)
        margins = (1.0 - infnorm) - floor

    for arr in (t, a, b, xs, Fs, infnorm, vs, rho, G, B_exact, B_bound, margins):
        if arr is not None:
            arr.flags.writeable = False
    return Trajectory(
        family=spec.family, N=N, t=t, a=a, b=b, x=xs, F=Fs, infnorm=infnorm,
        v=vs, rho=rho, G=G, B_exact=B_exact, B_bound=B_bound,
        gronwall_margin=margins, start_infnorm=float(np.max(np.abs(x0))) if n else 0.0,
        D=D, L=L, value_calls=N + 1, grad_calls=N, lmo_calls=N,
        wall_seconds=time.perf_counter() - start)


def potential_series(traj: Trajectory, opt_value: float) -> PotentialSeries:
    """Potential telemetry against a ground-truth (or lower-bound) optimum.

    Any opt_value below the true optimum only makes the recorded margins
    larger, so certified lower bounds are safe inputs here.
    """
    if opt_value <= 0:
        raise InputError(f"opt_value must be positive, got {opt_value}")
    E = traj.a * traj.F - traj.b * opt_value
    increments = np.diff(E)
    margins = increments + np.maximum(traj.G, 0.0) * opt_value + traj.B_exact
    return PotentialSeries(E, increments, margins)


def guarantee(s: Schedule, spec: FamilySpec, N: int, L: float, D: float,
              start_infnorm: float = 0.0) -> GuaranteeBound:
    """A-priori bound for an N-step run: F(x_N) >= coefficient*OPT - additive.

    The additive term is the exact sum of the relaxed per-step bounds and
    shrinks like 1/N; the coefficient equals the schedule ratio minus the
    (zero, for presets) positive part of the coupling terms, scaled by the
    start headroom for arbitrary-start offset runs.
    """
    if L < 0 or D < 0:
        raise InputError("L and D must be nonnegative")
    if not 0.0 <= start_infnorm <= 1.0:
        raise InputError("start_infnorm must lie in [0, 1]")
    if start_infnorm > 0.0 and not spec.offset_direction:
        raise ConfigurationError("only the general family supports arbitrary starts")
    _, a, b = on_grid(s, N)
    G = g_series(s, spec, N)
    additive = float(np.sum(_step_bounds(spec, a, b, L, D)) / a[-1])
    coefficient = float((b[-1] - b[0] - np.sum(np.maximum(G, 0.0))) / a[-1])
    return GuaranteeBound(coefficient * (1.0 - start_infnorm), additive)


# --- trajectory CSV ------------------------------------------------------------

CSV_COLUMNS = ("j", "t", "F", "infnorm", "rho", "Gj", "Bj_exact", "Bj_bound",
               "gronwall_margin", "Ej")


def _fmt(x: float | None) -> str:
    return "" if x is None else format(float(x), ".17g")


def trajectory_csv(traj: Trajectory, potential: PotentialSeries | None = None) -> str:
    """Render a trajectory as CSV text (step columns are empty on the last row)."""
    lines = [",".join(CSV_COLUMNS)]
    for j in range(traj.N + 1):
        last = j == traj.N
        row = [
            str(j),
            _fmt(traj.t[j]),
            _fmt(traj.F[j]),
            _fmt(traj.infnorm[j]),
            _fmt(None if last else traj.rho[j]),
            _fmt(None if last else traj.G[j]),
            _fmt(None if last else traj.B_exact[j]),
            _fmt(None if last else traj.B_bound[j]),
            _fmt(None if traj.gronwall_margin is None else traj.gronwall_margin[j]),
            _fmt(None if potential is None else potential.E[j]),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

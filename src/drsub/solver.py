"""Schedule-driven Frank-Wolfe engine with per-step telemetry.

One generic update rule covers every solver family.  At step j on the
grid t_j = j*T/N the iterate moves by

    x_{j+1} = x_j + rho_j * u_j,      rho_j = (b_{j+1} - b_j) / a_{j+1} * d_j,

where the direction u_j (the oracle vertex v_j, the masked vertex
v_j <= 1 - x_j, or the offset v_j - x_j) and the scalars c_j, d_j are read
from the family's row of ``schedule.FAMILIES``; nothing here branches on a
family name.

The telemetry recorded along the trajectory makes the analysis checkable
at runtime: G_j measures how far the step violates the schedule coupling
(zero or negative for the presets), B_j bounds the per-step drop of the
potential a_j F(x_j) - b_j OPT, and the infinity-norm margins certify that
the masked and offset families keep enough headroom below the box ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError, InvariantError, ValidationError
from .feasible import ConvexBody
from .objective import DrFunction
from .schedule import FamilySpec, Schedule, family_spec, on_grid  # noqa: F401 (re-exported)

_STEP_MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complete iterate record of one run; immutable once returned.

    State arrays have length N+1; step arrays (rho, G, B) have length N.
    ``gronwall_margin`` is None for the plain direction (the monotone family),
    which needs no headroom below the box ceiling.
    """

    N: int
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray            # (N+1, n)
    F: np.ndarray            # (N+1,)
    infnorm: np.ndarray      # (N+1,)
    rho: np.ndarray          # (N,)
    G: np.ndarray            # (N,)
    B_exact: np.ndarray      # (N,)
    B_bound: np.ndarray      # (N,)
    gronwall_margin: np.ndarray | None   # (N+1,)
    bound: GuaranteeBound    # the a-priori guarantee, scaled by the start headroom
    value_calls: int
    grad_calls: int
    lmo_calls: int

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

    def potential(self, opt: float) -> np.ndarray:
        """The potential E_j = a_j F(x_j) - b_j opt, j = 0..N.

        opt must be positive.  Any opt below the true optimum only makes the
        potential increments larger, so certified lower bounds are safe inputs.
        """
        if opt <= 0:
            raise InputError(f"opt must be positive, got {opt}")
        return self.a * self.F - self.b * opt


@dataclass(frozen=True)
class GuaranteeBound:
    """A-priori lower bound F(x_N) >= coefficient * OPT - additive."""

    coefficient: float
    additive: float


def g_series(s: Schedule, spec: FamilySpec, N: int) -> np.ndarray:
    """Coupling terms G_j = c_j (b_{j+1} - b_j) - (a_{j+1} - a_j), j = 0..N-1."""
    _, a, b = on_grid(s, N)
    return spec.c(a[:-1]) * np.diff(b) - np.diff(a)


def _step_bounds(spec: FamilySpec, a: np.ndarray, b: np.ndarray, L: float,
                 D: float) -> np.ndarray:
    """Step-free bounds (D L / 2) (b_{j+1} - b_j)^2 d_j^2 / a_{j+1} >= B_exact_j.

    float_power rounds like a scalar ``x ** 2`` (C pow); an array ``** 2``
    computes x * x, which can differ in the last ulp.
    """
    d = np.asarray(spec.d(a[:-1]), dtype=float)
    return 0.5 * D * L * np.float_power(np.diff(b), 2) * d * d / a[1:]


def _bound(a: np.ndarray, b: np.ndarray, G: np.ndarray, B_bound: np.ndarray,
           start_slack: float) -> GuaranteeBound:
    """F(x_N) >= coefficient*OPT - additive from the grid weights, G_j and relaxed B_j.

    The additive term is the exact sum of the relaxed per-step bounds and shrinks
    like 1/N; the coefficient is the schedule ratio minus the (zero, for presets)
    positive part of the coupling terms, scaled by the start headroom 1 - ||x_0||_inf.
    """
    coefficient = float((b[-1] - b[0] - np.sum(np.maximum(G, 0.0))) / a[-1])
    return GuaranteeBound(float(coefficient * start_slack), float(np.sum(B_bound) / a[-1]))


def run(f: DrFunction, C: ConvexBody, s: Schedule, spec: FamilySpec, N: int,
        x0=None) -> Trajectory:
    """Run N equal steps of ``spec``'s rule from the origin, or from x0, with full telemetry.

    Only the offset direction starts from a caller-chosen feasible x0: its
    update contracts toward the oracle vertex, so feasibility is preserved
    from any x0 in the body, and the guarantee coefficient (``bound``) scales
    by 1 - ||x0||_inf.
    """
    if f.n != C.n:
        raise InputError(f"objective dimension {f.n} != body dimension {C.n}")
    if x0 is None:
        x0 = np.zeros(C.n)
    elif spec.direction != "offset":
        raise ConfigurationError("arbitrary starts are supported by the general family only")
    elif not C.contains(x0):  # also refuses a wrong shape, NaN or infinity
        raise InputError("start point is not feasible")

    t, a, b = on_grid(s, N)
    n = C.n
    D = C.diameter()
    L = f.L

    xs = np.zeros((N + 1, n))
    Fs = np.zeros(N + 1)
    rho = np.diff(b) / a[1:] * np.asarray(spec.d(a[:-1]), dtype=float)
    # the body is convex and holds 0, so x_N = sum_j rho_j v_j stays in it when
    # sum_j rho_j <= 1, and an offset step x + rho_j (v - x) when rho_j <= 1
    offset = spec.direction == "offset"
    what, mass = ("max rho_j", np.max(rho)) if offset else ("sum rho_j", np.sum(rho))
    if not mass <= 1.0 + _STEP_MASS_TOL:
        raise ValidationError(
            f"schedule steps are too long: {what} = {mass:.6g} exceeds 1 at N={N}")
    G = g_series(s, spec, N)
    B_exact = np.zeros(N)
    B_bound = _step_bounds(spec, a, b, L, D)

    value_calls = grad_calls = lmo_calls = 0
    x = np.array(x0, dtype=float)
    xs[0] = x
    Fs[0] = f.value(x)
    value_calls += 1
    v = None  # the previous step's vertex starts the next oracle call
    for j in range(N):
        g = f.grad(x)
        grad_calls += 1
        if spec.direction == "masked":
            v = C.masked_lmo(g, np.clip(1.0 - x, 0.0, 1.0), v)
        else:
            v = C.lmo(g, v)
        lmo_calls += 1
        x_next = x + rho[j] * (v - x if offset else v)
        if not C.contains(x_next):
            raise InvariantError(
                f"iterate left the body at step {j}: x={x_next!r} (family {spec.name})")
        dx = x_next - x
        B_exact[j] = a[j + 1] * 0.5 * L * float(np.dot(dx, dx))
        x = x_next
        xs[j + 1] = x
        Fs[j + 1] = f.value(x)
        value_calls += 1

    infnorm = np.max(np.abs(xs), axis=1)
    start_slack = 1.0 - infnorm[0]
    # the headroom floor start_slack / d(a_j) that the masked and offset rules keep
    # below the box ceiling; the plain rule needs none
    margins = None if spec.direction == "plain" else (1.0 - infnorm) - start_slack / spec.d(a)

    for arr in (t, a, b, xs, Fs, infnorm, rho, G, B_exact, B_bound, margins):
        if arr is not None:
            arr.flags.writeable = False
    return Trajectory(
        N=N, t=t, a=a, b=b, x=xs, F=Fs, infnorm=infnorm,
        rho=rho, G=G, B_exact=B_exact, B_bound=B_bound, gronwall_margin=margins,
        bound=_bound(a, b, G, B_bound, start_slack),
        value_calls=value_calls, grad_calls=grad_calls, lmo_calls=lmo_calls)


def guarantee(s: Schedule, spec: FamilySpec, N: int, L: float, D: float) -> GuaranteeBound:
    """A-priori bound for an N-step run from the origin: F(x_N) >= coefficient*OPT - additive.

    ``run`` attaches the same bound, for its own start, as ``Trajectory.bound``.
    """
    if L < 0 or D < 0:
        raise InputError("L and D must be nonnegative")
    _, a, b = on_grid(s, N)
    return _bound(a, b, g_series(s, spec, N), _step_bounds(spec, a, b, L, D), 1.0)


# --- trajectory CSV ------------------------------------------------------------

CSV_COLUMNS = ("j", "t", "F", "infnorm", "rho", "Gj", "Bj_exact", "Bj_bound",
               "gronwall_margin", "Ej")


def _fmt(x: float | None) -> str:
    return "" if x is None else format(float(x), ".17g")


def trajectory_csv(traj: Trajectory, opt: float | None = None) -> str:
    """Render a trajectory as CSV text (step columns are empty on the last row).

    The ``Ej`` column holds ``traj.potential(opt)``, and is empty without opt.
    """
    E = None if opt is None else traj.potential(opt)
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
            _fmt(None if E is None else E[j]),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

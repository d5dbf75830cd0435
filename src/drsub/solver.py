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

The step sizes, the coupling terms, the step-bound factors and the bound's
coefficient depend only on (schedule, family, N), so ``run``, ``guarantee``
and ``g_series`` read one read-only table of them, memoized for N <= 1,000.

A step makes exactly three oracle calls: one gradient, one LMO (masked with
the cap 1 - x_j for the masked direction) and one value of the new iterate.
Every LMO call gets the run's one ``feasible.WarmStart`` as its start, so a
packing body's next LP reuses the last one's tableau.
Membership of the iterates is checked once, over the whole trajectory, in
one ``contains_batch`` after the loop; an iterate that leaves the body
still fails the run with an InvariantError naming its step.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, InputError, InvariantError, ValidationError, checked_array,
                     real_value)
from .feasible import ConvexBody, WarmStart
from .objective import DrFunction
from .schedule import (ROUNDOFF_TOL, FamilySpec, Schedule, checked_steps,  # noqa: F401 (re-exported)
                       family_spec, on_grid)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complete iterate record of one run; immutable once returned.

    State arrays have length N+1; step arrays (rho, G, B) have length N.
    ``gronwall_margin`` is None for the plain direction (the monotone family),
    which needs no headroom below the box ceiling.  The counters are counted,
    not assumed: value_calls = N + 1 (one value per iterate, one at a time)
    and grad_calls = lmo_calls = N.
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

        opt must be a finite positive real number; anything else (NaN, an
        infinity, a string, a bool, an integer beyond the float range) raises
        InputError.  Any opt below the true optimum only makes the potential
        increments larger, so certified lower bounds are safe inputs.
        """
        if not 0.0 < (value := real_value(opt)) < math.inf:  # NaN fails too
            raise InputError(f"opt must be a finite positive real number, got {reprlib.repr(opt)}")
        return self.a * self.F - self.b * value


@dataclass(frozen=True)
class GuaranteeBound:
    """A-priori lower bound F(x_N) >= coefficient * OPT - additive."""

    coefficient: float
    additive: float


def g_series(s: Schedule, spec: FamilySpec, N: int) -> np.ndarray:
    """Coupling terms G_j = c_j (b_{j+1} - b_j) - (a_{j+1} - a_j), j = 0..N-1 (read-only)."""
    return _steps(s, spec, N)[4]


#: step counts up to this one are memoized: 32 tables of at most 7 (N+1)-arrays, about 2 MB
_MEMO_STEPS = 1000


def _steps(s: Schedule, spec: FamilySpec, N: int) -> tuple:
    """The read-only step table (t, a, b, rho, G, db2, d, coefficient) of an N-step run.

    t, a and b are the grid nodes and weights; rho_j = (b_{j+1} - b_j) / a_{j+1}
    * d_j the step sizes, none negative and with mass at most 1; G_j the coupling terms
    of ``g_series``; db2 = (b_{j+1} - b_j)^2, which float_power rounds like a
    scalar ``x ** 2`` (C pow: an array ``** 2`` computes x * x, which can
    differ in the last ulp); d = d(a_j) at every node, j = 0..N; and the
    coefficient (b_N - b_0 - sum_j max(G_j, 0)) / a_N of the a-priori bound.
    The table depends only on (s, spec, N), so one for N <= 1,000 is built
    once and shared; a schedule whose callables cannot be hashed is built
    on every call.
    """
    N = checked_steps(N)  # before hashing: 5.0 and True hash like integers
    try:
        hash((s, spec))
    except TypeError:
        return _build_steps(s, spec, N)
    return (_memo_steps if N <= _MEMO_STEPS else _build_steps)(s, spec, N)


def _build_steps(s: Schedule, spec: FamilySpec, N: int) -> tuple:
    t, a, b = on_grid(s, N)
    db = np.diff(b)
    d = np.asarray(spec.d(a), dtype=float)
    rho = db / a[1:] * d[:-1]
    j = int(np.argmin(rho))
    if not rho[j] >= -ROUNDOFF_TOL:  # a backward step can leave the body, as a long one can
        raise ValidationError(f"schedule steps run backwards: rho_{j} = {rho[j]:.6g} at N={N}")
    # the body is convex and holds 0, so x_N = sum_j rho_j v_j stays in it when
    # sum_j rho_j <= 1, and an offset step x + rho_j (v - x) when rho_j <= 1
    offset = spec.direction == "offset"
    what, mass = ("max rho_j", np.max(rho)) if offset else ("sum rho_j", np.sum(rho))
    if not mass <= 1.0 + ROUNDOFF_TOL:
        raise ValidationError(
            f"schedule steps are too long: {what} = {mass:.6g} exceeds 1 at N={N}")
    G = spec.c(a[:-1]) * db - np.diff(a)
    # the schedule ratio minus the (zero, for presets) positive part of the coupling terms
    coefficient = float((b[-1] - b[0] - np.sum(np.maximum(G, 0.0))) / a[-1])
    return (*map(_frozen, (t, a, b, rho, G, np.float_power(db, 2), d)), coefficient)


_memo_steps = functools.lru_cache(maxsize=32)(_build_steps)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr as a read-only view of a read-only owner, which no caller can make writeable again."""
    owner = arr if arr.base is None else arr.copy()
    owner.flags.writeable = False
    return owner.view()


def _bound(steps: tuple, L: float, D: float,
           start_slack: float) -> tuple[np.ndarray, GuaranteeBound]:
    """The relaxed step bounds B_j >= B_exact_j, and F(x_N) >= coefficient*OPT - additive.

    B_j = (D L / 2) (b_{j+1} - b_j)^2 d_j^2 / a_{j+1} is step-free.  The
    additive term is their exact sum over a_N and shrinks like 1/N; the
    coefficient scales by the start headroom 1 - ||x_0||_inf.
    """
    _, a, _, _, _, db2, d, coefficient = steps
    B_bound = 0.5 * D * L * db2 * d[:-1] * d[:-1] / a[1:]
    return B_bound, GuaranteeBound(float(coefficient * start_slack),
                                   float(np.sum(B_bound) / a[-1]))


def run(f: DrFunction, C: ConvexBody, s: Schedule, spec: FamilySpec, N: int,
        x0=None) -> Trajectory:
    """Run N equal steps of ``spec``'s rule from the origin, or from x0, with full telemetry.

    Only the offset direction starts from a caller-chosen feasible x0: its
    update contracts toward the oracle vertex, so feasibility is preserved
    from any x0 in the body, and the guarantee coefficient (``bound``) scales
    by 1 - ||x0||_inf.  The plain direction's guarantee needs a monotone f,
    so it refuses any other before the first oracle call.
    """
    if f.n != C.n:
        raise InputError(f"objective dimension {f.n} != body dimension {C.n}")
    if spec.direction == "plain" and not f.monotone:
        raise ConfigurationError("the monotone family needs a monotone instance; "
                                 "use measured or general")
    if x0 is None:
        x0 = np.zeros(C.n)
    elif spec.direction != "offset":
        raise ConfigurationError("arbitrary starts are supported by the general family only")
    elif not C.contains(x0 := checked_array(x0, (C.n,), "start point")):
        raise InputError("start point is not feasible")

    steps = _steps(s, spec, N)
    t, a, b, rho, G, _, d, _ = steps
    L = f.L

    xs = np.zeros((N + 1, C.n))
    Fs = np.zeros(N + 1)
    B_exact = np.zeros(N)
    offset = spec.direction == "offset"

    value_calls = grad_calls = lmo_calls = 0
    x = np.array(x0, dtype=float)
    xs[0] = x
    Fs[0] = f.value(x)
    value_calls += 1
    masked = spec.direction == "masked"
    warm = WarmStart()  # the previous step's LP starts the next oracle call
    try:
        for j in range(N):
            g = f.grad(x)
            grad_calls += 1
            v = C.masked_lmo(g, 1.0 - x, warm) if masked else C.lmo(g, warm)
            lmo_calls += 1
            x_next = x + rho[j] * (v - x if offset else v)
            dx = x_next - x
            B_exact[j] = a[j + 1] * 0.5 * L * float(np.dot(dx, dx))
            x = x_next
            xs[j + 1] = x
            Fs[j + 1] = f.value(x)
            value_calls += 1
    except InputError as e:
        # an iterate outside the unit box reaches the objective before the body
        # check.  Only the last row written, x_{j+1}, can be NaN or infinite, and
        # the batch check would refuse such a row as input, so it goes in only if finite
        _check_iterates(C, xs[:j + 2 if np.isfinite(xs[j + 1]).all() else j + 1], spec)
        raise InputError(f"step {j}, family {spec.name}: {e}") from e
    _check_iterates(C, xs, spec)

    infnorm = np.max(np.abs(xs), axis=1)
    start_slack = 1.0 - infnorm[0]
    # the headroom floor start_slack / d(a_j) that the masked and offset rules keep
    # below the box ceiling; the plain rule needs none
    margins = None if spec.direction == "plain" else (1.0 - infnorm) - start_slack / d
    B_bound, bound = _bound(steps, L, C.diameter(), start_slack)

    for arr in (xs, Fs, infnorm, B_exact, B_bound, margins):  # the step table is read-only
        if arr is not None:
            arr.flags.writeable = False
    return Trajectory(
        N=N, t=t, a=a, b=b, x=xs, F=Fs, infnorm=infnorm,
        rho=rho, G=G, B_exact=B_exact, B_bound=B_bound, gronwall_margin=margins,
        bound=bound,
        value_calls=value_calls, grad_calls=grad_calls, lmo_calls=lmo_calls)


def _check_iterates(C: ConvexBody, xs: np.ndarray, spec: FamilySpec) -> None:
    """Raise InvariantError naming the first row of xs (the iterates x_0, x_1, ...) outside C."""
    inside = C.contains_batch(xs)
    if not inside.all():
        k = int(np.argmin(inside))
        raise InvariantError(
            f"iterate left the body at step {k - 1}: x={xs[k]!r} (family {spec.name})")


def guarantee(s: Schedule, spec: FamilySpec, N: int, L: float, D: float) -> GuaranteeBound:
    """A-priori bound for an N-step run from the origin: F(x_N) >= coefficient*OPT - additive.

    ``run`` attaches the same bound, for its own start, as ``Trajectory.bound``.
    """
    if not all(0.0 <= real_value(v) < math.inf for v in (L, D)):  # NaN fails too
        raise InputError(f"L and D must be nonnegative and finite, got {reprlib.repr((L, D))}")
    return _bound(_steps(s, spec, N), L, D, 1.0)[1]


# --- trajectory CSV ------------------------------------------------------------

CSV_COLUMNS = ("j", "t", "F", "infnorm", "rho", "Gj", "Bj_exact", "Bj_bound",
               "gronwall_margin", "Ej")


def trajectory_csv(traj: Trajectory, opt: float | None = None) -> str:
    """Render a trajectory as CSV text (step columns are empty on the last row).

    The ``Ej`` column holds ``traj.potential(opt)``, and is empty without opt.
    Every field is ``format(float(x), ".17g")``, made column by column from
    one ``tolist`` each.
    """
    E = None if opt is None else traj.potential(opt)
    rows = traj.N + 1

    def column(values: np.ndarray | None) -> list[str]:
        out = [] if values is None else [format(x, ".17g") for x in values[:rows].tolist()]
        return out + [""] * (rows - len(out))

    fields = [map(str, range(rows))] + [
        column(values) for values in (traj.t, traj.F, traj.infnorm, traj.rho, traj.G,
                                      traj.B_exact, traj.B_bound, traj.gronwall_margin, E)]
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*fields))]) + "\n"

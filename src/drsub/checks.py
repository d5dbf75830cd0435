"""The invariant suite shared by ``drsub check`` and the acceptance tests.

Each check measures one quantity over all of its inputs and returns the worst
value: the smallest margin or residual, or the largest gap.  A NaN measurement
is the worst value: numpy's reductions propagate it, where Python's ``min``
and ``max`` would drop it.  Callers apply their own tolerances, except to the
run margins, whose one tolerance and gate live here.  Checks that sample points
draw from the caller's generator in input order, so one call per input
reproduces one call for all.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import feasible, objective, schedule, solver
from .errors import InputError, ValidationError
from .feasible import ConvexBody
from .objective import DrFunction, SetFunction

#: families whose guarantees the solver checks exercise, one per direction
FAMILIES = ("monotone", "measured", "general")

#: step counts of the runs behind the potential, headroom and guarantee checks
RUN_STEPS = (1, 10, 100, 500)

#: a run margin below -MARGIN_TOL fails its gate; every run margin is scale-free (see
#: ``run_margins``), so its round-off is a fixed multiple of eps at any objective scale
MARGIN_TOL = 1e-9


def max_ratio_error(schedules: Mapping[str, schedule.Schedule]) -> float:
    """Largest |ratio - the table's ratio| by family, naming the family on error."""
    errors = []
    for family, s in schedules.items():
        spec = schedule.FAMILIES[family]
        try:
            errors.append(abs(schedule.ratio(s, spec) - spec.ratio))
        except (InputError, ValidationError) as e:
            raise type(e)(f"{family}: {e}") from None
    return float(np.max(errors, initial=0.0))


def max_coupling_residual(schedules: Mapping[str, schedule.Schedule]) -> float:
    """Largest violation of the family coupling identity on a 100-step grid."""
    return float(np.max([schedule.coupling_residual(s, schedule.FAMILIES[family], 100)
                         for family, s in schedules.items()]))


def ratio_curve_peaks() -> tuple[float, float]:
    """Worst |peak - 1/4| and distance of the peak from T beyond one cell of 10001 nodes.

    The curve is an offset preset's running ratio b(t)/a(t) on [0, T], which
    stays at or below 1/4 and touches it once, at T, where a_t/a_0 reaches r = 4.
    """
    value_errors, offsets = [], []
    for s in (spec.preset for spec in schedule.FAMILIES.values() if spec.direction == "offset"):
        t, a, b = schedule.on_grid(s, 10000)
        curve = b / a
        value_errors.append(abs(float(np.max(curve)) - 0.25))
        offsets.append(abs(float(t[np.argmax(curve)]) - s.T) - s.T / 10000)
    return float(np.max(value_errors)), float(np.max(offsets))


def min_dr_residual(objectives: Iterable[DrFunction], rng: np.random.Generator) -> float:
    """Smallest diminishing-returns residual over 200 random pairs per objective."""
    residuals = [objective.check_dr_inequality(f, rng.uniform(size=f.n), rng.uniform(size=f.n))
                 for f in objectives for _ in range(200)]
    return float(np.min(residuals))


def max_grad_mismatch(objectives: Iterable[DrFunction], rng: np.random.Generator) -> float:
    """Largest |grad - finite difference|_inf / (1 + |grad|_inf), 50 random points each."""
    mismatches = []
    for f in objectives:
        for x in (rng.uniform(size=f.n) for _ in range(50)):
            g, fd = f.grad(x), objective.finite_diff_grad(f, x)
            mismatches.append(np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g))))
    return float(np.max(mismatches, initial=0.0))


def max_lattice_mismatch(pairs: Iterable[tuple[DrFunction, SetFunction]]) -> float:
    """Largest gap between an extension F and its set function f at the corners, per (F, f)."""
    gaps = []
    for F, sf in pairs:  # row s is the subset with bitmask s
        X = objective.corners(np.arange(1 << sf.m), sf.m)
        gaps.append(np.max(np.abs(F.values(X) - sf.table)))
    return float(np.max(gaps, initial=0.0))


def max_lmo_gap(bodies: Iterable[ConvexBody], rng: np.random.Generator) -> float:
    """Largest gap of the plain and masked oracles to enumeration, 100 draws per body.

    A body's plain vertices, the origin among them, are enumerated once; each
    masked draw enumerates the vertices under its own cap.
    """
    gaps = []
    for C in bodies:
        V = feasible.vertices(C)
        for _ in range(100):
            g, cap = rng.normal(size=C.n), rng.uniform(size=C.n)
            gaps.append(abs(float(g @ C.lmo(g)) - float(np.max(V @ g))))
            gaps.append(abs(float(g @ C.masked_lmo(g, cap))
                            - feasible.lmo_bruteforce(C, g, cap)[0]))
    return float(np.max(gaps, initial=0.0))


def max_simplex_gap(rng: np.random.Generator) -> float:
    """Largest gap of the simplex to vertex enumeration on 50 random packing LPs, cold and warm.

    Every second LP is a 0/1 matrix with unit budgets and bounds and costs in {1, 2, 3}:
    its tied ratios make degenerate pivots, and its tied costs make the Bland fallback
    after them enter other columns than Dantzig's rule would.  Each LP is solved again
    from the tableau that a solve of the reversed costs kept.  Then each is solved at
    the cap u - x/2, cold, and from the tableau the first cold solve kept, whose vertex
    x breaks that cap wherever it sat at u, as a masked Frank-Wolfe step lowers the cap
    (dual pivots repair it).  A warm gap adds the distance to the cold vertex, and is
    infinite when a 0/1 LP with tied optima gives a warm answer other than the cold
    vertex bit for bit.
    """
    gaps = []
    for i in range(50):
        ties = bool(i % 2)
        if ties:
            n, m = int(rng.integers(3, 5)), int(rng.integers(4, 7))
            A = rng.integers(0, 2, size=(m, n)).astype(float)
            b, u = np.ones(m), np.ones(n)
            c = rng.integers(1, 4, size=n).astype(float)
        else:
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            A = rng.uniform(0.0, 1.0, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            u = rng.uniform(0.2, 1.0, size=n)
            c = rng.normal(size=n)
        body = feasible.PackingBody(A, b)
        kept, flipped = feasible.WarmStart(), feasible.WarmStart()
        x, val = feasible.simplex_solve(c, A, b, u, kept)  # cold: the state is empty
        feasible.simplex_solve(c[::-1], A, b, u, flipped)
        ref, tied = _optima(body, c, u, x)
        gaps += [abs(val - ref), _warm_gap(c, A, b, u, flipped, x, ref, ties and tied)]
        low = u - 0.5 * x
        x_low, val_low = feasible.simplex_solve(c, A, b, low)
        ref, tied = _optima(body, c, low, x_low)
        gaps += [abs(val_low - ref), _warm_gap(c, A, b, low, kept, x_low, ref, ties and tied)]
    return float(np.max(gaps))


def _optima(body: ConvexBody, c: np.ndarray, u: np.ndarray, x: np.ndarray) -> tuple[float, bool]:
    """Enumerated optimum of max c.x over the body and {x <= u}, and whether a vertex off x
    attains it too."""
    V = feasible.vertices(body, u)
    values = V @ c
    best = float(np.max(values))  # the origin is one of the vertices
    return best, bool(np.any((values >= best - 1e-9) & (np.max(np.abs(V - x), axis=1) > 1e-9)))


def _warm_gap(c, A, b, u, start, x: np.ndarray, ref: float, tied: bool) -> float:
    """Gap of the solve from the WarmStart ``start`` to the optimum ref, plus its distance
    to the cold x."""
    x_warm, val_warm = feasible.simplex_solve(c, A, b, u, start)
    if tied and not np.array_equal(x_warm, x):
        return np.inf
    return max(abs(val_warm - ref), float(np.max(np.abs(x_warm - x))))


def _presets():
    return ((schedule.preset(family), solver.family_spec(family)) for family in FAMILIES)


def max_coupling_excess() -> float:
    """Largest |G_j| (plain direction) or positive G_j (others) for N in {1, 7, 50, 500}."""
    excess = []
    for s, spec in _presets():
        for N in (1, 7, 50, 500):
            G = solver.g_series(s, spec, N)
            excess.append(np.max(np.abs(G) if spec.direction == "plain" else G))
    return float(np.max(excess))


class Margin(NamedTuple):
    """A run's smallest margin of one kind and the step j where it occurs."""

    value: float
    step: int


def _smallest(series: np.ndarray) -> Margin:
    return Margin(float(np.min(series)), int(np.argmin(series)))  # both pick a NaN first


def run_margins(traj: solver.Trajectory, opt: float | None) -> dict[str, Margin]:
    """One run's certificate margins, each nonnegative up to round-off on a sound run.

    The headroom margin applies to the masked and offset rules, in box units.  A
    certified optimum opt > 0 adds the potential increment margin, the smallest
    E_{j+1} - E_j + max(G_j, 0) opt + B_exact_j over the steps j, and the guarantee
    slack at step N: opt is at most OPT, which keeps both true (F >= 0 covers a
    coefficient < 0).  Both are homogeneous of degree one in f, so they are given as
    fractions of the run's scale max(opt, max_j F(x_j)), which scaling f leaves fixed.
    """
    certified = opt is not None and not opt <= 0  # a NaN optimum gives NaN margins
    if certified:
        scale = np.max(traj.F, initial=opt)  # a NaN value or optimum propagates
        # Trajectory.potential's series, which refuses the NaN optimum that makes these NaN
        potential = traj.a * traj.F - traj.b * opt
        increments = np.diff(potential) + np.maximum(traj.G, 0.0) * opt + traj.B_exact
        slack = traj.final_value - (traj.bound.coefficient * opt - traj.bound.additive)
    margins = {
        "potential increment margin": _smallest(increments / scale) if certified else None,
        "headroom margin":
            None if traj.gronwall_margin is None else _smallest(traj.gronwall_margin),
        "guarantee slack": Margin(float(slack / scale), traj.N) if certified else None,
    }
    return {name: margin for name, margin in margins.items() if margin is not None}


def gate(margins: Mapping[str, Margin], where: str) -> list[str]:
    """One line per margin below -MARGIN_TOL, naming the run (``where``) and the step."""
    # written as "not >=" so that a NaN margin fails
    return [f"{where}, step {step}: {name} {value:.3e} misses its limit {-MARGIN_TOL:g}"
            for name, (value, step) in margins.items() if not value >= -MARGIN_TOL]


def worst_run_margins(runs: Iterable[tuple[str, DrFunction, ConvexBody, float]]
                      ) -> dict[str, tuple[str, Margin]]:
    """Smallest of each ``run_margins`` margin over every (instance, f, C, opt), family and
    N in RUN_STEPS, with the run it comes from as "instance ..., family ..., N=...".

    The first run to reach the smallest value is kept, and a NaN margin, once
    met, is kept over every number.
    """
    worst: dict[str, tuple[str, Margin]] = {}
    for instance, f, C, opt in runs:
        for s, spec in _presets():
            if spec.direction == "plain" and not f.monotone:
                continue  # its guarantee needs a monotone f
            for N in RUN_STEPS:
                for name, margin in run_margins(solver.run(f, C, s, spec, N), opt).items():
                    kept = worst[name][1].value if name in worst else np.inf
                    if margin.value < kept or np.isnan(margin.value) and not np.isnan(kept):
                        worst[name] = (f"instance {instance}, family {spec.name}, N={N}", margin)
    return worst


def max_additive_ratio() -> float:
    """Largest additive(2N) / additive(N) for N in {16, 32, 64, 128}."""
    return float(np.max([solver.guarantee(s, spec, 2 * N, 1.0, 1.0).additive
                         / solver.guarantee(s, spec, N, 1.0, 1.0).additive
                         for s, spec in _presets() for N in (16, 32, 64, 128)]))


def csv_mismatches(f: DrFunction, C: ConvexBody) -> int:
    """Number of trajectory CSV lines that differ between two identical 50-step runs."""
    s, spec = schedule.preset("monotone"), solver.family_spec("monotone")
    first, second = (solver.trajectory_csv(solver.run(f, C, s, spec, 50)).split("\n")
                     for _ in range(2))
    return sum(a != b for a, b in zip(first, second)) + abs(len(first) - len(second))

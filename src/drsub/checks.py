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
from .errors import ValidationError
from .feasible import ConvexBody
from .objective import DrFunction, SetFunction

#: families whose guarantees the solver checks exercise, one per direction
FAMILIES = ("monotone", "measured", "general")

#: step counts of the runs behind the potential, headroom and guarantee checks
RUN_STEPS = (1, 10, 100, 500)

#: a run margin below -MARGIN_TOL fails its gate; every run margin is scale-free (see
#: ``run_margins``), so its round-off is a fixed multiple of eps at any objective scale
MARGIN_TOL = 1e-9


def max_ratio_error(schedules: Mapping[str, schedule.Schedule],
                    expected: Mapping[str, float] | None = None) -> float:
    """Largest |ratio - expected| by family (default: the table's ratio), naming it on error."""
    errors = []
    for family, s in schedules.items():
        spec = schedule.FAMILIES[family]
        want = spec.ratio if expected is None else expected[family]
        try:
            errors.append(abs(schedule.ratio(s, spec) - want))
        except ValidationError as e:
            raise ValidationError(f"{family}: {e}") from None
    return float(np.max(errors, initial=0.0))


def max_coupling_residual(schedules: Mapping[str, schedule.Schedule]) -> float:
    """Largest violation of the family coupling identity on a 100-step grid."""
    return float(np.max([schedule.coupling_residual(s, schedule.FAMILIES[family], 100)
                         for family, s in schedules.items()]))


def ratio_curve_peaks(peaks: Mapping[str, float] | None = None) -> tuple[float, float]:
    """Worst |peak - 1/4| and distance of the peak from t* beyond one cell of 10001 nodes."""
    if peaks is None:  # every offset family, which peaks at its horizon T
        peaks = {n: f.preset.T for n, f in schedule.FAMILIES.items() if f.direction == "offset"}
    value_errors, offsets = [], []
    for variant, t_star in peaks.items():
        T = schedule.preset(variant).T
        t = np.linspace(0.0, T, 10001)
        curve = schedule.ratio_curve(variant, t)
        value_errors.append(abs(float(np.max(curve)) - 0.25))
        offsets.append(abs(float(t[np.argmax(curve)]) - t_star) - T / 10000)
    return float(np.max(value_errors, initial=0.0)), float(np.max(offsets, initial=0.0))


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
            g, fd = f.grad(x), objective.finite_diff_grad(f, x, 1e-4)
            mismatches.append(np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g))))
    return float(np.max(mismatches, initial=0.0))


def max_lattice_mismatch(pairs: Iterable[tuple[DrFunction, SetFunction]]) -> float:
    """Largest gap between an extension F and its set function f at the corners, per (F, f)."""
    gaps = []
    for F, sf in pairs:  # row s of corners(m) is the subset with bitmask s
        gaps.append(np.max(np.abs(F.values(objective.corners(sf.m)) - sf.table)))
    return float(np.max(gaps, initial=0.0))


def max_lmo_gap(bodies: Iterable[ConvexBody], rng: np.random.Generator) -> float:
    """Largest gap of the plain and masked oracles to enumeration, 100 draws per body."""
    gaps = []
    for C in bodies:
        for _ in range(100):
            g, cap = rng.normal(size=C.n), rng.uniform(size=C.n)
            gaps.append(abs(float(g @ C.lmo(g)) - feasible.lmo_bruteforce(C, g)[0]))
            gaps.append(abs(float(g @ C.masked_lmo(g, cap))
                            - feasible.lmo_bruteforce(C, g, cap)[0]))
    return float(np.max(gaps, initial=0.0))


def max_simplex_gap(rng: np.random.Generator) -> float:
    """Largest gap of the simplex to vertex enumeration on 50 random packing LPs, cold and warm.

    Every second LP is a 0/1 matrix with unit budgets and bounds and costs in {1, 2, 3}:
    its tied ratios make degenerate pivots, and its tied costs make the Bland fallback
    after them enter other columns than Dantzig's rule would.  Each LP is solved again
    from a start: the vertex of the reversed costs for the continuous LPs, and another
    optimal vertex, where there is one, for the 0/1 LPs.  The warm gap adds the distance
    to the cold vertex, and is infinite when a tied LP's warm answer is not the cold
    vertex bit for bit.
    """
    gaps = []
    for i in range(50):
        if i % 2:
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
        x, val = feasible.simplex_solve(c, A, b, u)
        body = feasible.PackingBody(A, b)
        ref = feasible.lmo_bruteforce(body, c, u)[0]
        tied = False
        if i % 2:
            V = feasible.vertices(body, u)
            others = V[(V @ c >= ref - 1e-9) & (np.max(np.abs(V - x), axis=1) > 1e-9)]
            tied = others.size > 0
            start = others[0] if tied else x
        else:
            start = feasible.simplex_solve(c[::-1], A, b, u)[0]
        x_warm, val_warm = feasible.simplex_solve(c, A, b, u, start)
        warm_gap = max(abs(val_warm - ref), float(np.max(np.abs(x_warm - x))))
        gaps += [abs(val - ref), np.inf if tied and not np.array_equal(x_warm, x) else warm_gap]
    return float(np.max(gaps))


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
        increments = np.diff(traj.potential(opt)) + np.maximum(traj.G, 0.0) * opt + traj.B_exact
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


def worst_run_margins(runs: Iterable[tuple[DrFunction, ConvexBody, float]]) -> dict[str, float]:
    """Smallest of each ``run_margins`` value over every (f, C, opt), family and N in RUN_STEPS."""
    found: dict[str, list[float]] = {}
    for f, C, opt in runs:
        for s, spec in _presets():
            if spec.direction == "plain" and not f.monotone:
                continue  # its guarantee needs a monotone f
            for N in RUN_STEPS:
                for name, margin in run_margins(solver.run(f, C, s, spec, N), opt).items():
                    found.setdefault(name, []).append(margin.value)
    return {name: float(np.min(values)) for name, values in found.items()}


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

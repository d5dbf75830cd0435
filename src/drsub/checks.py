"""The invariant suite shared by ``drsub check`` and the acceptance tests.

Each check measures one quantity over all of its inputs and returns the worst
value: the smallest margin or residual, or the largest gap.  Callers apply
their own tolerances.  Checks that sample points draw from the caller's
generator in input order, so one call per input reproduces one call for all.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import feasible, objective, schedule, solver
from .errors import ValidationError
from .feasible import ConvexBody
from .objective import DrFunction, SetFunction

#: families whose guarantees the solver checks exercise
FAMILIES = ("monotone", "measured", "general")

#: ratio (b_T - b_0)/a_T that each preset realizes
PRESET_RATIOS = {"monotone": 1.0 - math.exp(-1.0), "measured": math.exp(-1.0),
                 "general": 0.25, "general-exp": 0.25, "general-linear": 0.25}

#: time at which the running ratio b_t/a_t of each general variant peaks at 1/4
RATIO_PEAKS = {"general": 1.0, "general-exp": 2.0 * math.log(2.0), "general-linear": 3.0}

Certified = Sequence[tuple[DrFunction, ConvexBody, float]]  # (f, C, optimum > 0)


def max_ratio_error(schedules: Mapping[str, schedule.Schedule],
                    expected: Mapping[str, float] = PRESET_RATIOS) -> float:
    """Largest |ratio - expected| by family; a ValidationError is prefixed with the family."""
    worst = 0.0
    for family, s in schedules.items():
        try:
            worst = max(worst, abs(schedule.ratio(s) - expected[family]))
        except ValidationError as e:
            raise ValidationError(f"{family}: {e}") from None
    return worst


def max_coupling_residual(schedules: Iterable[schedule.Schedule]) -> float:
    """Largest violation of the family coupling identity on a 100-step grid."""
    return max(schedule.coupling_residual(s, 100) for s in schedules)


def ratio_curve_peaks(peaks: Mapping[str, float] = RATIO_PEAKS) -> tuple[float, float]:
    """Worst |peak - 1/4| and distance of the peak from t* beyond one cell of 10001 nodes."""
    value_error = offset = 0.0
    for variant, t_star in peaks.items():
        T = schedule.preset(variant).T
        t = np.linspace(0.0, T, 10001)
        curve = schedule.ratio_curve(variant, t)
        value_error = max(value_error, abs(float(np.max(curve)) - 0.25))
        offset = max(offset, abs(float(t[np.argmax(curve)]) - t_star) - T / 10000)
    return value_error, offset


def min_dr_residual(objectives: Iterable[DrFunction], rng: np.random.Generator) -> float:
    """Smallest diminishing-returns residual over 200 random pairs per objective."""
    return min(objective.check_dr_inequality(f, rng.uniform(size=f.n), rng.uniform(size=f.n))
               for f in objectives for _ in range(200))


def max_grad_mismatch(objectives: Iterable[DrFunction], rng: np.random.Generator) -> float:
    """Largest |grad - finite difference|_inf / (1 + |grad|_inf), 50 random points each."""
    worst = 0.0
    for f in objectives:
        for x in (rng.uniform(size=f.n) for _ in range(50)):
            g, fd = f.grad(x), objective.finite_diff_grad(f, x, 1e-4)
            worst = max(worst, float(np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g)))))
    return worst


def max_lattice_mismatch(set_functions: Iterable[SetFunction]) -> float:
    """Largest gap between a multilinear extension and its set function at the corners."""
    worst = 0.0
    for sf in set_functions:
        F = objective.multilinear_extension(sf)
        for mask in range(1 << sf.m):
            x = np.array([(mask >> i) & 1 for i in range(sf.m)], dtype=float)
            worst = max(worst, abs(F.value(x) - sf.value(mask)))
    return worst


def max_lmo_gap(bodies: Iterable[ConvexBody], rng: np.random.Generator) -> float:
    """Largest gap of the plain and masked oracles to enumeration, 100 draws per body."""
    worst = 0.0
    for C in bodies:
        for _ in range(100):
            g, cap = rng.normal(size=C.n), rng.uniform(size=C.n)
            plain = abs(float(g @ C.lmo(g)) - feasible.lmo_bruteforce(C, g)[0])
            masked = abs(float(g @ C.masked_lmo(g, cap)) - feasible.lmo_bruteforce(C, g, cap)[0])
            worst = max(worst, plain, masked)
    return worst


def max_simplex_gap(rng: np.random.Generator) -> float:
    """Largest gap of the simplex to basic-solution enumeration on 50 random packing LPs."""
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        A = rng.uniform(0.0, 1.0, size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        u = rng.uniform(0.2, 1.0, size=n)
        c = rng.normal(size=n)
        _, val = feasible.simplex_solve(c, A, b, u)
        rows = np.vstack([A, np.eye(n), -np.eye(n)])
        rhs = np.concatenate([b, u, np.zeros(n)])
        ref = max(float(c @ v) for v in feasible.basic_solutions(rows, rhs))
        worst = max(worst, abs(val - ref))
    return worst


def _presets(families=FAMILIES):
    return ((family, schedule.preset(family), solver.family_spec(family)) for family in families)


def max_coupling_excess() -> float:
    """Largest |G_j| (monotone) or positive G_j (others) for N in {1, 7, 50, 500}."""
    worst = 0.0
    for family, s, spec in _presets():
        for N in (1, 7, 50, 500):
            G = solver.g_series(s, spec, N)
            worst = max(worst, float(np.max(np.abs(G) if family == "monotone" else G)))
    return worst


def _certified_runs(certified: Certified, Ns: Iterable[int]):
    """(f, C, opt, schedule, spec, trajectory) per run; monotone family on monotone f only."""
    for f, C, opt in certified:
        for family, s, spec in _presets():
            if family == "monotone" and not f.monotone:
                continue
            for N in Ns:
                yield f, C, opt, s, spec, solver.run(f, C, s, spec, N)


def min_potential_margin(certified: Certified) -> float:
    """Smallest potential-increment margin over runs of N = 10 and 100 steps."""
    return min((solver.potential_series(traj, opt).min_margin
                for _, _, opt, _, _, traj in _certified_runs(certified, (10, 100))),
               default=math.inf)


def min_headroom_margin(pairs: Iterable[tuple[DrFunction, ConvexBody]]) -> float:
    """Smallest headroom margin of the measured and general families, N in {1, 50, 500}."""
    return min(solver.run(f, C, s, spec, N).min_gronwall_margin
               for f, C in pairs for _, s, spec in _presets(("measured", "general"))
               for N in (1, 50, 500))


def min_guarantee_slack(certified: Certified) -> float:
    """Smallest F(x_N) - (coefficient * OPT - additive) over 200-step runs."""
    worst = math.inf
    for f, C, opt, s, spec, traj in _certified_runs(certified, (200,)):
        bound = solver.guarantee(s, spec, traj.N, f.L, C.diameter())
        worst = min(worst, traj.final_value - (bound.coefficient * opt - bound.additive))
    return worst


def max_additive_ratio() -> float:
    """Largest additive(2N) / additive(N) for N in {16, 32, 64, 128}."""
    return max(solver.guarantee(s, spec, 2 * N, 1.0, 1.0).additive
               / solver.guarantee(s, spec, N, 1.0, 1.0).additive
               for _, s, spec in _presets() for N in (16, 32, 64, 128))


def csv_mismatches(f: DrFunction, C: ConvexBody) -> int:
    """Number of trajectory CSV lines that differ between two identical 50-step runs."""
    s, spec = schedule.preset("monotone"), solver.family_spec("monotone")
    first, second = (solver.trajectory_csv(solver.run(f, C, s, spec, 50)).split("\n")
                     for _ in range(2))
    return sum(a != b for a, b in zip(first, second)) + abs(len(first) - len(second))

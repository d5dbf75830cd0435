"""Desk-scale ground-truth optimum oracles.

Two independent routes to a certified optimum over a feasible body: exact
enumeration of feasible subsets for set-function instances, and a
coarse-to-fine grid sweep of the box for any smooth instance.  Both report
how far below the true continuous optimum their value can possibly be, so
callers can fold the slack into their tolerances.  Certified values are
always lower bounds on the true optimum, which keeps them safe to feed to
the potential telemetry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError
from .feasible import ConvexBody
from .objective import DrFunction, SetFunction

_MAX_BRUTEFORCE_M = 16
_MAX_GRID_N = 6
_MAX_GRID_LEVELS = 4
_INITIAL_WIDTH = 0.125

#: largest number of mesh points for which a refinement pass still sweeps
#: the whole domain (beyond this the pass only searches near the incumbent,
#: and the certified slack stays anchored to the last full sweep)
_FULL_SWEEP_CAP = 50_000


@dataclass(frozen=True, eq=False)
class OptCertificate:
    """A certified optimum estimate.

    ``value`` never exceeds the true optimum, and the true optimum never
    exceeds ``value + slack``.  ``resolution`` is the finest mesh width
    used (None for enumeration methods), ``subset`` the winning subset for
    the set-function route.
    """

    value: float
    maximizer: np.ndarray
    method: str
    slack: float
    resolution: float | None = None
    subset: tuple[int, ...] | None = None
    level_values: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "maximizer": [float(v) for v in self.maximizer],
            "method": self.method,
            "slack": self.slack,
            "resolution": self.resolution,
            "subset": None if self.subset is None else list(self.subset),
        }


@dataclass(frozen=True)
class CrossCheckReport:
    consistent: bool
    discrepancy: float
    allowed: float


def set_bruteforce(f: SetFunction, C: ConvexBody) -> OptCertificate:
    """Exact maximum of a set function over the feasible subsets of C.

    The winning indicator vector is a feasible point of the body, so the
    value is also a certified lower bound on the continuous optimum of the
    multilinear extension (slack 0 as a subset-level certificate).
    """
    if f.m > _MAX_BRUTEFORCE_M:
        raise CapacityError(f"subset brute force supports m <= {_MAX_BRUTEFORCE_M}")
    if f.m != C.n:
        raise InputError(f"ground-set size {f.m} != body dimension {C.n}")
    best_mask = 0
    best = -np.inf
    for mask in range(1 << f.m):
        x = np.array([(mask >> i) & 1 for i in range(f.m)], dtype=float)
        if not C.contains(x):
            continue
        val = float(f.table[mask])
        if val > best:
            best, best_mask = val, mask
    if not np.isfinite(best):
        raise InputError("no feasible subset found (the origin should always qualify)")
    maximizer = np.array([(best_mask >> i) & 1 for i in range(f.m)], dtype=float)
    subset = tuple(i for i in range(f.m) if best_mask >> i & 1)
    return OptCertificate(best, maximizer, "set-bruteforce", 0.0, None, subset)


def _gradient_envelope_norm(F: DrFunction) -> float:
    """2-norm of the componentwise gradient envelope over the box.

    Because the gradient is antitone, every component of grad F(x) lies
    between the corresponding components at the all-ones and all-zeros
    corners, which yields a global bound from two gradient calls.
    """
    g0 = np.abs(F.grad(np.zeros(F.n)))
    g1 = np.abs(F.grad(np.ones(F.n)))
    return float(np.linalg.norm(np.maximum(g0, g1)))


def _mesh_axes(width: float) -> np.ndarray:
    steps = int(round(1.0 / width))
    return np.linspace(0.0, 1.0, steps + 1)


def grid_search(F: DrFunction, C: ConvexBody, levels: int = 3) -> OptCertificate:
    """Coarse-to-fine sweep of the box intersected with the body.

    The first pass scans the whole domain at width 1/8; each later level
    halves the width, sweeping the whole domain again while that stays
    affordable and otherwise only a window around the incumbent.  The
    certified slack is sqrt(n) * width_of_last_full_sweep * gradient
    envelope norm: rounding the true maximizer down to that mesh stays
    feasible (the bodies are down-closed) and moves the value by at most
    the slack.
    """
    if F.n > _MAX_GRID_N:
        raise CapacityError(f"grid search supports n <= {_MAX_GRID_N}")
    if not 1 <= levels <= _MAX_GRID_LEVELS:
        raise InputError(f"levels must lie in 1..{_MAX_GRID_LEVELS}")
    if F.n != C.n:
        raise InputError(f"objective dimension {F.n} != body dimension {C.n}")
    n = F.n

    best_val = -np.inf
    best_x = np.zeros(n)
    level_values = []
    width = _INITIAL_WIDTH
    slack_width = _INITIAL_WIDTH

    for level in range(levels):
        if level == 0:
            axes = [_mesh_axes(width)] * n
            full = True
        else:
            width /= 2.0
            points_per_axis = int(round(1.0 / width)) + 1
            full = points_per_axis ** n <= _FULL_SWEEP_CAP
            if full:
                axes = [_mesh_axes(width)] * n
            else:
                lo = np.maximum(best_x - 2.0 * width, 0.0)
                hi = np.minimum(best_x + 2.0 * width, 1.0)
                axes = [np.unique(np.clip(lo[i] + width * np.arange(5), 0.0, hi[i]))
                        for i in range(n)]
        if full:
            slack_width = width
        for point in itertools.product(*axes):
            x = np.array(point)
            if not C.contains(x):
                continue
            val = F.value(x)
            if val > best_val + 1e-15 or (abs(val - best_val) <= 1e-15
                                          and tuple(x) < tuple(best_x)):
                best_val, best_x = val, x
        level_values.append(best_val)

    slack = float(np.sqrt(n) * slack_width * _gradient_envelope_norm(F))
    return OptCertificate(float(best_val), best_x, "grid", slack, width,
                          None, tuple(level_values))


def cross_check(a: OptCertificate, b: OptCertificate) -> CrossCheckReport:
    """Consistency of two certificates for the same instance."""
    discrepancy = abs(a.value - b.value)
    allowed = a.slack + b.slack + 1e-12
    return CrossCheckReport(discrepancy <= allowed, float(discrepancy), float(allowed))

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

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, InputError
from .feasible import BoxBody, ConvexBody, PartitionBody
from .objective import DrFunction, SetFunction, corners, mesh_chunks, set_is_submodular

_MAX_BRUTEFORCE_M = 16
_MAX_GRID_N = 6
_MAX_GRID_LEVELS = 4
_INITIAL_WIDTH = 0.125

#: largest number of mesh points for which a refinement pass still sweeps
#: the whole domain (beyond this the pass only searches near the incumbent,
#: and the certified slack stays anchored to the last full sweep): n=4 at
#: width 1/32 (33^4 points) and n=5 at 1/16 (17^5) are full, n=6 at 1/16 is not
_FULL_SWEEP_CAP = 2_000_000


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


def set_bruteforce(f: SetFunction, C: ConvexBody) -> OptCertificate:
    """Exact maximum of a submodular set function over the feasible subsets of C.

    The winning indicator vector is a feasible point of the body, so the
    value is a certified lower bound on the continuous optimum of the
    multilinear extension.  It is the continuous optimum itself (slack 0)
    only where that optimum sits at a 0/1 point: on partition bodies, by
    pipage rounding, and on the unit box, where F is linear in each
    coordinate.  Every other body, and a set function that is not
    submodular (pipage rounding needs it), raises.
    """
    if f.m > _MAX_BRUTEFORCE_M:
        raise CapacityError(f"subset brute force supports m <= {_MAX_BRUTEFORCE_M}")
    if f.m != C.n:
        raise InputError(f"ground-set size {f.m} != body dimension {C.n}")
    if not (isinstance(C, PartitionBody)
            or isinstance(C, BoxBody) and np.all(C.upper == 1.0)):
        raise ConfigurationError(f"--opt sets certifies slack 0 only on cardinality and partition "
                                 f"bodies and on boxes whose upper bounds are all 1, not on this "
                                 f"{type(C).__name__}; use --opt grid")
    if not set_is_submodular(f):
        raise InputError("subset enumeration certifies slack 0 only for submodular set functions")
    X = corners(f.m)  # the origin is a row, and every body above contains it
    best = int(np.argmax(np.where(C.contains_batch(X), f.table, -np.inf)))  # lowest on ties
    subset = tuple(int(i) for i in np.flatnonzero(X[best]))
    return OptCertificate(float(f.table[best]), X[best], "set-bruteforce", 0.0, None, subset)


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
    the slack.  The mesh is scored in blocks of MESH_CHUNK points.  The
    largest value wins, and among exactly equal values the
    lexicographically smallest point, so the winner does not depend on
    the scan order.
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
        for X in mesh_chunks(axes):  # each block is sorted and follows the one before
            X = X[C.contains_batch(X)]
            if X.shape[0] == 0:
                continue
            vals = F.values(X)
            i = int(np.argmax(vals))  # the first, so the smallest, of the block's maxima
            if vals[i] > best_val or (vals[i] == best_val and tuple(X[i]) < tuple(best_x)):
                best_val, best_x = float(vals[i]), X[i]
        level_values.append(best_val)

    slack = float(np.sqrt(n) * slack_width * _gradient_envelope_norm(F))
    return OptCertificate(F.value(best_x), best_x, "grid", slack, width,
                          None, tuple(level_values))

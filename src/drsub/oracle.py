"""Desk-scale ground-truth optimum oracles.

Two independent routes to a certified optimum over a feasible body: exact
enumeration of feasible subsets for set-function instances, and a full
grid sweep of the box, refined near its winner, for any smooth instance.
Both report how far below the true continuous optimum their value can
possibly be, so callers can fold the slack into their tolerances.
Certified values are always lower bounds on the true optimum, which keeps
them safe to feed to the potential telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, InputError
from .feasible import BoxBody, ConvexBody, PartitionBody
from .objective import DrFunction, SetFunction, corners, mesh_chunks, set_is_submodular

_MAX_BRUTEFORCE_M = 16
_MAX_GRID_N = 6
#: the grid widths run from 1/_COARSEST_STEPS to 1/_FINEST_STEPS by halving
_COARSEST_STEPS = 8
_FINEST_STEPS = 32

#: largest number of points of the one full sweep (finer widths only search
#: near the incumbent, and the certified slack stays anchored to the full
#: sweep): n=4 sweeps width 1/32 (33^4 points), n=5 1/16 (17^5), n=6 1/8 (9^6)
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


def _scan(F: DrFunction, C: ConvexBody, axes, best_val: float,
          best_x: np.ndarray) -> tuple[float, np.ndarray]:
    """The incumbent after scoring the feasible points of the mesh ``axes``."""
    for X in mesh_chunks(axes):  # each block is sorted and follows the one before
        X = X[C.contains_batch(X)]
        if X.shape[0] == 0:
            continue
        vals = F.values(X)
        i = int(np.argmax(vals))  # the first, so the smallest, of the block's maxima
        if vals[i] > best_val or (vals[i] == best_val and tuple(X[i]) < tuple(best_x)):
            best_val, best_x = float(vals[i]), X[i]
    return best_val, best_x


def grid_search(F: DrFunction, C: ConvexBody) -> OptCertificate:
    """One full sweep of the box intersected with the body, then windows.

    The full sweep uses the finest width in {1/8, 1/16, 1/32} whose mesh
    has at most _FULL_SWEEP_CAP points (1/8 always qualifies).  Each
    further halving of the width, down to 1/32, searches only the 5^n
    window around the incumbent.  The certified slack is the full sweep's
    width times sum(max(grad F(0), 0)): rounding the true maximizer down to
    that mesh stays feasible (the bodies are down-closed) and moves each
    coordinate up by at most the width, and the antitone gradient never
    exceeds grad F(0) in the box.  The mesh is scored in blocks of
    MESH_CHUNK points.  The largest value wins, and among exactly equal
    values the lexicographically smallest point, so the winner does not
    depend on the scan order.
    """
    if F.n > _MAX_GRID_N:
        raise CapacityError(f"grid search supports n <= {_MAX_GRID_N}")
    if F.n != C.n:
        raise InputError(f"objective dimension {F.n} != body dimension {C.n}")
    n = F.n

    steps = _COARSEST_STEPS
    while steps < _FINEST_STEPS and (2 * steps + 1) ** n <= _FULL_SWEEP_CAP:
        steps *= 2
    slack = float(np.sum(np.maximum(F.grad(np.zeros(n)), 0.0))) / steps
    best_val, best_x = _scan(F, C, [np.linspace(0.0, 1.0, steps + 1)] * n, -np.inf, np.zeros(n))
    while steps < _FINEST_STEPS:
        steps *= 2
        width = 1.0 / steps
        lo = np.maximum(best_x - 2.0 * width, 0.0)
        hi = np.minimum(best_x + 2.0 * width, 1.0)
        axes = [np.unique(np.clip(lo[i] + width * np.arange(5), 0.0, hi[i])) for i in range(n)]
        best_val, best_x = _scan(F, C, axes, best_val, best_x)
    return OptCertificate(best_val, best_x, "grid", slack, 1.0 / steps)

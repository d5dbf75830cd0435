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
from .objective import MESH_CHUNK, DrFunction, SetFunction, corners, set_is_submodular

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


def _leading_runs(C: ConvexBody, P: np.ndarray, i: int, axis: np.ndarray) -> np.ndarray:
    """Per row of P, how many leading values of ``axis`` at coordinate i keep the row in C.

    Every row is in C with axis[0] at coordinate i, so each run is at least 1.
    Membership is monotone along each coordinate (see ConvexBody), so the
    values that keep a row in C are a leading run of the ascending axis, and
    a bisection finds its length in ceil(log2(axis.size)) membership probes.
    """
    lo = np.ones(P.shape[0], dtype=np.intp)  # axis[:lo] keeps the row in C
    hi = np.full(P.shape[0], axis.size)  # axis[hi:] takes it out
    probe = P.copy()
    while np.any(lo < hi):
        mid = (lo + hi + 1) // 2
        probe[:, i] = axis[mid - 1]
        inside = C.contains_batch(probe)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid - 1)
    return lo


def _feasible_blocks(C: ConvexBody, axes, P: np.ndarray, i: int):
    """The points of C on the mesh ``axes`` that agree with a row of P on the first i axes.

    The rows of P are in C, sorted, and hold each later axis's first value.
    """
    if i == len(axes):
        yield P
        return
    runs = _leading_runs(C, P, i, axes[i])
    starts = np.concatenate(([0], np.cumsum(runs)))  # row j's children: starts[j]:starts[j + 1]
    first = 0
    while first < P.shape[0]:  # the children of P[first:last] fill at most MESH_CHUNK rows
        last = int(np.searchsorted(starts, starts[first] + MESH_CHUNK, "right")) - 1
        counts = runs[first:last]
        X = np.repeat(P[first:last], counts, axis=0)
        offsets = np.arange(X.shape[0]) - np.repeat(starts[first:last] - starts[first], counts)
        X[:, i] = axes[i][offsets]
        yield from _feasible_blocks(C, axes, X, i + 1)
        first = last


def _feasible_mesh(C: ConvexBody, axes):
    """The points of the mesh ``axes`` that C contains, in blocks of 1 to MESH_CHUNK rows.

    These are exactly the rows C.contains_batch accepts from mesh_chunks(axes),
    in the same (lexicographic) order, but only feasible points are built: the
    mesh is walked one axis at a time, on blocks of feasible prefixes with the
    later coordinates at their axes' first values.  A prefix that leaves C there
    has no feasible completion, by the same monotonicity that lets
    _leading_runs bisect.  No intermediate array holds more than MESH_CHUNK rows.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    start = np.array([[a[0] for a in axes]])
    if C.contains_batch(start)[0]:
        yield from _feasible_blocks(C, axes, start, 0)


def _scan(F: DrFunction, C: ConvexBody, axes, best_val: float,
          best_x: np.ndarray) -> tuple[float, np.ndarray]:
    """The incumbent after scoring the feasible points of the mesh ``axes``."""
    for X in _feasible_mesh(C, axes):  # each block is sorted and follows the one before
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
    exceeds grad F(0) in the box.  Each mesh is walked by _feasible_mesh,
    which builds only its feasible points, and is scored in its blocks of
    at most MESH_CHUNK points.  The largest value wins, and among exactly equal
    values the lexicographically smallest point, so the winner does not
    depend on the scan order.  Both the slack and the walk need a body
    whose inequality matrix is nonnegative (so down-closed, with membership
    monotone along every coordinate); any other body raises.
    """
    if F.n > _MAX_GRID_N:
        raise CapacityError(f"grid search supports n <= {_MAX_GRID_N}")
    if F.n != C.n:
        raise InputError(f"objective dimension {F.n} != body dimension {C.n}")
    if np.any(C._A < 0):
        raise ConfigurationError(f"--opt grid needs a down-closed body, and this "
                                 f"{type(C).__name__} has a negative inequality coefficient")
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

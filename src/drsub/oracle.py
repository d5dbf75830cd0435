"""Desk-scale ground-truth optimum oracles.

Two independent routes to a certified optimum over a feasible body: exact
enumeration of feasible subsets for set-function instances, and a full
grid sweep of the box, refined near its winner, for any smooth instance.
Both report how far below the true continuous optimum their value can
possibly be, so callers can fold the slack into their tolerances.
Certified values are always lower bounds on the true optimum, which keeps
them safe to feed to the potential telemetry.  The grid sweep skips the parts
of its mesh that submodular bounds show cannot beat its incumbent (see
grid_search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, InputError
from .feasible import BoxBody, ConvexBody, PartitionBody
from .objective import MESH_CHUNK, Coverage, DrFunction, SetFunction, corners

#: most feasible subsets that subset enumeration scores: every subset of 16 elements
_MAX_SUBSETS = 1 << 16
_MAX_GRID_N = 6
#: the grid widths run from 1/_COARSEST_STEPS to 1/_FINEST_STEPS by halving
_COARSEST_STEPS = 8
_FINEST_STEPS = 32

#: largest number of points of the one full sweep (finer widths only search
#: near the incumbent, and the certified slack stays anchored to the full
#: sweep): n=4 sweeps width 1/32 (33^4 points), n=5 1/16 (17^5), n=6 1/8 (9^6)
_FULL_SWEEP_CAP = 2_000_000

#: relative margin by which a prefix's bound must trail the incumbent before the
#: prefix is dropped (see grid_search)
_PRUNE_TOL = 1e-6


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
        return {**vars(self), "maximizer": self.maximizer.tolist()}


def _feasible_masks(blocks, capacities) -> np.ndarray:
    """The bitmasks with at most capacities[b] elements of each block b, in ascending order.

    Each element of a block joins every mask so far with room in the block.
    """
    masks = np.zeros(1, dtype=np.int64)
    for block, k in zip(blocks, capacities):
        counts = np.zeros(masks.size, dtype=np.intp)  # each mask's elements of this block
        for e in block:
            room = counts < k
            masks = np.concatenate([masks, masks[room] | 1 << e])
            counts = np.concatenate([counts, counts[room] + 1])
    return np.sort(masks)


def set_bruteforce(f: SetFunction | Coverage, C: ConvexBody) -> OptCertificate:
    """Exact maximum of a submodular set function over the feasible subsets of C.

    The winning indicator vector is a feasible point of the body, so the
    value is a certified lower bound on the continuous optimum of the
    multilinear extension.  It is the continuous optimum itself (slack 0)
    only where that optimum sits at a 0/1 point: on partition bodies, by
    pipage rounding, and on the unit box, where F is linear in each
    coordinate.  Pipage rounding needs f submodular, which a SetFunction and
    a Coverage are by construction.  Every other body, and a body with over
    _MAX_SUBSETS feasible subsets, raise before a subset is scored.  Among
    equal values the lowest mask wins.
    """
    if f.m != C.n:
        raise InputError(f"ground-set size {f.m} != body dimension {C.n}")
    if isinstance(C, PartitionBody):
        blocks, capacities = C.blocks, C.capacities
    elif isinstance(C, BoxBody) and np.all(C.upper == 1.0):
        blocks, capacities = (range(C.n),), (C.n,)
    else:
        raise ConfigurationError(f"--opt sets certifies slack 0 only on cardinality and partition "
                                 f"bodies and on boxes whose upper bounds are all 1, not on this "
                                 f"{type(C).__name__}; use --opt grid")
    count = math.prod(sum(math.comb(len(block), i) for i in range(min(k, len(block)) + 1))
                      for block, k in zip(blocks, capacities))
    if count > _MAX_SUBSETS:
        raise CapacityError(f"subset enumeration supports at most {_MAX_SUBSETS} feasible "
                            f"subsets, and this {type(C).__name__} has {count}")
    masks = _feasible_masks(blocks, capacities)
    values = f.values(masks)
    best = int(np.argmax(values))  # the first, so the lowest, of the maxima
    x = corners(masks[best], f.m)
    return OptCertificate(float(values[best]), x, "set-bruteforce", 0.0, None,
                          tuple(int(i) for i in np.flatnonzero(x)))


def _leading_runs(C: ConvexBody, P: np.ndarray, i: int, axes) -> np.ndarray:
    """Per row of P and axis k of ``axes``, how many leading values of axes[k] keep the
    row in C at coordinate i + k, as a (rows, len(axes)) array.

    Every row is in C with each axes[k][0] at coordinate i + k, so each run is
    at least 1.  Membership is monotone along each coordinate (see ConvexBody),
    so the values that keep a row in C are a leading run of the ascending
    axis, and a bisection finds its length in ceil(log2(axes[k].size))
    membership probes, made for all the axes at once, MESH_CHUNK rows at a time.
    """
    k, n = len(axes), P.shape[1]
    flat = np.concatenate(axes)
    firsts = np.cumsum([0] + [a.size for a in axes[:-1]])  # axes[k] is flat[firsts[k]:]
    diagonal = np.arange(k)
    lo = np.ones((P.shape[0], k), dtype=np.intp)  # axes[k][:lo] keeps the row in C
    hi = np.tile([a.size for a in axes], (P.shape[0], 1))  # axes[k][hi:] takes it out
    rows = max(1, MESH_CHUNK // k)
    for first in range(0, P.shape[0], rows):
        low, high = lo[first:first + rows], hi[first:first + rows]
        probe = np.repeat(P[first:first + rows, None], k, axis=1)  # copy k moves coordinate i + k
        while np.any(low < high):
            mid = (low + high + 1) // 2
            probe[:, diagonal, i + diagonal] = flat[firsts + mid - 1]
            inside = C.contains_batch(probe.reshape(-1, n)).reshape(-1, k)
            low[...] = np.where(inside, mid, low)
            high[...] = np.where(inside, high, mid - 1)
    return lo


def _corner_bound(F: DrFunction, axes, P: np.ndarray, i: int, runs: np.ndarray,
                  upper: bool) -> np.ndarray:
    """Per row of P, a bound on F over the row's feasible completions on the mesh ``axes``.

    A completion keeps the row's first i coordinates and takes each later
    coordinate j from axes[j].  With runs = _leading_runs(C, P, i, axes[i:]),
    a feasible completion takes it from the first runs[:, j - i] values of
    axes[j] only, as C is down-closed.  The corner c is the row itself (the
    later coordinates at their axes' first values, below every such
    completion) or, if ``upper``, the row with them at the last values of
    their runs (above every such completion).  Submodularity on the lattice
    gives, for every such completion x,

        F(x) <= F(c) + sum_{j >= i} max(0, max_t F(c with x_j = axes[j][t]) - F(c)),

    over t in the run: raising one coordinate at a time from the lower
    corner (each gain is at most the gain at c) or lowering one at a time
    from the upper corner (each loss is at least the loss at c).  That takes
    1 + sum_{j >= i} (|axes[j]| - 1) probes per row, evaluated at most
    MESH_CHUNK rows at a time; a probe past its run is moved to the run's
    last value, where it adds nothing to the max.  A probe may leave the
    body but never the unit box.
    """
    n = P.shape[1]
    sizes = [a.size - 1 for a in axes[i:]]
    cols = np.repeat(np.arange(i, n), sizes)
    flat = np.concatenate(axes[i:])
    firsts = np.cumsum([0] + [a.size for a in axes[i:-1]])  # axes[j] is flat[firsts[j - i]:]
    ranks = np.concatenate([np.arange(s) for s in sizes]) + (0 if upper else 1)
    ends = np.cumsum([1] + sizes)  # probes of axis i + k: ends[k]:ends[k + 1]
    last = runs - 1
    corner = P.copy()
    if upper:
        corner[:, i:] = flat[firsts + last]
    rows = max(1, MESH_CHUNK // int(ends[-1]))
    bound = np.empty(P.shape[0])
    for first in range(0, P.shape[0], rows):
        Z = np.repeat(corner[first:first + rows, None], ends[-1], axis=1)
        t = np.minimum(ranks, last[first:first + rows, cols - i])
        Z[:, 1 + np.arange(cols.size), cols] = flat[firsts[cols - i] + t]
        vals = F.values(Z.reshape(-1, n)).reshape(Z.shape[:2])
        base = vals[:, 0]
        total = base.copy()
        for start, end in zip(ends[:-1], ends[1:]):
            total += np.maximum(vals[:, start:end].max(axis=1) - base, 0.0)
        bound[first:first + rows] = total
    return bound


def _feasible_blocks(C: ConvexBody, axes, P: np.ndarray, i: int, prune):
    """The points of C on the mesh ``axes`` that agree with a row of P on the first i axes.

    The rows of P are in C, sorted, and hold each later axis's first value.
    With two or more axes left, ``prune`` first drops the rows whose
    completions cannot matter.
    """
    if i == len(axes):
        yield P
        return
    runs = _leading_runs(C, P, i, axes[i:])
    if len(axes) - i >= 2:
        keep = prune(P, i, runs)
        P, runs = P[keep], runs[keep]
    runs = runs[:, 0]
    starts = np.concatenate(([0], np.cumsum(runs)))  # row j's children: starts[j]:starts[j + 1]
    first = 0
    while first < P.shape[0]:  # the children of P[first:last] fill at most MESH_CHUNK rows
        last = int(np.searchsorted(starts, starts[first] + MESH_CHUNK, "right")) - 1
        counts = runs[first:last]
        X = np.repeat(P[first:last], counts, axis=0)
        offsets = np.arange(X.shape[0]) - np.repeat(starts[first:last] - starts[first], counts)
        X[:, i] = axes[i][offsets]
        yield from _feasible_blocks(C, axes, X, i + 1, prune)
        first = last


def _feasible_mesh(C: ConvexBody, axes, prune):
    """The points of the mesh ``axes`` that C contains, in blocks of 1 to MESH_CHUNK rows.

    These are exactly the points of the product of ``axes`` that C.contains_batch
    accepts, in lexicographic order, but only feasible points are built: the
    mesh is walked one axis at a time, on blocks of feasible prefixes with the
    later coordinates at their axes' first values.  A prefix that leaves C there
    has no feasible completion, by the same monotonicity that lets
    _leading_runs bisect.  ``prune`` maps a block of prefixes at level i,
    while two or more axes are left, and their _leading_runs along the later
    axes to the mask of those to keep, so the completions of a dropped
    prefix are never built.  No intermediate array holds more than
    MESH_CHUNK rows.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    start = np.array([[a[0] for a in axes]])
    if C.contains_batch(start)[0]:
        yield from _feasible_blocks(C, axes, start, 0, prune)


def _scan(F: DrFunction, C: ConvexBody, axes, best_val: float, best_x: np.ndarray,
          ascent: float) -> tuple[float, np.ndarray]:
    """The incumbent after scoring the mesh points that may beat it (see grid_search)."""
    def prune(P, i, runs):  # reads the incumbent when called: it rises as blocks are scored
        if best_val == -np.inf:
            return np.ones(P.shape[0], dtype=bool)
        floor = best_val - _PRUNE_TOL * (abs(best_val) + ascent + 1.0)
        keep = ~(_corner_bound(F, axes, P, i, runs, True) < floor)  # a NaN bound keeps its row
        keep[keep] = ~(_corner_bound(F, axes, P[keep], i, runs[keep], False) < floor)
        return keep

    for X in _feasible_mesh(C, axes, prune):  # each block is sorted and follows the one before
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

    The walk is a branch-and-bound.  Before a prefix with two or more axes
    left is bisected, it is dropped when the bound _corner_bound gives at
    its upper or its lower corner (each later coordinate over its feasible
    run, probed MESH_CHUNK rows at a time) falls below the incumbent by more
    than _PRUNE_TOL * (|incumbent| + ascent + 1), ascent being the slack's
    sum(max(grad F(0), 0)).  Once the origin is scored, |incumbent| + ascent
    bounds F on the box, so the margin covers round-off and the at most
    C(n, 2) * objective._SUBMODULAR_TOL * max f by which the second
    differences a SetFunction admits can lift a completion above its bound.  A
    dropped prefix holds only points scoring strictly less than the
    incumbent, so value, maximizer, slack and resolution are those of the
    unpruned sweep.  Pruning assumes the DR property, as the slack does.  It
    needs an incumbent: a full mesh of more than MESH_CHUNK points is first
    scanned on its stride-2 sub-mesh, whose points all belong to it.
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
    ascent = float(np.sum(np.maximum(F.grad(np.zeros(n)), 0.0)))
    slack = ascent / steps
    full = [np.linspace(0.0, 1.0, steps + 1)] * n
    best_val, best_x = -np.inf, np.zeros(n)
    if (steps + 1) ** n > MESH_CHUNK:  # the stride-2 sub-mesh seeds the incumbent
        best_val, best_x = _scan(F, C, [a[::2] for a in full], best_val, best_x, ascent)
    best_val, best_x = _scan(F, C, full, best_val, best_x, ascent)
    while steps < _FINEST_STEPS:
        steps *= 2
        width = 1.0 / steps
        lo = np.maximum(best_x - 2.0 * width, 0.0)
        hi = np.minimum(best_x + 2.0 * width, 1.0)
        axes = [np.unique(np.clip(lo[i] + width * np.arange(5), 0.0, hi[i])) for i in range(n)]
        best_val, best_x = _scan(F, C, axes, best_val, best_x, ascent)
    return OptCertificate(best_val, best_x, "grid", slack, 1.0 / steps)

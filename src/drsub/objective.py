"""Objective functions with diminishing returns on the unit box.

Everything here evaluates a nonnegative differentiable function
F: [0,1]^n -> R+ whose gradient is antitone (x >= y componentwise implies
grad F(x) <= grad F(y)), together with an analytic gradient oracle and a
smoothness constant L valid in the 2-norm sense.  Four closed-form
families are provided (the multilinear extension of weighted coverage,
exact multilinear extensions of small set functions given by their value
tables, nonpositive-Hessian quadratics, and smoothed concave-of-modular
sums), plus the test utilities used to cross-examine any instance:
a diminishing-returns residual and a finite-difference gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, InputError, fields
from .feasible import checked_dimension, row_products

#: round-off up to this far outside the unit box is clamped; farther points are rejected
CLAMP_TOL = 1e-12

#: smoothing floor for the concave-of-modular family (a bare square root
#: has an unbounded derivative at 0, so some floor is required for a
#: finite smoothness constant)
SQRT_FLOOR = 1e-3

_MAX_GROUND_SET = 20

#: desk-scale cap on a coverage universe
_MAX_UNIVERSE = 4096

#: round-off allowed in the exhaustive set checks, as fractions of max f: a marginal
#: may fall by _MONOTONE_TOL, and a second difference may rise by _SUBMODULAR_TOL
_MONOTONE_TOL = 1e-12
_SUBMODULAR_TOL = 1e-9

#: floats per row block of a coverage batch (512 KB); a block holds at least one row,
#: at most 4096 groups by 20 sets (640 KB)
_COVERAGE_BLOCK = 1 << 16

#: rows per block of mesh_chunks and of the grid oracle's feasible mesh; a block of n=6
#: points and its values take well under 1 MB
MESH_CHUNK = 4096


def _in_box(X: np.ndarray) -> np.ndarray:
    """X itself inside the unit box, X clamped into it when round-off puts it just outside."""
    if not X.size:
        return X
    lo, hi = X.min(), X.max()
    # one comparison per end: NaN fails both, so it is rejected with inf and far-out points
    if not (lo >= -CLAMP_TOL and hi <= 1.0 + CLAMP_TOL):
        what = f"point {X!r}" if X.ndim == 1 else "a row of the batch"
        raise InputError(f"{what} is NaN, infinite or outside the unit box")
    return X if lo >= 0.0 and hi <= 1.0 else np.clip(X, 0.0, 1.0)


def _as_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InputError(f"expected a point of dimension {n}, got shape {x.shape}")
    return _in_box(x)


def _as_batch(X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise InputError(f"expected a (k, {n}) batch of points, got shape {X.shape}")
    return _in_box(X)


@dataclass(frozen=True)
class DrFunction:
    """Value/gradient oracle pair for one objective instance.

    Instances are immutable and evaluation is pure, so a single instance
    may be shared freely between threads.  ``L`` bounds the Lipschitz
    constant of the gradient; ``monotone`` is True only when the gradient
    is nonnegative everywhere on the box.  ``values_fn`` maps a (k, n) batch
    to its k values, computing each row exactly as a one-row batch would;
    ``value`` is ``values_fn`` on the one-row batch, so ``values`` agrees
    bit for bit with ``value``.  A point inside the box reaches ``values_fn``
    and ``grad_fn`` as the caller's own array, not a copy, so neither may
    write to its argument.
    """

    n: int
    L: float
    monotone: bool
    values_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def value(self, x) -> float:
        return float(self.values_fn(_as_point(x, self.n)[None])[0])

    def values(self, X) -> np.ndarray:
        """The k values of a (k, n) batch; row i equals value(X[i]) exactly."""
        return np.asarray(self.values_fn(_as_batch(X, self.n)), dtype=float)

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.grad_fn(_as_point(x, self.n)), dtype=float)


# --- set functions and their multilinear extensions ---------------------------


@dataclass(frozen=True, eq=False)
class SetFunction:
    """Set function on a ground set of size m, stored as a full value table.

    ``table[s]`` is the value of the subset whose bitmask is s (bit i set
    means element i is in the subset).  Ground sets are capped at 20
    elements so the table and all exhaustive checks stay exact.
    """

    m: int
    table: np.ndarray

    def __post_init__(self):
        if self.m < 0 or self.m > _MAX_GROUND_SET:
            raise CapacityError(f"ground-set size must be in [0, {_MAX_GROUND_SET}], got {self.m}")
        if self.table.shape != (1 << self.m,):
            raise InputError(f"value table must have length 2^{self.m}")
        if not np.all(np.isfinite(self.table)):
            raise InputError("value table contains NaN or infinity")
        if np.any(self.table < 0):
            raise InputError("set-function values must be nonnegative")

    def value(self, subset) -> float:
        """Value of a subset given as a bitmask or an iterable of indices."""
        if isinstance(subset, (int, np.integer)):
            mask = int(subset)
        else:
            mask = 0
            for i in subset:
                if not 0 <= int(i) < self.m:
                    raise InputError(f"element {i} outside ground set of size {self.m}")
                mask |= 1 << int(i)
        if not 0 <= mask < (1 << self.m):
            raise InputError("subset bitmask out of range")
        return float(self.table[mask])

    def max_value(self) -> float:
        return float(np.max(self.table)) if self.table.size else 0.0

    @cached_property
    def second_differences(self) -> tuple[float, float]:
        """Smallest and largest f(S+i+j) - f(S+i) - f(S+j) + f(S), i < j not in S.

        Both are 0 when there is no pair.  One O(m^2 2^m) pass, made once
        for the submodularity check and the extension's L together.
        """
        T = self.table.reshape((2,) * self.m)  # one axis per element
        lo = hi = 0.0
        for i in range(self.m):
            along_i = np.diff(T, axis=i)
            for j in range(i + 1, self.m):
                D = np.diff(along_i, axis=j)
                lo, hi = min(lo, float(D.min())), max(hi, float(D.max()))
        return lo, hi


def set_function_from_table(values: Sequence[float]) -> SetFunction:
    table = np.asarray(values, dtype=float)
    m = int(table.size).bit_length() - 1
    if table.size != (1 << max(m, 0)):
        raise InputError(f"table length {table.size} is not a power of two")
    return SetFunction(m, table)


def _coverage_groups(subsets: Sequence[Sequence[int]], weights: Sequence[float] | None,
                     n_elements: int | None) -> tuple[int, np.ndarray, np.ndarray]:
    """Validate a weighted coverage and group its universe by cover mask.

    Returns m and, for every group of elements covered by exactly the same
    sets, that cover mask (bit i is set i) and the group's total weight.
    Uncovered elements (mask 0) and groups of weight 0 add nothing anywhere
    and are dropped.
    """
    m = len(subsets)
    if m > _MAX_GROUND_SET:
        raise CapacityError(f"at most {_MAX_GROUND_SET} covering sets supported, got {m}")
    if any(e < 0 for s in subsets for e in s):
        raise InputError("subset elements must be nonnegative indices")
    max_elt = max((max(s) for s in subsets if len(s) > 0), default=-1)
    if n_elements is None:
        n_elements = max_elt + 1
    if max_elt >= n_elements:
        raise InputError("subset references an element outside the universe")
    if n_elements > _MAX_UNIVERSE:
        raise CapacityError(f"coverage universe of {n_elements} elements exceeds "
                            f"the desk-scale cap of {_MAX_UNIVERSE}")
    w = np.ones(n_elements) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n_elements,):
        raise InputError(f"need one weight per universe element ({n_elements})")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InputError("element weights must be finite and nonnegative")

    covers = np.zeros(n_elements, dtype=np.int64)
    for i, s in enumerate(subsets):
        covers[np.asarray(s, dtype=np.intp)] |= 1 << i
    masks, which = np.unique(covers, return_inverse=True)
    group_weights = np.bincount(which, weights=w, minlength=masks.size)
    with np.errstate(over="ignore"):  # the overflow is the error raised here
        total = group_weights.sum()
    if not np.isfinite(total):  # f(ground set) would be infinite
        raise InputError("the total element weight overflows float64")
    keep = (masks != 0) & (group_weights > 0)
    return m, masks[keep], group_weights[keep]


def coverage_function(subsets: Sequence[Sequence[int]],
                      weights: Sequence[float] | None = None,
                      n_elements: int | None = None) -> SetFunction:
    """Weighted coverage: f(S) = total weight of elements covered by S.

    The ground set is the list of covering subsets; ``weights`` are per
    universe element (default all ones).
    """
    m, masks, group_weights = _coverage_groups(subsets, weights, n_elements)
    # a group adds its weight to every subset that meets its mask, so only
    # nonnegative terms are summed
    subset_masks = np.arange(1 << m)
    table = np.zeros(1 << m)
    for mask, weight in zip(masks, group_weights):
        table[(subset_masks & mask) != 0] += weight
    return SetFunction(m, table)


def make_coverage(subsets: Sequence[Sequence[int]],
                  weights: Sequence[float] | None = None,
                  n_elements: int | None = None) -> DrFunction:
    """Multilinear extension of weighted coverage in closed form, O(m * groups) per point.

    Takes the arguments of ``coverage_function``.  A group of elements
    covered by the same sets g, of total weight w_g, is missed by the random
    set with probability prod_{i in g} (1 - x_i), so

        F(x) = sum_g w_g (1 - prod_{i in g} (1 - x_i)),
        dF/dx_i = sum_{g contains i} w_g prod_{l in g, l != i} (1 - x_l),

    the gradient taken from prefix and suffix products over each group's
    members, with no division, so it is exact where some x_l = 1.  The
    Hessian has a zero diagonal and |d2F/dx_i dx_j| <= P_ij, the weight of
    the groups holding both i and j, so L = ||P||_2 bounds its norm.
    """
    m, masks, w = _coverage_groups(subsets, weights, n_elements)
    member = (masks[:, None] >> np.arange(m) & 1).astype(bool)  # (groups, m)
    rows = max(1, _COVERAGE_BLOCK // max(member.size, 1))

    def values(X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], rows):
            block = X[start:start + rows]
            missed = np.where(member, 1.0 - block[:, None, :], 1.0).prod(axis=2)
            # einsum's row dot, unlike BLAS, is the same for any batch
            out[start:start + rows] = np.einsum("ij,j->i", 1.0 - missed, w)
        return out

    def grad(x: np.ndarray) -> np.ndarray:
        factors = np.where(member, 1.0 - x, 1.0)  # a non-member's factor is 1
        before, after = np.ones_like(factors), np.ones_like(factors)
        before[:, 1:] = np.cumprod(factors[:, :-1], axis=1)
        after[:, :-1] = np.cumprod(factors[:, :0:-1], axis=1)[:, ::-1]
        return w @ np.where(member, before * after, 0.0)

    pair_weights = (member.T * w) @ member
    np.fill_diagonal(pair_weights, 0.0)
    # the margin lifts SVD round-off, as for the quadratic family
    L = float(np.linalg.norm(pair_weights, 2)) * (1.0 + 1e-12) if m else 0.0
    return DrFunction(m, L, True, values, grad, name=f"coverage(m={m})")


def corners(m: int) -> np.ndarray:
    """The (2^m, m) 0/1 matrix whose row s is the indicator vector of bitmask s."""
    return (np.arange(1 << m)[:, None] >> np.arange(m) & 1).astype(float)


def mesh_chunks(axes: Sequence[np.ndarray]):
    """The product of the 1-d ``axes``, MESH_CHUNK points at a time, as (rows, len(axes)) arrays.

    Points come in itertools.product order (the last axis varies fastest),
    so with ascending axes every block is lexicographically sorted and
    follows the previous one.  make_quadratic's scan of the box's vertices
    uses it; the grid oracle builds only the feasible part of its meshes.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    shape = tuple(a.size for a in axes)
    total = math.prod(shape)
    for start in range(0, total, MESH_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + MESH_CHUNK, total)), shape)
        yield np.stack([a[i] for a, i in zip(axes, index)], axis=1)


def set_is_monotone(f: SetFunction) -> bool:
    """Exhaustive marginal check: adding any element never decreases f."""
    T = f.table.reshape((2,) * f.m)  # one axis per element
    tol = _MONOTONE_TOL * f.max_value()
    return all(np.all(np.diff(T, axis=i) >= -tol) for i in range(f.m))


def set_is_submodular(f: SetFunction) -> bool:
    """Pairwise marginal check, equivalent to the subset-chain definition."""
    return f.second_differences[1] <= _SUBMODULAR_TOL * f.max_value()


def multilinear_extension(f: SetFunction) -> DrFunction:
    """Exact multilinear extension of a set function on up to 20 elements.

    The value at x is the expectation of f over the random subset that
    includes element i independently with probability x_i; the gradient
    component i is the value gap between pinning x_i to 1 and to 0.
    Both come from one pass that averages the elements out of the table,
    so each costs O(2^m).  The Hessian entry (i, j) is the expected second
    difference of f on i and j, and its diagonal is zero, so by Gershgorin
    L = (m - 1) * (largest |second difference|) bounds its norm.
    """
    if f.m > _MAX_GROUND_SET:
        raise CapacityError(f"multilinear extension supports m <= {_MAX_GROUND_SET}")
    table = f.table.copy()
    m = f.m

    def partials(X: np.ndarray) -> list[np.ndarray]:
        """partials[i][r] is the table with elements 0..i-1 averaged out at row r of X.

        The table level has one row, which matmul broadcasts against the k rows.
        """
        # (1 - x_i, x_i) per element and row, filled in place: np.stack would
        # nearly double the value of one point at m = 3
        weights = np.empty((m, X.shape[0], 2, 1))
        weights[:, :, 0, 0] = 1.0 - X.T
        weights[:, :, 1, 0] = X.T
        v = [table[None]]
        for w in weights:
            rows, size = v[-1].shape
            v.append((v[-1].reshape(rows, size // 2, 2) @ w)[..., 0])
        return v

    def values(X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        out[:] = partials(X)[-1][:, 0]  # with m = 0 the last level is the table's one row
        return out

    def grad(x: np.ndarray) -> np.ndarray:
        # g_k pins element k in partials[k] and averages out elements k+1..m-1,
        # whose inclusion weights the reverse sweep builds one element at a time
        v = partials(x[None])
        g = np.empty(m)
        weights = np.ones(1)
        for k in reversed(range(m)):
            p = v[k][0]
            g[k] = (p[1::2] - p[0::2]) @ weights
            weights = (weights[:, None] * (1.0 - x[k], x[k])).ravel()
        return g

    L = max(m - 1, 0) * max(-f.second_differences[0], f.second_differences[1])
    return DrFunction(m, float(L), set_is_monotone(f), values, grad, name=f"multilinear(m={m})")


# --- closed-form instance families ---------------------------------------------


def make_quadratic(H, c) -> DrFunction:
    """Quadratic instance x . c + x^T H x / 2 + d with H symmetric, H <= 0 entrywise.

    The offset d lifts the minimum over the box to zero; because the
    function is concave along every coordinate, that minimum sits at one
    of the 2^n box vertices and is found exactly by scoring them in blocks.
    """
    H = np.asarray(H, dtype=float)
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    if H.shape != (n, n):
        raise InputError(f"H must be {n}x{n} to match c")
    if not np.all(np.isfinite(H)) or not np.all(np.isfinite(c)):
        raise InputError("H and c must be finite")
    if np.any(H > 0):
        raise InputError("H must be entrywise nonpositive")
    if not np.allclose(H, H.T, atol=1e-12):
        raise InputError("H must be symmetric")
    if n > _MAX_GROUND_SET:
        raise CapacityError(f"vertex enumeration supports n <= {_MAX_GROUND_SET}")
    checked_dimension(n, "quadratic")
    half_H = 0.5 * H

    def unlifted(X: np.ndarray) -> np.ndarray:
        # x . (c + H x / 2) row by row; einsum's row dot, unlike BLAS, is the same for any batch
        return np.einsum("ij,ij->i", row_products(X, half_H) + c, X)

    d = -min(unlifted(V).min() for V in mesh_chunks([(0.0, 1.0)] * n))

    def values(X: np.ndarray) -> np.ndarray:
        return unlifted(X) + d

    def grad(x: np.ndarray) -> np.ndarray:
        return c + H @ x

    monotone = bool(np.all(c + H @ np.ones(n) >= 0.0))
    # the margin lifts SVD round-off (far below 1e-12 for n <= 20): L is an upper bound
    L = float(np.linalg.norm(H, 2)) * (1.0 + 1e-12)
    return DrFunction(n, L, monotone, values, grad, name=f"quadratic(n={n})")


def make_concave_modular(weights: Sequence[Sequence[float]], n: int | None = None) -> DrFunction:
    """Sum of sqrt(floor + w_k . x) terms, shifted to vanish at the origin."""
    ws = [np.asarray(w, dtype=float) for w in weights]
    if ws:
        n = ws[0].shape[0] if n is None else n
    elif n is None:
        raise InputError("dimension n is required when the weight list is empty")
    checked_dimension(n, "concave_modular")
    for w in ws:
        if w.shape != (n,):
            raise InputError("all weight vectors must share one dimension")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InputError("weight vectors must be finite and nonnegative")
        if not np.any(w > 0):
            raise InputError("weight vectors must be nonzero")

    W = np.array(ws).reshape(len(ws), n) if ws else np.zeros((0, n))
    base = len(ws) * np.sqrt(SQRT_FLOOR)
    L = float(np.sum(np.sum(W * W, axis=1)) / (4.0 * SQRT_FLOOR ** 1.5))

    def values(X: np.ndarray) -> np.ndarray:
        return np.sqrt(SQRT_FLOOR + row_products(X, W)).sum(axis=1) - base

    def grad(x: np.ndarray) -> np.ndarray:
        if W.shape[0] == 0:
            return np.zeros(n)
        return (W / (2.0 * np.sqrt(SQRT_FLOOR + W @ x))[:, None]).sum(axis=0)

    return DrFunction(int(n), L, True, values, grad, name=f"concave_modular(k={len(ws)})")


# --- verification utilities -----------------------------------------------------


def check_dr_inequality(f: DrFunction, x, y) -> float:
    """Residual of the diminishing-returns inequality at the pair (x, y).

    Returns <grad F(x), y - x> - [F(max(x,y)) + F(min(x,y)) - 2 F(x)],
    which is nonnegative (up to round-off) for every valid instance.
    """
    x = _as_point(x, f.n)
    y = _as_point(y, f.n)
    lhs = float(f.grad(x) @ (y - x))
    upper, lower, at_x = f.values(np.stack([np.maximum(x, y), np.minimum(x, y), x]))
    return lhs - float(upper + lower - 2.0 * at_x)


def finite_diff_grad(f: DrFunction, x, h: float = 1e-4) -> np.ndarray:
    """Central differences Richardson-extrapolated from steps h and 2h.

    Each step shrinks to keep the stencil symmetric inside the box (on a face
    it falls back to one side).  (4 D(h) - D(2h)) / 3 cancels the h^2 term,
    which dominates where the curvature is steep, as just above SQRT_FLOOR.
    All 4n stencil points are scored by one ``values`` call.
    """
    if h <= 0:
        raise InputError(f"finite-difference step must be positive, got {h}")
    x = _as_point(x, f.n)
    diag = np.arange(f.n)
    ends = []  # for h, then 2h: every coordinate moved up, then every coordinate moved down
    for full in (h, 2.0 * h):
        step = np.minimum(np.minimum(full, x), 1.0 - x)
        step[step == 0.0] = full
        ends += [np.minimum(x + step, 1.0), np.maximum(x - step, 0.0)]
    rows = np.tile(x, (4, f.n, 1))  # (end, coordinate, point)
    rows[:, diag, diag] = ends
    hi_h, lo_h, hi_2h, lo_2h = f.values(rows.reshape(-1, f.n)).reshape(4, f.n)
    return (4.0 * ((hi_h - lo_h) / (ends[0] - ends[1]))
            - (hi_2h - lo_2h) / (ends[2] - ends[3])) / 3.0


def empirical_smoothness(f: DrFunction, samples: int = 100, seed: int = 0) -> float:
    """Largest observed gradient-difference ratio over random pairs in the box."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        x = rng.uniform(size=f.n)
        y = rng.uniform(size=f.n)
        dist = float(np.linalg.norm(y - x))
        if dist < 1e-12:
            continue
        best = max(best, float(np.linalg.norm(f.grad(y) - f.grad(x))) / dist)
    return best


# --- JSON loading ----------------------------------------------------------------

INSTANCE_KINDS = ("coverage", "quadratic", "concave_modular", "table")


def instance_from_json(obj: dict) -> tuple[DrFunction, SetFunction | None]:
    """Build an instance from its JSON description.

    Returns the objective together with the underlying set function for
    the coverage and table kinds (None for the smooth families).  A coverage
    objective is its closed form; the table serves the subset oracles.  Fields are
    typed and closed: a mistyped, missing or unknown field raises InputError.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("instance JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "coverage":
        v = fields(obj, kind, kind=None, subsets="int lists", weights="reals?",
                   n_elements="int?")
        cover = (v["subsets"], v.get("weights"), v.get("n_elements"))
        return make_coverage(*cover), coverage_function(*cover)
    if kind == "table":
        v = fields(obj, kind, kind=None, values="reals", m="int?")
        sf = set_function_from_table(v["values"])
        if v.get("m", sf.m) != sf.m:
            raise InputError(f"declared m={v['m']} does not match table length 2^{sf.m}")
        if not set_is_submodular(sf):  # coverage is submodular by construction
            raise InputError("table values are not submodular")
        return multilinear_extension(sf), sf
    if kind == "quadratic":
        v = fields(obj, kind, kind=None, H="matrix", c="reals")
        return make_quadratic(v["H"], v["c"]), None
    if kind == "concave_modular":
        v = fields(obj, kind, kind=None, weights="matrix", n="int?")
        return make_concave_modular(v["weights"], v.get("n")), None
    raise InputError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
